// Global operator new/delete replacement that counts heap allocations
// while g_count_allocs is set (the traced event loop only). Outside that
// window the cost is one predictable branch per allocation. Every
// non-aligned form is replaced, so each allocation and its release go
// through the same malloc/free pair.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "traced.hpp"

namespace e2ebench {
std::uint64_t g_heap_allocs = 0;
bool g_count_allocs = false;
}  // namespace e2ebench

namespace {

void* counted_alloc(std::size_t size) noexcept {
  if (e2ebench::g_count_allocs) ++e2ebench::g_heap_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  for (;;) {
    if (void* p = counted_alloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
