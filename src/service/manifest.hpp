// Canonical run manifests: the dedup key of the fleet service
// (DESIGN.md §14).
//
// A run is identified by what the simulator will actually see — every
// row of the config schema (harness/config_schema.hpp), the
// *parsed* scenario events (so two textual spellings of the same schedule
// collide, as they must), and the seed. The manifest is rendered as
// compact JSON with a fixed key order and exact number spellings, then
// hashed with 64-bit FNV-1a. Identical manifest hash => run_experiment
// produces the byte-identical RunResult and metrics export, so the run
// store can answer duplicates from cache.
//
// Deliberately NOT part of the manifest: shared_topology/shared_image
// (construction shortcuts, not semantics), cfg.seed (the `seed` argument
// is the one hashed), Observation settings (metrics are
// observation-independent by the §9 contract), and sweep job counts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "harness/experiment.hpp"

namespace mnp::service {

/// Canonical JSON rendering of (config, scenario, seed). Stable across
/// processes and builds; documented field-for-field in DESIGN.md §14.
std::string canonical_manifest(const harness::ExperimentConfig& cfg,
                               std::uint64_t seed);

/// 64-bit FNV-1a over `bytes`.
std::uint64_t fnv1a64(std::string_view bytes);

/// fnv1a64(canonical_manifest(cfg, seed)).
std::uint64_t manifest_hash(const harness::ExperimentConfig& cfg,
                            std::uint64_t seed);

/// Fixed-width lowercase hex of a manifest hash (the run store's external
/// key format, e.g. "a3f09b6c01d24e88").
std::string manifest_hash_hex(std::uint64_t hash);

}  // namespace mnp::service
