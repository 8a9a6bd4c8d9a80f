// Report rendering: turns a RunResult into the pictures/tables the paper
// prints. mnp_paper's figure renderers and the examples are thin wrappers
// over these.
#pragma once

#include <iosfwd>
#include <vector>

#include "harness/metrics.hpp"
#include "net/packet.hpp"

namespace mnp::harness {

/// One-paragraph run summary (completion, ART, messages, reliability).
void print_summary(std::ostream& os, const char* title, const RunResult& r);

/// Figs. 5-7: parent arrows on the deployment grid plus the order in which
/// nodes became senders.
void print_parent_map(std::ostream& os, const RunResult& r, net::NodeId base);
void print_sender_order(std::ostream& os, const RunResult& r);

/// Figs. 8-9: per-node active radio time (total and after first
/// advertisement), as a table keyed by node id and as a location heat map.
void print_active_radio(std::ostream& os, const RunResult& r);

/// Fig. 11: transmission / reception counts by grid location.
void print_tx_rx_distribution(std::ostream& os, const RunResult& r);

/// Fig. 12: per-minute message counts by class.
void print_timeline(std::ostream& os, const RunResult& r);

/// Fig. 13: completion wavefront at the given fractions of total time.
void print_propagation_snapshots(std::ostream& os, const RunResult& r,
                                 const std::vector<double>& fractions);

}  // namespace mnp::harness
