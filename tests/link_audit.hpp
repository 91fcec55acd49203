#pragma once

// Packet conservation audit for net::Link accounting. Once a simulation has
// run dry nothing is left on any wire, so every packet a link was offered
// must have been delivered or dropped for exactly one reason.

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace hyms {

/// offered == delivered + dropped_queue + dropped_loss + dropped_down.
inline void expect_link_conserved(const net::Link& link) {
  const net::Link::Stats& s = link.stats();
  EXPECT_EQ(s.offered,
            s.delivered + s.dropped_queue + s.dropped_loss + s.dropped_down)
      << "link " << link.name() << ": offered " << s.offered << ", delivered "
      << s.delivered << ", dropped queue/loss/down " << s.dropped_queue << "/"
      << s.dropped_loss << "/" << s.dropped_down;
}

/// Audit every link of `net`; returns how many links were audited so callers
/// can check the audit saw the topology they built.
inline int expect_links_conserved(net::Network& net) {
  const auto nodes = static_cast<net::NodeId>(net.node_count());
  int audited = 0;
  for (net::NodeId from = 0; from < nodes; ++from) {
    for (net::NodeId to = 0; to < nodes; ++to) {
      if (const net::Link* link = net.find_link(from, to)) {
        expect_link_conserved(*link);
        ++audited;
      }
    }
  }
  return audited;
}

}  // namespace hyms
