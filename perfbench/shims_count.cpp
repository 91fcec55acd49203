// Shim for the measured binary: counts frames the client's integrity check
// rejects, so every run can prove clean links deliver zero corrupt frames.
// It reads no clock; the only cost is one extra direct call per frame.

#include <atomic>
#include <optional>
#include <vector>

#include "media/frame.hpp"
#include "trace.hpp"

namespace {
std::atomic<std::uint64_t> g_verify_failures{0};
}

extern "C" {
std::optional<hyms::media::FrameBody>
__real__ZN4hyms5media20verify_frame_payloadERKSt6vectorIhSaIhEE(
    const std::vector<std::uint8_t>& payload);

std::optional<hyms::media::FrameBody>
__wrap__ZN4hyms5media20verify_frame_payloadERKSt6vectorIhSaIhEE(
    const std::vector<std::uint8_t>& payload) {
  auto body =
      __real__ZN4hyms5media20verify_frame_payloadERKSt6vectorIhSaIhEE(payload);
  if (!body) g_verify_failures.fetch_add(1, std::memory_order_relaxed);
  return body;
}
}

namespace perfbench {

bool traced() { return false; }
void trace_reset() { g_verify_failures.store(0); }
TraceTotals trace_collect() {
  TraceTotals totals;
  totals.verify_failures = g_verify_failures.load();
  return totals;
}

}  // namespace perfbench
