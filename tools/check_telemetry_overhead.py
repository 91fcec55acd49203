#!/usr/bin/env python3
"""Guard the telemetry layer's hot-path cost from BENCH_micro.json.

Two checks per instrumented pair, both read from a google-benchmark JSON
file produced by `bench_micro --json`. The pairs are:

- BM_PacketForwardingSteadyState / BM_PacketForwardingTelemetryOn: the
  packet forwarding inner loop, with tracing fully on in the second.
- BM_SessionLifecycle / BM_SessionLifecycleQoeOn: a complete short
  session (connect, admission, stream setup, playout, seal), with the
  QoE/flight-recorder plane collecting in the second.

1. Telemetry-off overhead: the off-path benchmark (no hub installed,
   every instrumentation site is one null-check branch) must stay within
   --budget (default 3%) of a baseline file's number — but only when the
   two runs come from the same host (check_bench_regression.same_host:
   host name and CPU count, plus CPU model and frame kernel where both
   runs record them). Cross-host comparisons
   are noise, so they warn instead of fail. A pair absent from the
   baseline (older baseline) is skipped with a note.
2. Telemetry-on delta: within the fresh run, on vs off is reported
   (informational unless --max-on-overhead is given; the bound applies
   only to the packet pair — session QoE collection is an opt-in path).

Exit code 0 = within budget (or nothing comparable), 1 = regression.

Usage:
  tools/check_telemetry_overhead.py BENCH_micro.json [--baseline OLD.json]
      [--budget 3.0] [--max-on-overhead PCT]
"""

import argparse
import json
import sys

from check_bench_regression import host_identity, same_host

STEADY = "BM_PacketForwardingSteadyState"
TRACED = "BM_PacketForwardingTelemetryOn"

# (off-path name, on-path name, does --max-on-overhead bound this pair)
PAIRS = (
    (STEADY, TRACED, True),
    ("BM_SessionLifecycle", "BM_SessionLifecycleQoeOn", False),
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def items_per_second(doc, name):
    for bench in doc.get("benchmarks", []):
        if bench.get("name") == name and "items_per_second" in bench:
            return float(bench["items_per_second"])
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh", help="BENCH_micro.json from this run")
    parser.add_argument("--baseline", help="committed BENCH_micro.json")
    parser.add_argument("--budget", type=float, default=3.0,
                        help="max %% slowdown of any telemetry-off path")
    parser.add_argument("--max-on-overhead", type=float, default=None,
                        help="optionally also bound the tracing-on delta")
    args = parser.parse_args()

    fresh = load(args.fresh)
    if fresh.get("context", {}).get("assertions") == "enabled":
        print("check_telemetry_overhead: fresh run is a debug/assert build; "
              "numbers are not comparable -- skipping", file=sys.stderr)
        return 0

    base = load(args.baseline) if args.baseline else None

    failed = False
    for off_name, on_name, bound_on in PAIRS:
        off = items_per_second(fresh, off_name)
        on = items_per_second(fresh, on_name)

        if off is not None and on is not None and on > 0:
            delta = (off / on - 1.0) * 100.0
            print(f"telemetry-on cost: {off_name} {off:,.0f} items/s vs "
                  f"{on_name} {on:,.0f} items/s ({delta:+.1f}%)")
            if (bound_on and args.max_on_overhead is not None
                    and delta > args.max_on_overhead):
                print(f"FAIL: tracing-on overhead {delta:.1f}% exceeds "
                      f"{args.max_on_overhead:.1f}%", file=sys.stderr)
                failed = True

        if base is None:
            continue
        base_off = items_per_second(base, off_name)
        if base_off is None or off is None:
            print("check_telemetry_overhead: no comparable "
                  f"{off_name} in baseline -- skipping off-path check")
        elif not same_host(fresh, base):
            print(f"check_telemetry_overhead: baseline host "
                  f"{host_identity(base)!r} != {host_identity(fresh)!r}; "
                  "cross-host numbers are noise -- warn only")
            print(f"  baseline {base_off:,.0f} items/s, fresh {off:,.0f}")
        else:
            slowdown = (base_off / off - 1.0) * 100.0 if off > 0 else 0.0
            print(f"telemetry-off path vs baseline: {off_name} "
                  f"{off:,.0f} items/s "
                  f"(baseline {base_off:,.0f}, {slowdown:+.1f}%)")
            if slowdown > args.budget:
                print(f"FAIL: telemetry-off path {off_name} regressed "
                      f"{slowdown:.1f}% > budget {args.budget:.1f}%",
                      file=sys.stderr)
                failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
