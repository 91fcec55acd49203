#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, runs every workload at smoke size through the same
code path as run.py (measured and traced processes, output checks, coverage
and closure checks), checks that the printed metrics match BENCHMARK.json by
name and unit, and feeds the output checks deliberately broken results to
prove each one can fail. Exit code 0 when everything holds.
"""

import copy
import json
import sys

import run

FAILURES = []


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def main():
    if not run.build():
        print("FAIL build")
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reference = run.load_reference()
    expect(set(e2e_units) == set(run.END_TO_END),
           "BENCHMARK.json end_to_end names match run.py")

    samples = {}
    for w in run.WORKLOADS:
        # Seed 1 is the reference seed: its first repetition must reproduce
        # the committed smoke digests.
        out, ident, procs = run.run(w, 1, 0, True, "smoke")
        expect(out["correct"], "%s traced smoke run passes its checks" % w)
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        expect(got == layer_units,
               "%s per-layer metrics match BENCHMARK.json" % w)
        closure = out["metrics"]
        if closure:
            layers = sum(v["value"] for k, v in closure.items()
                         if k.endswith(".self_s"))
            total = closure["trace.traced_wall_s"]["value"]
            unattributed = closure["trace.unattributed_s"]["value"]
            expect(unattributed >= 0 and total > 0,
                   "%s unattributed time is non-negative" % w)
            # Medians of sums are not sums of medians, so this holds per
            # process (check_trace) and only roughly across medians.
            expect(abs(layers + unattributed - total) <= 0.05 * total,
                   "%s layer self times + unattributed ~ traced wall" % w)
        out2, _, _ = run.run(w, 2, 0, False, "smoke")
        expect(out2["correct"], "%s measured smoke run (seed 2) passes" % w)
        expect({k: v["unit"] for k, v in out2["metrics"].items()}
               == e2e_units, "%s end-to-end metrics match BENCHMARK.json" % w)
        expect(all(v["value"] > 0 for v in out2["metrics"].values()),
               "%s end-to-end metrics are non-zero" % w)
        expect(ident["host"] and ident["compiler"] and ident["cpu_model"],
               "%s identity is recorded" % w)
        samples[w] = next(p for p in procs if p["traced"])

    # Every output check must be able to fail.
    for w, good in samples.items():
        expect(not run.check_result(good, reference),
               "%s sample passes before tampering" % w)
        bad = copy.deepcopy(good)
        if w == "crowd":
            bad["digests"]["fingerprint"] = "0" * 16
        else:
            bad["session_fingerprints"][0] = "0" * 16
        expect(run.check_result(bad, reference),
               "%s reference mismatch is caught" % w)
        bad = copy.deepcopy(good)
        bad["checks"]["fates_sum"] = False
        expect(run.check_result(bad, reference),
               "%s fate accounting error is caught" % w)
        bad = copy.deepcopy(good)
        bad["failed"] = 1
        expect(run.check_result(bad, reference),
               "%s unfinished session is caught" % w)
        bad = copy.deepcopy(good)
        bad["checks"]["verify_clean"] = False
        bad["checks"]["verify_failures"] = 3
        expect(run.check_result(bad, reference),
               "%s corrupt frames on clean links are caught" % w)
        bad = copy.deepcopy(good)
        for s in bad["trace"]["shims"]:
            if s["name"] == "media::verify_frame_payload":
                s["calls"] = 0
        expect(run.check_trace(bad, w), "%s silent shim is caught" % w)
        bad = copy.deepcopy(good)
        bad["trace"]["shims"][0]["self_s"] += 2 * good["wall_s"] * 2
        expect(run.check_trace(bad, w), "%s closure violation is caught" % w)
        bad = copy.deepcopy(good)
        bad["digests"] = {k: "f" * 16 for k in bad["digests"]}
        expect(not run.same_outputs(bad, good),
               "%s traced/untraced divergence is caught" % w)

    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
