#!/usr/bin/env python3
"""End-to-end benchmark of the hypermedia service emulator.

    python3 perfbench/run.py --workload crowd|hot_replicas|lossy_catalog \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds the two benchmark
binaries from source into .bench_build/perfbench (see CMakeLists.txt). Each
repetition is a fresh process that sets the workload up, runs it once and
checks its outputs. A run makes enough repetitions to fill about --seconds
(at least three); repetition r runs input seed N + r * 1000003, so the seed
alone fixes the inputs. Times are medians over the repetitions; simulated
outcomes are means over their seeds.

--trace 0 prints the end-to-end metrics. --trace 1 pairs every measured
process with a traced process of the same seed and prints the per-layer
metrics instead; the traced binary times every layer entry point listed in
wraps.txt.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A failed output check prints the failure on stderr, sets correct to
false and withholds the metrics (exit code 1). A tree the benchmark cannot
build from exits with code 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 1
WORKLOADS = ("crowd", "hot_replicas", "lossy_catalog")
MIN_REPS = 3
# Wall seconds of one process (set-up plus timed phase) on the reference
# host; repetitions() divides --seconds by these.
NOMINAL_PROCESS_S = {"crowd": 5.8, "hot_replicas": 2.0, "lossy_catalog": 2.7}
SUB_SEED_STRIDE = 1000003
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "sessions_per_s": "sessions/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_share": "ratio",
    "startup_p95_ms": "sim_ms",
    "fresh_ratio_mean": "ratio",
    "slo_compliance": "ratio",
}

# Shims that must catch calls on each workload, and those that must not.
# No workload registers metrics during the timed phase, so the shims on
# MetricsRegistry's public interning calls must stay at zero.
ALWAYS_CALLED = [
    "sim::Simulator::run_until", "net::Network::send_train",
    "rtp::parse_rtp", "rtp::parse_rtcp", "rtp::serialize_rtp",
    "rtp::serialize_rtcp", "proto::encode", "proto::decode",
    "media::verify_frame_payload", "media::FrameCache::get",
    "server::AdmissionControl::evaluate", "hermes::Deployment::Deployment",
]
EXPECTED_CALLS = {
    "crowd": ALWAYS_CALLED + [
        "net::send", "media::encode_frame_payload",
        "telemetry::SpanTracer::track", "telemetry::SpanTracer::name"],
    "hot_replicas": ALWAYS_CALLED,
    "lossy_catalog": ALWAYS_CALLED + ["media::encode_frame_payload"],
}
EXPECTED_ZERO_CALLS = {
    "crowd": ["telemetry::MetricsRegistry::intern"],
    # The pre-warmed cache serves every frame; the hub is off.
    "hot_replicas": [
        "media::encode_frame_payload", "telemetry::SpanTracer::track",
        "telemetry::SpanTracer::name", "telemetry::MetricsRegistry::intern"],
    "lossy_catalog": [
        "telemetry::SpanTracer::track", "telemetry::SpanTracer::name",
        "telemetry::MetricsRegistry::intern"],
}
# Result counters that must read zero: replicas never queue for admission.
EXPECTED_ZERO_COUNTS = {
    "crowd": [],
    "hot_replicas": ["server.admission.queued", "media.cache.misses"],
    "lossy_catalog": ["server.admission.queued"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build():
    """Configure (once) and build both binaries; False when the tree lacks
    the sources or the build fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "bench" / "harness.cpp").is_file():
        log("perfbench: no library sources under %s (src/, bench/harness.cpp)"
            % ROOT)
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "hyms_perf", "hyms_perf_traced"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("perfbench: build failed, see %s" % build_log)
                return False
    return True


def binary(traced):
    return BUILD_DIR / ("hyms_perf_traced" if traced else "hyms_perf")


# --- one process -------------------------------------------------------------

def run_child(traced, workload, seed, size):
    """One fresh process: returns its JSON result plus its rusage."""
    cmd = [str(binary(traced)), "--workload", workload, "--seed", str(seed),
           "--size", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s timed out" % " ".join(cmd))
    if err:
        sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed nothing (exit %d)" %
                           (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


# --- output checks -----------------------------------------------------------

def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def check_result(r, reference):
    """Failures (strings) of one process's outputs."""
    bad = []
    w = r["workload"]
    if r["exit_code"] != 0:
        bad.append("process exited with code %d" % r["exit_code"])
    if not r["checks"]["fates_sum"]:
        bad.append("session fates %s do not sum to %d attempted"
                   % (r["fates"], r["attempted"]))
    if not r["checks"]["verify_clean"]:
        bad.append("%d frames failed verification on clean links"
                   % r["checks"]["verify_failures"])
    if r["failed"] != 0:
        bad.append("%d sessions had no terminal fate at the horizon"
                   % r["failed"])
    if r["attempted"] < 1 or r["served"] < 1:
        bad.append("no session was served")
    if r["seed"] == REFERENCE_SEED:
        ref = reference.get(r["size"], {}).get(w)
        if ref is None:
            bad.append("no reference digests for %s at size %s"
                       % (w, r["size"]))
        elif w == "crowd":
            for key, want in ref.items():
                got = r["digests"].get(key)
                if got != want:
                    bad.append("%s digest %s != reference %s"
                               % (key, got, want))
        else:
            got = r["session_fingerprints"]
            want = ref["session_fingerprints"]
            diff = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
            if len(got) != len(want) or diff:
                bad.append("session fingerprints differ from reference "
                           "(%d of %d sessions, first at index %s)"
                           % (len(diff), len(want),
                              diff[0] if diff else "-"))
    return bad


def same_outputs(a, b):
    """True when two processes of the same seed produced identical outputs."""
    return a["digests"] == b["digests"] and \
        a["session_fingerprints"] == b["session_fingerprints"]


def check_trace(r, workload):
    """Coverage and closure failures of one traced process."""
    bad = []
    calls = {s["name"]: s["calls"] for s in r["trace"]["shims"]}
    for name in EXPECTED_CALLS[workload]:
        if calls[name] == 0:
            bad.append("shim %s caught no calls" % name)
    for name in EXPECTED_ZERO_CALLS[workload]:
        if calls[name] != 0:
            bad.append("shim %s caught %d calls, expected none"
                       % (name, calls[name]))
    for name in EXPECTED_ZERO_COUNTS[workload]:
        if r["counts"].get(name, 0) != 0:
            bad.append("%s = %d, expected 0" % (name, r["counts"][name]))
    layers = layer_self(r)
    traced_wall = r["wall_s"] * r["threads"]
    if sum(layers.values()) > traced_wall * (1 + 1e-9):
        bad.append("layer self times %.6f s exceed the traced wall %.6f s"
                   % (sum(layers.values()), traced_wall))
    if workload == "crowd" and \
            r["trace"]["sim_events"] != r["counts"]["sim.events"]:
        bad.append("run_until shim saw %d events, population ran %d"
                   % (r["trace"]["sim_events"], r["counts"]["sim.events"]))
    return bad


# --- metrics -----------------------------------------------------------------

def startup_p95(results):
    """p95 of arrival-to-viewing time over every session of the run, with
    unserved sessions sorted last as +inf (linear interpolation, as numpy's
    default)."""
    v = sorted(float("inf") if x is None else x
               for r in results for x in r["startup_ms"])
    rank = 0.95 * (len(v) - 1)
    lo = int(rank)
    a, b = v[lo], v[min(lo + 1, len(v) - 1)]
    if rank == lo or a == b:  # also keeps inf - inf out of the sum
        return a
    return a + (rank - lo) * (b - a)


def end_to_end(results):
    def each(key):
        return [r[key] for r in results]

    return {
        "sessions_per_s": statistics.median(each("sessions_per_s")),
        "setup_s": statistics.median(each("setup_s")),
        "peak_rss_mb": statistics.median(each("maxrss_kb")) / 1024.0,
        # Simulated outcomes: deterministic per input seed, so averaged over
        # the repetitions' seeds.
        "served_share": statistics.fmean(each("served_share")),
        "startup_p95_ms": startup_p95(results),
        "fresh_ratio_mean": statistics.fmean(each("fresh_ratio_mean")),
        "slo_compliance": statistics.fmean(each("slo_compliance")),
    }


def layer_self(r):
    """Self seconds per layer, summed over the layer's shims and threads."""
    out = {}
    for s in r["trace"]["shims"]:
        out[s["layer"]] = out.get(s["layer"], 0.0) + s["self_s"]
    return out


def per_layer_one(r, untraced_wall):
    """Per-layer metrics of one traced process."""
    t = r["trace"]
    shim = {s["name"]: s for s in t["shims"]}
    c = r["counts"]
    n = float(r["attempted"])
    layers = layer_self(r)
    traced_wall = r["wall_s"] * r["threads"]

    def calls(*names):
        return sum(shim[x]["calls"] for x in names)

    def incl(*names):
        return sum(shim[x]["incl_s"] for x in names)

    hits = c.get("media.cache.hits", 0)
    misses = c.get("media.cache.misses", 0)
    m = {
        "sim.events": t["sim_events"],
        "sim.events_per_session": t["sim_events"] / n,
        "sim.run_s": incl("sim::Simulator::run_until"),
        "sim.self_s": layers["sim"],
        "net.send_calls": calls("net::send", "net::Network::send_train"),
        "net.send_s": incl("net::send", "net::Network::send_train"),
        "net.self_s": layers["net"],
        "net.bytes_per_session": t["net_bytes"] / n,
        "net.link_dropped_queue": c.get("net.link_dropped_queue", 0),
        "net.link_dropped_loss": c.get("net.link_dropped_loss", 0),
        "rtp.parse_calls": calls("rtp::parse_rtp", "rtp::parse_rtcp"),
        "rtp.parse_s": incl("rtp::parse_rtp", "rtp::parse_rtcp"),
        "rtp.serialize_s": incl("rtp::serialize_rtp", "rtp::serialize_rtcp"),
        "rtp.self_s": layers["rtp"],
        "rtp.packets_lost": c.get("rtp.packets_lost", 0),
        "rtp.rtcp_reports": c.get("rtp.rtcp_reports", 0),
        "proto.decode_calls": calls("proto::decode"),
        "proto.decode_s": incl("proto::decode"),
        "proto.encode_s": incl("proto::encode"),
        "proto.self_s": layers["proto"],
        "media.verify_calls": calls("media::verify_frame_payload"),
        "media.verify_s": incl("media::verify_frame_payload"),
        "media.verify_share":
            incl("media::verify_frame_payload") / traced_wall,
        "media.cache.get_calls": calls("media::FrameCache::get"),
        "media.cache.get_s": incl("media::FrameCache::get"),
        "media.cache.get_ns_p50": t["get_ns_p50"],
        "media.cache.get_ns_p99": t["get_ns_p99"],
        "media.cache.hits": hits,
        "media.cache.misses": misses,
        "media.cache.evictions": c.get("media.cache.evictions", 0),
        "media.cache.hit_ratio":
            hits / float(hits + misses) if hits + misses else 0.0,
        "media.synth_calls": calls("media::encode_frame_payload"),
        "media.synth_s": incl("media::encode_frame_payload"),
        "media.cache.dup_synth": t["dup_synth"],
        "media.self_s": layers["media"],
        "buffer.underflow_duplicates": c.get("buffer.underflow_duplicates", 0),
        "buffer.overflow_drops": c.get("buffer.overflow_drops", 0),
        "buffer.late_discards": c.get("buffer.late_discards", 0),
        "core.sync_skips": c.get("core.sync_skips", 0),
        "server.admission.evaluate_calls":
            calls("server::AdmissionControl::evaluate"),
        "server.admission.evaluate_s":
            incl("server::AdmissionControl::evaluate"),
        "server.admission.queued": c.get("server.admission.queued", 0),
        "server.admission.queue_grants":
            c.get("server.admission.queue_grants", 0),
        "server.admission.queue_timeouts":
            c.get("server.admission.queue_timeouts", 0),
        "server.admission.rejections": c.get("server.admission.rejections", 0),
        "server.admission.degraded_grants":
            c.get("server.admission.degraded_grants", 0),
        "server.qos.degrades": c.get("server.qos.degrades", 0),
        "server.qos.upgrades": c.get("server.qos.upgrades", 0),
        "server.qos.stops": c.get("server.qos.stops", 0),
        "server.self_s": layers["server"],
        "client.admission_retries": c.get("client.admission_retries", 0),
        "client.abandoned": c.get("client.abandoned", 0),
        "client.churned": c.get("client.churned", 0),
        "client.failed": c.get("client.failed", 0),
        "telemetry.track_calls": calls("telemetry::SpanTracer::track",
                                       "telemetry::SpanTracer::name"),
        "telemetry.intern_calls": calls("telemetry::MetricsRegistry::intern"),
        "telemetry.intern_s": incl("telemetry::SpanTracer::track",
                                   "telemetry::SpanTracer::name",
                                   "telemetry::MetricsRegistry::intern"),
        "telemetry.self_s": layers["telemetry"],
        "hermes.setup_s": incl("hermes::Deployment::Deployment"),
        "hermes.self_s": layers["hermes"],
        "trace.traced_wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - sum(layers.values()),
        "trace.overhead_ratio": r["wall_s"] / untraced_wall,
    }
    return m


SPECIAL_UNITS = {
    "sim.events_per_session": "events/session",
    "net.bytes_per_session": "B/session",
    "hermes.rss_kb_per_session": "kB/session",
}
SUFFIX_UNITS = {"_s": "s", "_share": "ratio", "_ratio": "ratio",
                "_ns_p50": "ns", "_ns_p99": "ns", ".cpu_util": "ratio"}


def unit_of(name):
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced, untraced):
    untraced_wall = statistics.median([r["wall_s"] for r in untraced])
    rows = [per_layer_one(r, untraced_wall) for r in traced]
    metrics = {k: statistics.median([row[k] for row in rows])
               for k in rows[0]}
    # Memory and CPU come from the measured (untraced) processes.
    metrics["hermes.rss_kb_per_session"] = statistics.median(
        [r["maxrss_kb"] / float(r["attempted"]) for r in untraced])
    metrics["proc.cpu_s"] = statistics.median([r["cpu_s"] for r in untraced])
    metrics["proc.cpu_util"] = statistics.median(
        [r["cpu_s"] / (r["wall_s"] * r["threads"]) for r in untraced])
    metrics["proc.ctx_switches_involuntary"] = statistics.median(
        [r["nivcsw"] for r in untraced])
    return metrics


# --- identity ----------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over the sources the binaries are built from, so a tree
    without git history is still identified."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "bench", "perfbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in
                   (".cpp", ".hpp", ".txt", ".py", ".json"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def identity(results, load_start):
    b = results[0]["build"]
    return {
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": b["type"],
        "build_flags": b["flags"],
        "compiler": b["compiler"],
        "assertions": b["assertions"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "ctx_switches_involuntary": sum(r["nivcsw"] for r in results),
        "processes": len(results),
    }


# --- main --------------------------------------------------------------------

def repetitions(workload, seconds, trace):
    """Processes per run: a pure function of the workload and --seconds, so
    a seed always names the same inputs. Sized to fill --seconds here."""
    per_process = NOMINAL_PROCESS_S[workload] * (2 if trace else 1)
    return max(MIN_REPS if not trace else 2, round(seconds / per_process))


def sub_seed(seed, rep):
    """Input seed of repetition `rep`; repetition 0 runs `seed` itself."""
    return seed + rep * SUB_SEED_STRIDE


def run(workload, seed, seconds, trace, size):
    """Returns (result JSON object, identity, process results)."""
    reference = load_reference()
    load_start = os.getloadavg()
    measured, traced_runs, failures = [], [], []
    for rep in range(repetitions(workload, seconds, trace)):
        s = sub_seed(seed, rep)
        m = run_child(False, workload, s, size)
        measured.append(m)
        failures += check_result(m, reference)
        if trace and not failures:
            t = run_child(True, workload, s, size)
            traced_runs.append(t)
            failures += check_result(t, reference) + check_trace(t, workload)
            if not same_outputs(t, m):
                failures.append("traced outputs differ from untraced "
                                "(seed %d)" % s)
        if failures:
            break
    everyone = measured + traced_runs
    ident = identity(everyone, load_start)
    if not failures and startup_p95(measured) == float("inf"):
        failures.append("startup p95 is unbounded: more than 5% of the "
                        "run's sessions were never served")
    for f in failures:
        log("CHECK FAILED [%s seed %d]: %s" % (workload, seed, f))
    out = {"correct": not failures,
           "attempted": sum(r["attempted"] for r in measured),
           "failed": sum(r["failed"] for r in measured), "metrics": {}}
    if failures:
        return out, ident, everyone
    if trace:
        values = per_layer(traced_runs, measured)
        out["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                          for k, v in values.items()}
    else:
        values = end_to_end(measured)
        out["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in values.items()}
    return out, ident, everyone


def write_reference():
    """Record seed-1 digests at both sizes (run after an intended change of
    simulated behaviour, and commit the result)."""
    ref = {"seed": REFERENCE_SEED}
    for size in ("full", "smoke"):
        ref[size] = {}
        for w in WORKLOADS:
            r = run_child(False, w, REFERENCE_SEED, size)
            if w == "crowd":
                ref[size][w] = r["digests"]
            else:
                ref[size][w] = {
                    "session_fingerprints": r["session_fingerprints"]}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log("wrote %s" % REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-record reference.json from seed-1 runs")
    args = ap.parse_args()
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.write_reference:
        write_reference()
        return 0
    try:
        out, ident, _ = run(args.workload, args.seed, args.seconds,
                            args.trace == 1, "full")
    except RuntimeError as err:
        log("perfbench: %s" % err)
        return 2
    print(json.dumps({"identity": ident}))
    for name, m in out["metrics"].items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
