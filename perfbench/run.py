#!/usr/bin/env python3
"""Whole-stack benchmark: build perfbench.cpp, run one workload, verify, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark program (perfbench.cpp) is
built from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build) on the first call and reused afterwards. Workloads and metric names come from
BENCHMARK.json; which layer metric should move which end-to-end metric is
in perfbench/README.md.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Earlier lines carry provenance, failures, program rates
flagged outside [0,1], and (traced runs) the per-layer self-time table.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload does not call into; they read 0.
NOT_EXERCISED = {
    "paper_circuits": {
        "ir.parse_s", "ir.content_hash_s", "dd.export_s", "sim.checkpoints",
        "sim.checkpoint_bytes", "sim.checkpoint_serialize_s",
        "sim.checkpoint_deserialize_s", "serve.jobs", "serve.submit_s",
        "serve.queue_p50_s", "serve.queue_p90_s", "serve.exec_p50_s",
        "serve.exec_p90_s", "serve.simulations_run", "serve.cache_hits",
        "serve.coalesced", "serve.spill_appended",
        "net.encode_s", "net.decode_s", "net.bytes_per_job",
        "net.checkpoint_frames", "router.overhead_p50_s", "router.rerouted",
        "router.rejections", "router.lost_jobs", "router.round_s_deployed",
        "sched.preemptions_per_job_deployed",
    },
    "serve_batch": {
        "sim.checkpoint_bytes", "sim.checkpoint_serialize_s",
        "sim.checkpoint_deserialize_s", "dd.export_s", "net.encode_s",
        "net.decode_s", "net.bytes_per_job", "net.checkpoint_frames",
        "router.overhead_p50_s", "router.rerouted", "router.rejections",
        "router.lost_jobs", "router.round_s_deployed",
        "sched.preemptions_per_job_deployed",
    },
    "router_ckpt": {"serve.submit_s"},
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_root):
    """Configure and build (incrementally after the first run); return the binary."""
    build_dir = os.path.join(build_root, "perfbench-cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def provenance_extra():
    """Git commit (when the checkout is a repository) and a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_commit": commit or "unavailable",
            "src_sha256": digest.hexdigest()[:16]}


# ------------------------------------------------------------ trace reducer

def self_times(trace_path):
    """Per-span self time from a Chrome trace (B/E events, microseconds).

    Returns (rows, root) where rows maps (name, cat) to [count, total_s,
    self_s] and root describes the client track: the duration of its
    bench.timed span and the sum of the self times of every span on it.
    A span's self time is its duration minus the time covered by its
    children on the same track.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    rows = {}
    stacks = {}
    track_self = {}
    root = {"tid": None, "dur_s": 0.0}
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue
        tid = e["tid"]
        stack = stacks.setdefault(tid, [])
        ts = e["ts"] * 1e-6
        if ph == "B":
            stack.append([e["name"], e.get("cat", ""), ts, 0.0])
            continue
        if not stack:
            raise ValueError("unbalanced E event on track %s" % tid)
        name, cat, start, child = stack.pop()
        dur = ts - start
        row = rows.setdefault((name, cat), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        track_self[tid] = track_self.get(tid, 0.0) + dur - child
        if stack:
            stack[-1][3] += dur
        if name == "bench.timed":
            root = {"tid": tid, "dur_s": dur}
    if any(stacks.values()):
        raise ValueError("spans left open at the end of the trace")
    root["track_self_s"] = track_self.get(root["tid"], 0.0)
    return rows, root


def reduce_trace(trace_path, traced_wall_s):
    rows, root = self_times(trace_path)

    def self_of(pred):
        return sum(r[2] for (name, cat), r in rows.items() if pred(name, cat))

    def program(layer):
        return lambda name, cat: cat != "bench" and name.split(".")[0] == layer

    # Busy time: the spans that each cover one whole simulation job.
    busy = sum(r[1] for (name, cat), r in rows.items()
               if (name, cat) in (("sim.simulate", "bench"),
                                  ("serve.job-run", "serve")))
    kernels = self_of(lambda n, c: c == "dd" and
                      (n.startswith("dd.multiply") or n.startswith("dd.add")))
    setup_serve = self_of(lambda n, c: (n, c) in (("sim.simulate", "bench"),
                                                  ("serve.job-run", "serve")))
    checkpoint = self_of(lambda n, c: (n, c) == ("sim.checkpoint", "sim"))
    share = (lambda x: x / busy) if busy > 0 else (lambda x: 0.0)
    metrics = {
        "trace.self.dd_s": self_of(program("dd")),
        "trace.self.sim_s": self_of(program("sim")),
        "trace.self.serve_s": self_of(program("serve")),
        "trace.self.router_s": self_of(program("router")),
        "trace.self.client_s": self_of(lambda n, c: c == "bench"),
        "trace.busy_s": busy,
        "trace.share.dd_kernels": share(kernels),
        "trace.share.setup_serve": share(setup_serve),
        "trace.share.checkpoint": share(checkpoint),
        "trace.gap_ratio": abs(root["track_self_s"] - traced_wall_s) /
                           traced_wall_s if traced_wall_s > 0 else 0.0,
    }
    table = ["self-time table (traced half; busy = %.3f s in job spans, "
             "client track self sum %.4f s vs traced wall %.4f s)"
             % (busy, root["track_self_s"], traced_wall_s),
             "%-26s %-7s %9s %11s %11s %8s" % ("span", "cat", "count",
                                             "total_s", "self_s", "%busy")]
    for (name, cat), (count, total, selfs) in sorted(
            rows.items(), key=lambda kv: -kv[1][2]):
        table.append("%-26s %-7s %9d %11.4f %11.4f %7.1f%%"
                     % (name, cat, count, total, selfs,
                        100.0 * share(selfs)))
    return metrics, table


# --------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    work = os.path.join(build_root, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--work-dir", work],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("perfbench exited with code %d" % proc.returncode)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = report["metrics"]
        if args.trace:
            trace_metrics, table = reduce_trace(
                os.path.join(work, "trace.json"), raw["obs.traced_wall_s"])
            raw.update(trace_metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = int(report["attempted"]), int(report["failed"])
    raw["failed_ratio"] = failed / attempted if attempted else 1.0
    prov = dict(report["provenance"], **provenance_extra())
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("latency samples: %d" % raw["samples.latency"])
    for flag in report["rate_flags"]:
        print("known defect: %s read outside [0,1] %d times (max %s)"
              % (flag["name"], flag["readings_outside_0_1"], flag["max"]))
    for why in report["failures"]:
        print("failure: " + why)
    if args.trace:
        print("\n".join(table))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in raw:
            value = raw[name]
        elif name in NOT_EXERCISED[args.workload]:
            value = 0
        else:
            fail("perfbench did not report " + name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
