#!/usr/bin/env python3
"""The repo benchmark: builds the simulator, runs one workload, checks it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first run configures and builds
perfbench/ (Release) under .bench_build/perfbench/.  Each sample is one
ufab_perfbench process started with a scrubbed environment, so no UFAB_*
knob reaches the program being measured.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
README.md next to this file explains the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
OUT = os.path.join(WORK, "out")
BINARY = os.path.join(BUILD, "ufab_perfbench")

# Samples stop this many seconds after the run starts, hung or not, so that
# a run always exits within its 180 s budget.
RUN_DEADLINE_S = 150

# A workload is a list of cells (one simulation each, seeded from --seed),
# run in rounds until --seconds are used.  Websearch cells are split over
# distinct sub-seeds because one cell's work swings with the heavy-tailed
# flow sizes; cell_s, the expected seconds per sample on a 4-CPU host, sets
# the number of cells from --seconds, so the work mix of a run never depends
# on how fast the program is.  rpc_testbed varies little across seeds and
# repeats one cell.
WORKLOADS = {
    "websearch_serial": {"default_seed": 41, "cell_s": 0.55},
    "websearch_sharded": {"default_seed": 41, "cell_s": 0.25},
    "rpc_testbed": {"default_seed": 17, "cell_s": None},
}
# Rounds every run makes, even past --seconds: split cells need two to check
# that repeats agree, a single cell three for its median.
SPLIT_MIN_ROUNDS = 2
SINGLE_MIN_ROUNDS = 3
SUBSEED_STRIDE = 1000003

# Every host time is reported on a reference host: one that runs the
# calibration kernel in ufab_perfbench.cpp in CALIB_REF_S.  Each sample times
# that kernel right after its own simulation, so a host that slows down for a
# while (other tenants, clock changes) slows the kernel too, and the scaled
# time stays put.  The raw host times are printed and kept with the results.
CALIB_REF_S = 0.05

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "hop_gbit_per_s": "Gbit/s",
    "peak_rss_mb": "MB",
}

PROF_SCOPES = ["dispatch_deliver", "dispatch_closure", "queue_pop", "wfq", "telemetry",
               "mailbox_post", "mailbox_inject", "barrier_wait"]

PER_LAYER = {
    "sim.run_s": "s", "sim.events": "count", "sim.ns_per_event": "ns",
    "sim.link_gbit": "Gbit", "sim.drops": "count", "sim.pool_hwm": "count",
    "sim.pending_end": "count",
    **{f"prof.{s}.ns_per_call": "ns" for s in PROF_SCOPES},
    **{f"prof.{s}.share": "fraction" for s in PROF_SCOPES},
    "trace.overhead_pct": "%",
    "shard.crossings": "count", "shard.barrier_wait_s": "s", "shard.events_imbalance": "ratio",
    "shard.mailbox_flushes": "count", "shard.handoff_max_batch": "count",
    "prof.stall_fraction": "fraction",
    "topo.build_s": "s", "topo.partition_s": "s", "topo.cut_links": "count",
    "harness.install_scheme_s": "s",
    "telemetry.active_pairs_max": "count", "telemetry.fp_omissions": "count",
    "telemetry.suppressed_records": "count",
    "ufab.probes_sent": "count", "ufab.probe_byte_frac": "fraction",
    "ufab.migrations": "count", "ufab.probe_timeouts": "count",
    "transport.retransmits": "count", "transport.rtt_samples": "count",
    "workload.setup_s": "s", "workload.flows_started": "count",
    "workload.flows_completed": "count", "workload.rpc_completed": "count",
    "stats.results_s": "s", "stats.rtt_samples": "count",
    "obs.recorded_events": "count", "obs.snapshot_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def scrubbed_env():
    """Only what a process needs to start; no UFAB_* knob survives."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C"}


def build():
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(WORK, "build.log")
    env = {k: v for k, v in os.environ.items() if not k.startswith("UFAB_")}
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = []  # The cache already names its generator.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
             ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    with open(build_log, "a") as logf:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT, env=env)
            if rc != 0:
                log(f"perfbench: build step failed ({' '.join(cmd)}); see {build_log}")
                sys.exit(1)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_record(workload, seed):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    commit = "unknown"  # A source checkout without .git has no commit to name.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=30)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    build_type = cache_value("CMAKE_BUILD_TYPE")
    flags = " ".join(x for x in (cache_value("CMAKE_CXX_FLAGS"),
                                 cache_value("CMAKE_CXX_FLAGS_" + build_type.upper())) if x)
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
        "compiler_version": version, "commit": commit, "build_type": build_type,
        "cxx_flags": flags + " -Wall -Wextra", "workload": workload, "seed": seed,
        "scrubbed_knobs": sorted(k for k in os.environ if k.startswith("UFAB_")),
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_sample(name, seed, trace, checks, deadline):
    """One ufab_perfbench process; returns its record or None if it died."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed), "--out-dir", OUT,
           "--trace", "1" if trace else "0"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=scrubbed_env(), cwd=ROOT,
                           timeout=max(deadline - time.monotonic(), 0.001))
    except subprocess.TimeoutExpired:
        checks.add(f"{name}/seed{seed}: sample finished before the run deadline", False)
        return None
    lines = r.stdout.strip().splitlines()
    rec = None
    if r.returncode == 0 and lines:
        try:
            rec = json.loads(lines[-1])
        except json.JSONDecodeError:
            rec = None
    # A UFAB_CHECK abort (or any crash) is a failed run, not a missing sample.
    checks.add(f"{name}/seed{seed}: sample finished", rec is not None)
    if rec is None:
        log(f"perfbench: {name} seed {seed} exited {r.returncode}: {r.stderr.strip()[-400:]}")
        return None
    for check, ok in rec["checks"].items():
        checks.add(f"{name}/seed{seed}: {check}", ok)
    to_reference_host(rec)
    return rec


def to_reference_host(rec):
    """Scales a sample's host times by CALIB_REF_S / its kernel time."""
    f = CALIB_REF_S / rec["calib_s"]
    rec["raw_wall_s"] = rec["wall_s"]
    rec["wall_s"] *= f
    rec["setup_s"] *= f
    for k in rec["timings"]:
        rec["timings"][k] *= f
    for k in rec["prof"]:
        if k.endswith(".ns_per_call"):
            rec["prof"][k] *= f


def plan(workload, seed, seconds):
    """The run's cell seeds and its minimum number of rounds."""
    cell_s = WORKLOADS[workload]["cell_s"]
    if cell_s is None:
        return [seed], SINGLE_MIN_ROUNDS
    cells = max(2, round(seconds / (SPLIT_MIN_ROUNDS * cell_s)))
    return [seed + i * SUBSEED_STRIDE for i in range(cells)], SPLIT_MIN_ROUNDS


def run_workload(workload, seed, seconds, trace, checks):
    """Returns {cell seed: [sample records]}, traced samples flagged."""
    cells, min_rounds = plan(workload, seed, seconds)
    samples = {c: [] for c in cells}
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    r = 0
    while True:
        # Only whole rounds, so every cell keeps the same weight; stop when
        # another one would overrun --seconds.
        elapsed = time.monotonic() - start
        if r >= min_rounds and elapsed + elapsed / r > seconds:
            break
        # In a traced run every other round is traced, so each cell has an
        # untraced twin to check passivity and price the tracing against.
        traced = trace and r % 2 == 1
        for c in cells:
            rec = run_sample(workload, c, traced, checks, deadline)
            if rec is not None:
                rec["traced"] = traced
                samples[c].append(rec)
        r += 1
    if workload == "websearch_sharded":
        # The 4-shard schedule must equal a 1-shard canonical run of the cell.
        ref = run_sample("websearch_canonical1", cells[0], False, checks, deadline)
        got = samples[cells[0]]
        checks.add("websearch_sharded: digest equals 1-shard canonical",
                   ref is not None and bool(got) and got[0]["digest"] == ref["digest"])
    for c, recs in samples.items():
        same = len({(s["digest"], s["counts"].get("sim.events")) for s in recs}) == 1
        checks.add(f"{workload}/seed{c}: repeats give one digest and event count",
                   len(recs) >= 2 and same)
        if trace:
            plain = {s["digest"] for s in recs if not s["traced"]}
            traced = {s["digest"] for s in recs if s["traced"]}
            checks.add(f"{workload}/seed{c}: traced digest equals untraced",
                       bool(plain) and plain == traced)
    return samples


def end_to_end(samples):
    """Each sample is priced in seconds per simulated Gbit, so that the
    samples of all cells share one median; a burst of host contention then
    moves it only if the burst covers half the run.  wall_s is that median
    times the run's mean Gbit per cell.  setup_s and peak_rss_mb are medians
    over all samples.  Also returns the raw host seconds per Gbit."""
    recs = [s for cell in samples.values() for s in cell]
    if not recs:
        return dict.fromkeys(END_TO_END, 0.0), 0.0
    s_per_gbit = statistics.median(s["wall_s"] / s["link_gbit"] for s in recs)
    gbit = statistics.mean(cell[0]["link_gbit"] for cell in samples.values() if cell)
    raw_s_per_gbit = statistics.median(s["raw_wall_s"] / s["link_gbit"] for s in recs)
    return {
        "wall_s": s_per_gbit * gbit,
        "setup_s": statistics.median(s["setup_s"] for s in recs),
        "hop_gbit_per_s": 1.0 / s_per_gbit,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in recs),
    }, raw_s_per_gbit * gbit


def per_layer(samples):
    traced = [s for recs in samples.values() for s in recs if s["traced"]]
    plain = [s for recs in samples.values() for s in recs if not s["traced"]]
    flat = []
    for s in traced:
        f = {**s["counts"], **s["timings"], **s["prof"]}
        ev = f.get("sim.events", 0)
        f["sim.ns_per_event"] = f["sim.run_s"] * 1e9 / ev if ev else 0.0
        flat.append(f)
    values = {}
    for name in PER_LAYER:
        per_sample = [f.get(name, 0.0) for f in flat]
        if any(k in name for k in ("max", "hwm", "peak")):
            values[name] = max(per_sample, default=0.0)
        else:
            values[name] = sum(per_sample) / len(per_sample) if per_sample else 0.0
    if traced and plain:
        t_wall = statistics.mean(s["wall_s"] for s in traced)
        p_wall = statistics.mean(s["wall_s"] for s in plain)
        values["trace.overhead_pct"] = (t_wall / p_wall - 1.0) * 100.0
    return values, len(traced)


def outcome(samples):
    recs = [s for recs in samples.values() for s in recs]
    if not recs:
        return {}
    keys = sorted({k for s in recs for k in s["outcome"]})
    out = {k: statistics.mean(s["outcome"][k] for s in recs if k in s["outcome"])
           for k in keys}
    out["outcome.digest"] = [recs[0]["digest"] for recs in samples.values() if recs]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload]["default_seed"]

    build()
    os.makedirs(OUT, exist_ok=True)
    host = host_record(args.workload, seed)
    print("host " + json.dumps(host, sort_keys=True))

    checks = Checks()
    samples = run_workload(args.workload, seed, args.seconds, bool(args.trace), checks)
    if args.trace:
        values, n = per_layer(samples)
        units = PER_LAYER
        basis = f"{n} traced samples"
    else:
        values, raw_wall = end_to_end(samples)
        units = END_TO_END
        calib = [s["calib_s"] for recs in samples.values() for s in recs]
        n = len(calib)
        basis = (f"{n} samples over {len(samples)} cells; host times on the reference "
                 f"host; raw wall_s {raw_wall:.6g} s, kernel median "
                 f"{statistics.median(calib) if calib else 0.0:.6g} s vs {CALIB_REF_S} s")

    check_fail_frac = len(checks.failed) / max(checks.attempted, 1)
    for name in sorted(set(checks.failed)):
        log(f"perfbench: FAILED check ({checks.failed.count(name)}x): {name}")
    print(f"{args.workload} seed={seed} ({basis})")
    for name in units:
        print(f"  {name:32s} {values[name]:.6g} {units[name]}")
    print(f"  {'check_fail_frac':32s} {check_fail_frac:.6g} fraction "
          f"({len(checks.failed)} of {checks.attempted} checks failed)")
    print("outcome " + json.dumps(outcome(samples), sort_keys=True))

    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = f"{args.workload}.seed{seed}.trace{args.trace}.json"
    with open(os.path.join(WORK, "results", stamp), "w") as f:
        json.dump({"host": host, "result": result, "samples": samples}, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
