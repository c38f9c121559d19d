#!/usr/bin/env python3
"""uFAB install footprint: install seconds and peak RSS per topology.

Usage:
    scripts/install_footprint.py [--build-dir build] [--label after]
                                 [--out BENCH_engine.json]

Runs, each in a fresh child process:

  * bench/install_footprint 8 and 16 — a bare k=8 / k=16 FatTree (1:2
    oversubscribed) with uFAB installed and no traffic: install wall seconds
    (timed inside the program) and the process's peak RSS;
  * bench/fig17_large_scale with UFAB_FIG17_K=8 UFAB_FIG17_ONLY=uFAB,1,0.5
    UFAB_JOBS=1 UFAB_OBS=0 — one k=8 fig17 cell: peak RSS.

Peak RSS comes from resource.getrusage(RUSAGE_CHILDREN) taken in a helper
Python process that waits for exactly one child, so every figure covers one
program run.  The figures land in the output JSON's
"ufab_install_footprint" block under --label (other labels are kept, so a
"before" run from the parent commit's build sits next to "after").  Stdlib
only.
"""

import argparse
import json
import os
import resource
import subprocess
import sys


def child_main(argv):
    """Runs argv, echoes its stdout, then prints the children's peak RSS."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    sys.stdout.write(proc.stdout)
    # ru_maxrss is in KiB on Linux.
    print("peak_rss_kib=%d" % resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def measure(argv, env=None):
    """Returns (program stdout lines, peak RSS in MB) of one fresh run."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", "--"] + argv,
                         stdout=subprocess.PIPE, text=True, check=True,
                         env=dict(os.environ, **(env or {})))
    lines = out.stdout.splitlines()
    rss_kib = int(lines[-1].split("=", 1)[1])
    return lines[:-1], round(rss_kib / 1024.0, 1)


def bare_install(build_dir, k):
    lines, rss_mb = measure([os.path.join(build_dir, "bench", "install_footprint"), str(k)])
    fields = dict(f.split("=", 1) for f in lines[-1].split())
    return {"install_s": float(fields["install_s"]), "peak_rss_mb": rss_mb,
            "core_agents": int(fields["core_agents"]),
            "bloom_bytes": int(fields["bloom_bytes"])}


def main():
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        child_main(sys.argv[3:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--label", default="after")
    ap.add_argument("--out", default="BENCH_engine.json")
    args = ap.parse_args()

    run = {"bare_k8": bare_install(args.build_dir, 8),
           "bare_k16": bare_install(args.build_dir, 16)}
    _, rss_mb = measure([os.path.join(args.build_dir, "bench", "fig17_large_scale")],
                        {"UFAB_FIG17_K": "8", "UFAB_FIG17_ONLY": "uFAB,1,0.5",
                         "UFAB_JOBS": "1", "UFAB_OBS": "0"})
    run["fig17_k8_cell"] = {"peak_rss_mb": rss_mb}
    print(json.dumps({args.label: run}, indent=2, sort_keys=True))

    doc = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as f:
            doc = json.load(f)
    block = doc.get("ufab_install_footprint") or {}
    block["workload"] = ("uFAB install on a bare 1:2 FatTree (bench/install_footprint k), "
                         "and one fig17 k=8 cell uFAB,1,0.5; peak RSS per process from "
                         "getrusage(RUSAGE_CHILDREN)")
    block.setdefault("runs", {}).setdefault(args.label, {}).update(run)
    doc["ufab_install_footprint"] = block
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
