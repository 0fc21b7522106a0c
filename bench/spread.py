"""Run the benchmark over several seeds and summarise the run-to-run spread.

    python3 bench/spread.py --seeds 1-10 --seconds 25 --trace --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and for
each end-to-end metric prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  With ``--trace``
it also makes one traced run per workload, on the first seed.  ``--out``
writes everything, with each workload's parameters and instance list, as
JSON, replacing the entries of the workloads run and keeping the others.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), proc.returncode,
                                                  proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def provenance(workload, seed):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    plan = workloads.PLANS[workload](seed, os.path.join(HERE, ".work", "provenance"))
    try:
        return {
            "why": why[workload],
            "params": plan.params,
            "op_limit_s": workloads.OP_LIMIT_S[workload],
            "baseline_pass_s": workloads.PASS_S[workload],
            "operations_per_pass": len(plan.ops),
            "instances": [inst.describe() for inst in plan.instances],
        }
    finally:
        if plan.workdir:
            shutil.rmtree(plan.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(plan.workdir))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="cover-copath,cover-random,report-oracle,cli-files")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    report = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in names}
        for name, s in summary.items():
            print("  %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.3f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"]), flush=True)
        entry = {
            "seconds": args.seconds,
            "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for seed, r in zip(seeds, runs)],
            "summary": summary,
        }
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["traced_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry.update(provenance(workload, seeds[0]))
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
