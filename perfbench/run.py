#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload query --seed 1 --seconds 12 --trace 0

One workload runs in one process (the Go program in this directory); the
last line of standard output is its JSON result. Without --workload the
three workloads run one after another, each in its own process. With
--repeat N each chosen workload runs N times on seeds seed..seed+N-1 and
the median and quartiles of every metric are printed, so that bounds can
be set from measured spread.

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binary and the
databases.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["ingest", "query", "mixed-http"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("no go.mod at %s: run from the root of a full checkout" % root)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off")
    binary = os.path.join(out, "perfbench", "perfbench")
    r = subprocess.run(["go", "build", "-o", binary, "."],
                       cwd=os.path.join(root, "perfbench"), env=env)
    if r.returncode != 0:
        fail("build failed")
    return binary


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns its parsed result."""
    r = subprocess.run([binary, "-workload", workload, "-seed", str(seed),
                        "-seconds", str(seconds), "-trace", str(trace),
                        "-dir", os.path.join(".bench_build", "perfbench-data")],
                       stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode != 0:
        fail("%s seed %d exited with %d" % (workload, seed, r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("%s seed %d printed no result" % (workload, seed))
    return json.loads(lines[-1])


def summarize(workload, results):
    """Prints the median and quartiles of each metric over repeated runs."""
    names = sorted(results[0]["metrics"])
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    print("# %s: %d runs, attempted %s, failed %s" % (workload, len(results), attempted, failed))
    print("#   %-36s %14s %14s %14s %8s  runs" % ("metric", "q1", "median", "q3", "iqr/med"))
    summary = {}
    for n in names:
        vals = [r["metrics"][n]["value"] for r in results]
        med = statistics.median(vals)
        if len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][n]["unit"]
        print("#   %-36s %14.4f %14.4f %14.4f %8.4f  %s %s" % (
            n, q1, med, q3, spread, " ".join("%.4g" % v for v in vals), unit))
        summary[n] = {"value": med, "unit": unit, "q1": q1, "q3": q3}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(attempted),
        "failed": sum(failed),
        "metrics": summary,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, on successive seeds")
    args = ap.parse_args()

    binary = build(os.getcwd())
    workloads = [args.workload] if args.workload else WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        if args.repeat > 1:
            results = [run_one(binary, w, args.seed + i, args.seconds, args.trace, echo=False)
                       for i in range(args.repeat)]
            res = summarize(w, results)
        else:
            res = run_one(binary, w, args.seed, args.seconds, args.trace)
            if len(workloads) == 1:
                return  # the child's own last line is the result
        if len(workloads) == 1:
            print(json.dumps(res))
            return
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for n, m in res["metrics"].items():
            combined["metrics"][w + "/" + n] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
