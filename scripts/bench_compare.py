#!/usr/bin/env python3
"""Compare two checkouts on the ALPS call benchmark (perfbench/run.py).

    python3 scripts/bench_compare.py --base ../parent --change . \\
        --workloads dict_rpc --seed 1 --pairs 10 [--trace 0] [--save runs.json]
    python3 scripts/bench_compare.py --load runs.json

Each pair runs `python3 perfbench/run.py` once in each checkout, one after
the other, for BENCHMARK.json's run_seconds; which side goes first alternates
from pair to pair. The first run in a checkout also builds its benchmark
binary (run.py does that itself).
This script only reads run.py's two output lines; it writes nothing into
either checkout beyond what run.py writes there.

For every workload and metric it prints each side's median and quartiles
and how many pairs the change won (ties, and pairs where either run failed,
count for neither side), and for every run its steal ticks, failed calls and
correctness. With --trace 0 the metrics are BENCHMARK.json's end-to-end ones
and each gets a verdict:

  gain        the change won at least 9 in 10 of the pairs run and its median
              is better than the base median by more than the base's
              interquartile range;
  unresolved  either side's interquartile range is wider than the metric's
              bound in BENCHMARK.json, and not every change run beats every
              base run: the runs cannot tell a change within the bound;
  regression  the change's median is worse than the base's by more than the
              bound;
  holds       none of the above.

The exit status is 1 when any metric is a regression, or when a run failed
or was incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print(f"bench_compare: {msg}", file=sys.stderr, flush=True)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns {context, correct, failed, attempted,
    metrics: {name: value}} or None when run.py itself failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        log(f"{checkout}: run.py exited {r.returncode}\n{r.stderr[-2000:]}")
        return None
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return {
        "context": context,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(base, change, pairs, spec):
    """Applies the rule in the module docstring to one metric's runs: `base`
    and `change` hold the pairs where both runs succeeded, out of `pairs`
    run."""
    direction, bound = spec["better"], spec.get("bound")
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(c, b, direction) for b, c in zip(base, change))
    # Signed relative change, positive = worse.
    worse = (cmed - bmed) / bmed if bmed else 0.0
    if direction == "higher":
        worse = -worse
    if (wins * 10 >= pairs * 9 and better(cmed, bmed, direction) and
            abs(cmed - bmed) > bq3 - bq1):
        v = "gain"
    elif bound is not None and bmed and cmed and (
            (bq3 - bq1) / bmed > bound or (cq3 - cq1) / cmed > bound) and \
            not all(better(c, b, direction) for c in change for b in base):
        v = "unresolved"
    elif bound is not None and worse > bound:
        v = "regression"
    else:
        v = "holds"
    return {"base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
            "wins": wins, "pairs": pairs, "delta": -worse if direction ==
            "higher" else worse, "verdict": v}


def fmt(x):
    return f"{x:.4g}"


def report(runs, specs):
    """Prints the tables; returns True when the comparison passes."""
    ok = True
    for workload, sides in runs.items():
        print(f"\n== {workload}: {len(sides['base'])} base, "
              f"{len(sides['change'])} change runs ==")
        for side in ("base", "change"):
            for i, r in enumerate(sides[side]):
                if r is None:
                    print(f"  {side:6} run {i}: FAILED to run")
                    ok = False
                    continue
                steal = r["context"].get("steal_ticks", float("nan"))
                print(f"  {side:6} run {i}: steal_ticks={steal:.0f} "
                      f"failed={r['failed']}/{r['attempted']} "
                      f"correct={r['correct']}")
                ok &= bool(r["correct"]) and r["failed"] == 0
        print(f"  {'metric':38} {'base median [q1, q3]':>28} "
              f"{'change median [q1, q3]':>28} {'delta':>8} {'wins':>6}  "
              "verdict")
        for spec in specs:
            name = spec["name"]
            pairs = [(b["metrics"][name], c["metrics"][name])
                     for b, c in zip(sides["base"], sides["change"])
                     if b and c and name in b["metrics"] and
                     name in c["metrics"]]
            if not pairs:
                continue
            run = min(len(sides["base"]), len(sides["change"]))
            v = verdict([p[0] for p in pairs], [p[1] for p in pairs], run,
                        spec)
            b, c = v["base"], v["change"]
            print(f"  {name:38} {fmt(b[1]):>10} [{fmt(b[0])}, {fmt(b[2])}]"
                  f"{'':>2} {fmt(c[1]):>10} [{fmt(c[0])}, {fmt(c[2])}]"
                  f"{'':>2} {v['delta'] * 100:+7.1f}% "
                  f"{v['wins']:>2}/{v['pairs']:<2}  {v['verdict']}")
            if v["verdict"] == "regression":
                ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workloads", default="rw_mix,dict_zipf,dict_rpc")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write every run to this JSON file")
    ap.add_argument("--load", help="report on runs saved with --save")
    args = ap.parse_args()

    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
        runs, trace = saved["runs"], saved["trace"]
    else:
        if not (args.base and args.change):
            ap.error("--base and --change are required unless --load is given")
        with open(os.path.join(args.change, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        trace = args.trace
        runs = {}
        for w in args.workloads.split(","):
            runs[w] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    checkout = args.base if side == "base" else args.change
                    log(f"{w} pair {i + 1}/{args.pairs}: {side}")
                    runs[w][side].append(
                        run_once(checkout, w, args.seed, seconds, trace))
                if args.save:
                    with open(args.save, "w") as f:
                        json.dump({"runs": runs, "trace": trace,
                                   "seed": args.seed, "base": args.base,
                                   "change": args.change}, f, indent=1)

    # The benchmark's own spec; a change may not edit it, so either side's
    # copy is the same.
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return 0 if report(runs, specs) else 1


if __name__ == "__main__":
    sys.exit(main())
