"""Steadiness check: two interleaved sets of benchmark runs of the same code.

Usage (from the repository root):

  python3 perfbench/steady.py [--runs 10] [--workloads w1,w2] [--first-seed 1]

Set A runs seeds first-seed .. first-seed+runs-1 and set B the next `runs`
seeds; their runs alternate, and which set goes first alternates too. For
every workload and end-to-end metric it prints each set's median, quartiles
and spread (quartile distance / median), and whether the two medians agree
within the metric's bound in BENCHMARK.json. Every run lasts BENCHMARK.json's
run_seconds. The bounds were set from this output; each spread must stay
within its bound. The raw results go to perfbench/out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                seed = args.first_seed + i + (args.runs if label == "B" else 0)
                out = one_run(w, seed, bench["run_seconds"])
                results[w][label].append(dict(out, seed=seed))
                print(f"# {w} set {label} seed {seed}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                      flush=True)

    steady = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<16}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>8}  verdict")
        for name, meta in bounds.items():
            sets = {s: summary([r["metrics"][name]["value"] for r in results[w][s]])
                    for s in ("A", "B")}
            a, b = sets["A"]["median"], sets["B"]["median"]
            shift = abs(b - a) / a if a else 0.0
            spread_ok = all(s["spread"] <= meta["bound"] for s in sets.values())
            agree = shift <= meta["bound"]
            steady &= spread_ok and agree
            for s, row in sets.items():
                verdict = ""
                if s == "B":
                    verdict = (f"medians {'agree' if agree else 'DISAGREE'} "
                               f"(shift {shift:.2%}), spread {'ok' if spread_ok else 'TOO WIDE'}")
                print(f"  {name:<16}{s:>4}{row['median']:>12.6g}{row['q1']:>12.6g}"
                      f"{row['q3']:>12.6g}{row['spread']:>9.2%}{meta['bound']:>8.2f}  {verdict}")
        shares = {s: [r["failed"] / r["attempted"] for r in results[w][s]] for s in ("A", "B")}
        same_share = sum(shares["A"]) / len(shares["A"]) == sum(shares["B"]) / len(shares["B"])
        steady &= same_share and all(r["correct"] for s in ("A", "B") for r in results[w][s])
        print(f"  failed share A {shares['A']}, B {shares['B']}: "
              f"{'equal' if same_share else 'DIFFERENT'}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
