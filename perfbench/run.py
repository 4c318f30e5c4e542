"""memlabel benchmark: run one workload and print its metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload train_default --seed 1 --seconds 38 --trace 0

Each run of the workload's operation is a fresh `python3 perfbench/child.py`
process, one at a time, importing memlabel from `src/`. Runs repeat while
their wall time fits in --seconds, at least MIN_RUNS of them. After each run
a process that only sets up is started (a start-up probe), and more probes
follow the last run until there are SETUP_SAMPLES start-ups, so `setup_s` is
a median of many. The outputs of every run are checked against oracles.py.

--trace 0 prints the end-to-end metrics, medians over the runs. --trace 1
makes the same untraced runs, then one traced run, and prints the per-layer
metrics of the traced run; they are also merged into perfbench/out/trace.json
under the workload's name.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_RUNS = 3
SETUP_SAMPLES = 12  # start-ups behind the setup_s median, runs included
CHILD_TIMEOUT_S = 60  # a run takes ~5-7 s; a hung one must not outlast the invocation


def spawn(work, tag, spec, python_flags=()):
    """Run child.py once in a fresh process; returns (run dir, result or
    None if the process failed, its stderr)."""
    run_dir = os.path.join(work, tag)
    os.makedirs(run_dir)
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(dict(spec, out=run_dir), fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *python_flags, os.path.join(HERE, "child.py"), spec_path,
             repr(t_spawn)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return run_dir, None, f"timed out after {exc.timeout} s"
    result_path = os.path.join(run_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        return run_dir, None, proc.stderr
    with open(result_path) as fh:
        return run_dir, json.load(fh), proc.stderr


def measure(work, spec, seconds):
    """Untraced runs, each followed by a start-up probe, while they fit in
    `seconds`; then probes until there are SETUP_SAMPLES start-ups. Returns
    (runs, setup samples, import samples, failures), where runs holds
    (run dir, result, stderr) of the runs that completed."""
    runs, setups, imports, failures = [], [], [], []
    probes = itertools.count()

    def started(result):
        if result is not None:
            setups.append(result["setup_s"])
            imports.append(result["imports"])
        return result

    def probe():
        started(spawn(work, f"probe{next(probes)}", dict(spec, setup_only=True))[1])

    spawn(work, "warmup", dict(spec, setup_only=True))  # fills __pycache__ and the page cache
    begin = time.monotonic()
    while True:
        attempted = len(runs) + len(failures)
        elapsed = time.monotonic() - begin
        if attempted >= MIN_RUNS and elapsed * (attempted + 1) / attempted > seconds:
            break
        run_dir, result, stderr = spawn(work, f"run{attempted}", spec)
        if started(result) is None:
            failures.append((stderr.strip().splitlines() or ["no result"])[-1])
        else:
            runs.append((run_dir, result, stderr))
        probe()
    for _ in range(SETUP_SAMPLES - len(setups) if runs else 0):
        probe()
    return runs, setups, imports, failures


def check(workload, spec, run_dir, stderr):
    """Failures, quality metrics and notes of one run's outputs."""
    try:
        return workloads.CHECKS[workload](run_dir, spec, stderr)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}, {}


def traced_metrics(workload, work, spec, runs, imports):
    """Per-layer metrics of one traced run, plus trace.overhead_s. The numpy
    and memlabel import times are medians over the untraced processes; the
    scipy.special share of memlabel's comes from the traced process's
    `-X importtime` report, and reads 0 if memlabel does not import it."""
    run_dir, result, stderr = spawn(work, "traced", dict(spec, trace=True),
                                    python_flags=("-X", "importtime"))
    if result is None:
        return None, [f"traced run failed: {stderr.strip()[-300:]}"]
    failures, _, _ = check(workload, spec, run_dir, stderr)
    median_imports = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
    median_imports["scipy_special"] = tracing.import_time_s(stderr, "scipy.special")
    metrics = tracing.layer_metrics(os.path.join(run_dir, "spans.npz"), median_imports)
    metrics["trace.overhead_s"] = result["run_s"] - statistics.median(r["run_s"] for _, r, _ in runs)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "trace.json")
    saved = {}
    if os.path.exists(trace_path):
        with open(trace_path) as fh:
            saved = json.load(fh)
    saved[workload] = {"seed": spec["seed"], "metrics": metrics}
    with open(trace_path, "w") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True)
    return metrics, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/memlabel/__init__.py", "configs/default.cfg"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a memlabel checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    seed = args.seed % 2**32
    work = os.path.join(OUT, f"{args.workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = dict(workloads.prepare(args.workload, ROOT, work, seed),
                    workload=args.workload, seed=seed)
        runs, setups, imports, failed = measure(work, spec, args.seconds)
        if not runs:
            print(f"error: every run failed: {failed}", file=sys.stderr)
            return 1
        problems, quality = [], []
        for run_dir, _, stderr in runs:
            failures, values, notes = check(args.workload, spec, run_dir, stderr)
            problems += failures
            quality.append(values)
            if notes:
                print(f"{os.path.basename(run_dir)}: {json.dumps(notes, sort_keys=True)}")
        attempted = len(runs) + len(failed)
        if args.trace:
            metrics, failures = traced_metrics(args.workload, work, spec, runs, imports)
            attempted += 1
            if metrics is None:
                failed += failures
            problems += failures
            values = {} if metrics is None else metrics
        else:
            timed = {"setup_s": setups}
            for key in ("run_s", "cpu_s", "peak_rss_mib"):
                timed[key] = [r[key] for _, r, _ in runs]
            for key in ("mAP", "label_precision", "label_recall"):
                timed[key] = [q[key] for q in quality if key in q]
            values = {k: statistics.median(v) for k, v in timed.items() if v}
        for key in ("setup_s", "run_s", "cpu_s"):
            samples = setups if key == "setup_s" else [r[key] for _, r, _ in runs]
            print(f"{key}: " + " ".join(f"{v:.4f}" for v in samples))
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(f"{args.workload} seed {seed}: {len(runs)} runs, {len(setups)} start-ups, "
              f"{len(failed)} failed, {len(problems)} check failures")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
