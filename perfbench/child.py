"""One fresh-process run of a benchmark workload.

Usage: python3 perfbench/child.py SPEC.json T_SPAWN

SPEC names the workload and its input and output paths; T_SPAWN is the
parent's `time.monotonic()` just before it started this process. The child
imports numpy, then the memlabel module the workload calls (with whatever
memlabel itself imports), runs the workload's timed operation once and
writes RESULT.json next to SPEC:

  setup_s       process start (T_SPAWN) to the start of the timed operation
  run_s         wall time of the timed operation
  cpu_s         user + system CPU of this process, all threads, during it
  peak_rss_mib  peak resident set size of this process
  imports       seconds spent importing numpy, then memlabel

With `setup_only` the child stops before the timed operation. With `trace`
it records spans during the operation (see tracing.py) into spans.npz. Only
the standard library is imported before the timed imports.
"""

import json
import os
import resource
import sys
import time


def train_default(spec):
    import memlabel.cli
    return memlabel.cli.main(["train", "--config", spec["config"],
                              "--seed", str(spec["seed"]), "--out", spec["out"]])


def predict_eval_n2048(spec):
    import memlabel.cli
    for command in ("predict-labels", "eval"):
        code = memlabel.cli.main([command, "--config", spec["config"], "--out", spec["out"]])
        if code != 0:
            return code
    return 0


def train_single_n2048(spec):
    import numpy as np
    import memlabel.config
    import memlabel.data
    import memlabel.experiments
    import memlabel.trainer

    cfg = memlabel.config.load_config(spec["config"])
    inputs = np.load(spec["inputs"])
    obs, ids = inputs["observations"], inputs["identities"]
    result = memlabel.trainer.train(obs, cfg.schedule(), cfg.loss_config(),
                                    cfg.predictor_config(), cfg.augment_config())
    records = [memlabel.data.SampleRecord(i, obs[i], int(ids[i])) for i in range(len(obs))]
    report = memlabel.experiments.evaluate_model(result.model, records)
    return result, report


def save_single(spec, outcome):
    """Write train_single_n2048's outputs for the checks: the model, the bank
    rows, labels and reported metrics."""
    import numpy as np

    result, report = outcome
    result.model.save(os.path.join(spec["out"], "model.npz"))
    np.save(os.path.join(spec["out"], "bank.npy"), result.bank.features)
    with open(os.path.join(spec["out"], "labels.csv"), "w") as fh:
        for lab in result.labels:
            fh.write(f"{lab.anchor}: " + " ".join(map(str, lab.positives)) + "\n")
    with open(os.path.join(spec["out"], "report.json"), "w") as fh:
        json.dump({"rank1": report.rank(1), "mAP": report.map,
                   "skipped_queries": report.skipped_queries}, fh)


OPERATIONS = {
    "train_default": train_default,
    "train_single_n2048": train_single_n2048,
    "predict_eval_n2048": predict_eval_n2048,
}


def main(spec_path, t_spawn):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    if spec["workload"] == "train_single_n2048":
        import memlabel.experiments  # noqa: F401
    else:
        import memlabel.cli  # noqa: F401
    t2 = time.perf_counter()
    out = {"imports": {"numpy": t1 - t0, "memlabel": t2 - t1}}
    result_path = os.path.join(os.path.dirname(spec_path), "result.json")
    if spec.get("setup_only"):
        out["setup_s"] = time.monotonic() - t_spawn
        with open(result_path, "w") as fh:
            json.dump(out, fh)
        return 0

    recorder = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        recorder = tracing.Recorder()
        recorder.install()
    operation = OPERATIONS[spec["workload"]]

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    outcome = operation(spec)
    end = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    out.update(
        setup_s=start - t_spawn,
        run_s=end - start,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mib=usage1.ru_maxrss / 1024.0,
    )
    if recorder is not None:
        recorder.save(os.path.join(spec["out"], "spans.npz"))  # spans of the operation only
    if isinstance(outcome, int):
        if outcome != 0:
            print(f"operation exited with code {outcome}", file=sys.stderr)
            return 1
    else:
        save_single(spec, outcome)
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
