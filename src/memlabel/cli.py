"""Command-line surface.

Subcommands: generate, train, predict-labels, eval, grad-sweep, param-sweep.
Every command accepts --config FILE, --seed INT and --out DIR; the MEMLABEL_OUT
environment variable overrides the output directory. Exit codes: 0 success,
1 runtime failure (single-line error on stderr), 2 usage error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments
from .bank import MemoryBank
from .config import RunConfig, load_config
from .data import generate, save_records
from .errors import MemlabelError
from .evaluation import (evaluate, label_curve, records_split, split_for_benchmark,
                         write_label_curve, write_metrics_log)
from .labels import save_labels
from .losses import gradient_sweep, write_gradient_sweep
from .trainer import predict_labels
from .data import import_features, observation_matrix


def _load_cfg(args):
    seed = {} if args.seed is None else {"seed": args.seed}
    return load_config(args.config, **seed) if args.config else RunConfig(**seed)


def _out_dir(args):
    out = os.environ.get("MEMLABEL_OUT") or args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_generate(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    records = generate(cfg.synthetic_spec())
    path = os.path.join(out, "dataset.csv")
    save_records(records, path)
    print(path)
    return 0


def _or_null(value):
    return None if math.isnan(value) else value


def cmd_train(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    records, result = experiments.run_benchmark(cfg, with_truth=None)
    save_records(records, os.path.join(out, "dataset.csv"))
    result.bank.save(os.path.join(out, "bank.csv"))
    result.model.save(os.path.join(out, "model.npz"))
    save_labels(result.labels, os.path.join(out, "labels.csv"))
    write_metrics_log(result.metrics, os.path.join(out, "metrics.csv"))
    write_label_curve(label_curve(result.metrics, cfg.predictor),
                      os.path.join(out, "label_curve.csv"))
    final = result.metrics[-1]
    # without ground truth rank1 and mAP stay NaN; JSON has null for that
    summary = {"rank1": _or_null(final["rank1"]), "mAP": _or_null(final["mAP"]),
               "loss": final["loss"], "mean_positives": final["mean_positives"]}
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(os.path.join(out, "summary.json"))
    return 0


def cmd_predict_labels(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    if not cfg.bank:
        raise MemlabelError("predict-labels needs a `bank` path in the config")
    bank = MemoryBank.load(cfg.bank)
    labels = predict_labels(bank, cfg.predictor_config())
    path = os.path.join(out, "labels.csv")
    save_labels(labels, path)
    print(path)
    return 0


def _eval_split(cfg):
    if cfg.query_features and cfg.gallery_features:
        q = import_features(cfg.query_features)
        both = q + import_features(cfg.gallery_features)
        return records_split(both, observation_matrix(both), np.arange(len(q)),
                             np.arange(len(q), len(both)))
    if cfg.features:
        records = import_features(cfg.features)
        return split_for_benchmark(records, observation_matrix(records))
    raise MemlabelError(
        "eval needs `features` or `query_features` + `gallery_features` in the config"
    )


def cmd_eval(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    report = evaluate(_eval_split(cfg))
    path = os.path.join(out, "metrics.json")
    report.save_summary(path)
    print(path)
    return 0


def cmd_grad_sweep(args):
    _load_cfg(args)  # validates the config if given
    out = _out_dir(args)
    grid = np.round(np.arange(-1.0, 1.0 + 1e-9, 0.01), 10)
    rows = gradient_sweep(grid)
    path = os.path.join(out, "grad_sweep.csv")
    write_gradient_sweep(rows, path)
    print(path)
    return 0


def cmd_param_sweep(args):
    cfg = _load_cfg(args)
    out = _out_dir(args)
    rows = experiments.param_sweep(cfg)
    path = os.path.join(out, "param_sweep.csv")
    experiments.write_sweep_rows(rows, path)
    print(path)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "predict-labels": cmd_predict_labels,
    "eval": cmd_eval,
    "grad-sweep": cmd_grad_sweep,
    "param-sweep": cmd_param_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="memlabel",
        description="Memory-bank multi-label representation learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="output directory (default: cwd)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (MemlabelError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
