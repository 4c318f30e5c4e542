"""End-to-end experiment drivers: the seeded synthetic benchmark, training
with ground-truth monitoring, and hyper-parameter sweeps.

Ground-truth identities never reach the trainer; they enter only through the
evaluation hook, which reads a frozen copy of the training state each epoch.
"""

import dataclasses
import itertools

import numpy as np

from .bank import ZERO_NORM_EPS
from .config import RunConfig
from .data import generate, identities_of, load_records, observation_matrix
from .errors import ConfigError
from .evaluation import evaluate, split_for_benchmark
# knn_predict and label_quality are imported so that `experiments.<name>`
# still resolves for callers and for perfbench/tracing.py, which wraps them here.
from .labels import knn_labels, knn_predict, label_quality  # noqa: F401
from .trainer import train

SWEEP_FIELDS = {"t": "threshold", "delta": "delta", "r": "hard_ratio", "K": "knn_k"}


def load_or_generate(cfg):
    if cfg.dataset:
        return load_records(cfg.dataset)
    return generate(cfg.synthetic_spec())


def _bank_is_warm(bank):
    return bool(np.all(np.linalg.norm(bank.features, axis=1) > ZERO_NORM_EPS))


def _mean_quality(labels, ids):
    """Mean `label_quality` precision and recall over all labels, computed
    for every anchor at once."""
    ids = np.asarray(ids)
    sizes = np.array([len(lab.positives) for lab in labels])
    anchors = np.array([lab.anchor for lab in labels])
    positives = np.fromiter(itertools.chain.from_iterable(lab.positives for lab in labels),
                            dtype=np.intp, count=int(sizes.sum()))
    same = ids[positives] == np.repeat(ids[anchors], sizes)
    hits = np.bincount(np.repeat(np.arange(len(labels)), sizes), weights=same,
                       minlength=len(labels))
    _, group, group_size = np.unique(ids, return_inverse=True, return_counts=True)
    return (float(np.mean(hits / sizes)),
            float(np.mean(hits / group_size[group[anchors]])))


def make_eval_hook(records, knn_k=8):
    """Per-epoch retrieval metrics and label quality against ground truth."""
    ids = identities_of(records)
    obs = observation_matrix(records)

    def hook(state, epoch):
        feats = state.model.forward(obs)
        report = evaluate(split_for_benchmark(records, feats))
        precision, recall = _mean_quality(state.labels, ids)
        row = {
            "rank1": report.rank(1),
            "mAP": report.map,
            "label_precision": precision,
            "label_recall": recall,
        }
        if _bank_is_warm(state.bank):
            kp, kr = _mean_quality(knn_labels(state.bank, knn_k), ids)
            row["knn_precision"] = kp
            row["knn_recall"] = kr
        return row

    return hook


def evaluate_model(model, records):
    """Retrieval metrics of a model over an identity-labeled record set."""
    feats = model.forward(observation_matrix(records))
    return evaluate(split_for_benchmark(records, feats))


def run_benchmark(cfg, with_truth=True):
    """Train per the config on (generated or loaded) data.

    Returns (records, TrainResult). With `with_truth` the per-epoch metrics
    include rank-1/mAP and label precision/recall; `with_truth=None` adds
    them only when every record carries an identity, and otherwise leaves
    them NaN.
    """
    records = load_or_generate(cfg)
    if with_truth is None:
        with_truth = all(r.identity is not None for r in records)
    obs = observation_matrix(records)
    hook = make_eval_hook(records, knn_k=cfg.knn_k) if with_truth else None
    result = train(obs, cfg.schedule(), cfg.loss_config(),
                   cfg.predictor_config(), cfg.augment_config(), eval_hook=hook)
    return records, result


def param_sweep(cfg, param=None, grid=None, seeds=None):
    """Re-run the benchmark per grid value and seed; returns result rows.

    `param` is one of t, delta, r, K, mapped onto the matching config field.
    Each cell is a fresh seeded run; rows are (param, value, seed, rank1, mAP).
    """
    param = param or cfg.sweep_param
    if param not in SWEEP_FIELDS:
        raise ConfigError(f"sweep param must be one of {sorted(SWEEP_FIELDS)}, "
                          f"got {param!r}")
    grid = cfg.grid_values() if grid is None else list(grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    seeds = range(cfg.seed, cfg.seed + cfg.sweep_seeds) if seeds is None else seeds
    field = SWEEP_FIELDS[param]
    rows = []
    for value in grid:
        for seed in seeds:
            cell = dataclasses.replace(cfg, seed=int(seed))
            coerced = int(value) if field == "knn_k" else float(value)
            setattr(cell, field, coerced)
            if param == "K":
                cell.predictor = "knn"
            _, result = run_benchmark(cell)
            final = result.metrics[-1]
            rows.append((param, value, int(seed), final["rank1"], final["mAP"]))
    return rows


def write_sweep_rows(rows, path):
    with open(path, "w") as fh:
        fh.write("param,value,seed,rank1,mAP\n")
        for param, value, seed, rank1, mAP in rows:
            fh.write(f"{param},{value:g},{seed},{rank1:.17g},{mAP:.17g}\n")
