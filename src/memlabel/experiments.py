"""End-to-end experiment drivers: the seeded synthetic benchmark, training
with ground-truth monitoring, and hyper-parameter sweeps.

Ground-truth identities never reach the trainer; they enter only through the
evaluation hook, which reads a frozen copy of the training state each epoch.
"""

import dataclasses

import numpy as np

from .bank import ZERO_NORM_EPS
from .config import SWEEP_KEYS
from .data import generate, identities_of, load_records, observation_matrix
from .errors import require
from .evaluation import evaluate, split_for_benchmark
# knn_predict and label_quality are imported so that `experiments.<name>`
# still resolves for callers and for perfbench/tracing.py, which wraps them here.
from .labels import knn_labels, knn_predict, label_quality  # noqa: F401
from .trainer import train

def load_or_generate(cfg):
    if cfg.dataset:
        return load_records(cfg.dataset)
    return generate(cfg.synthetic_spec())


def _mean_quality(labels, ids):
    """Mean `label_quality` precision and recall over a LabelSet, computed
    for every anchor at once."""
    ids = np.asarray(ids)
    sizes, anchors = np.diff(labels.indptr), labels.anchors
    same = ids[labels.indices] == np.repeat(ids[anchors], sizes)
    hits = np.bincount(np.repeat(np.arange(len(labels)), sizes), weights=same,
                       minlength=len(labels))
    _, group, group_size = np.unique(ids, return_inverse=True, return_counts=True)
    return (float(np.mean(hits / sizes)),
            float(np.mean(hits / group_size[group[anchors]])))


def make_eval_hook(records, knn_k=8):
    """Per-epoch retrieval metrics and label quality against ground truth,
    with the quality of K-nearest-neighbour labels as a baseline unless
    `knn_k` is None."""
    ids = identities_of(records)
    obs = observation_matrix(records)
    # the split is fixed: made once, with each record's index as its feature
    split = split_for_benchmark(records, np.arange(len(records)))

    def hook(state, epoch):
        feats = state.model.forward(obs)
        report = evaluate(dataclasses.replace(split, query_features=feats[split.query_features],
                                              gallery_features=feats[split.gallery_features]))
        precision, recall = _mean_quality(state.labels, ids)
        row = {
            "rank1": report.rank(1),
            "mAP": report.map,
            "label_precision": precision,
            "label_recall": recall,
        }
        if knn_k is not None and np.linalg.norm(state.bank.features, axis=1).min() > ZERO_NORM_EPS:
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
    # with KNN training labels the baseline would repeat the main series
    baseline_k = None if cfg.predictor == "knn" else cfg.knn_k
    hook = make_eval_hook(records, knn_k=baseline_k) if with_truth else None
    result = train(obs, cfg.schedule(), cfg.loss_config(),
                   cfg.predictor_config(), cfg.augment_config(), eval_hook=hook)
    return records, result


def param_sweep(cfg, param=None, grid=None, seeds=None):
    """Re-run the benchmark per grid value and seed; returns result rows.

    `param` is one of t, delta, r, K, mapped onto the matching config key.
    Each cell is a fresh seeded run; rows are (param, value, seed, rank1, mAP).
    Every cell's config is built, and so checked, before the first one runs.
    """
    param = param or cfg.sweep_param
    require(param in SWEEP_KEYS, "sweep_param", param, f"one of {', '.join(SWEEP_KEYS)}")
    grid = cfg.grid_values() if grid is None else list(grid)
    seeds = range(cfg.seed, cfg.seed + cfg.sweep_seeds) if seeds is None else seeds
    key = SWEEP_KEYS[param]
    cells = []
    for value in grid:
        if param == "K":
            require(float(value).is_integer(), key, value, "a whole number")
            fields = {key: int(value), "predictor": "knn"}
        else:
            fields = {key: float(value)}
        cells += [(value, int(seed), dataclasses.replace(cfg, seed=int(seed), **fields))
                  for seed in seeds]
    rows = []
    for value, seed, cell in cells:
        _, result = run_benchmark(cell)
        final = result.metrics[-1]
        rows.append((param, value, seed, final["rank1"], final["mAP"]))
    return rows


def write_sweep_rows(rows, path):
    with open(path, "w") as fh:
        fh.write("param,value,seed,rank1,mAP\n")
        for param, value, seed, rank1, mAP in rows:
            fh.write(f"{param},{value:g},{seed},{rank1:.17g},{mAP:.17g}\n")
