"""Retrieval metrics: CMC curve and mean average precision.

Gallery entries are ranked per query by descending inner product (equivalent
to ascending L2 distance for unit vectors), ties broken by ascending gallery
index. When camera ids are present, gallery entries sharing both identity and
camera with the query are excluded before ranking, following the usual
retrieval protocol. AP is the mean of precision@rank over the ranks of true
matches.
"""

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)


@dataclass
class RetrievalSplit:
    query_features: np.ndarray  # (Q, d), unit rows
    query_ids: np.ndarray
    gallery_features: np.ndarray  # (G, d), unit rows
    gallery_ids: np.ndarray
    query_cams: Optional[np.ndarray] = None
    gallery_cams: Optional[np.ndarray] = None


@dataclass
class MetricsReport:
    cmc: np.ndarray  # rank-k accuracy, k = 1..G
    map: float
    per_query_ap: np.ndarray
    skipped_queries: int = 0

    def rank(self, k):
        return float(self.cmc[k - 1])

    def summary(self):
        return {
            "rank1": self.rank(1),
            "rank5": self.rank(min(5, len(self.cmc))),
            "rank10": self.rank(min(10, len(self.cmc))),
            "mAP": self.map,
        }

    def save_summary(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def evaluate(split):
    """CMC and mAP over the split; queries with no valid match are skipped
    (with a warning) and counted in the report."""
    Q = np.asarray(split.query_features, dtype=np.float64)
    G = np.asarray(split.gallery_features, dtype=np.float64)
    if Q.shape[1] != G.shape[1]:
        raise ConfigError("query/gallery feature dimensions differ")
    n_gallery = G.shape[0]
    sims = Q @ G.T
    cmc_hits = np.zeros(n_gallery)
    aps = []
    skipped = 0
    for q in range(Q.shape[0]):
        keep = np.ones(n_gallery, dtype=bool)
        if split.query_cams is not None and split.gallery_cams is not None:
            keep &= ~(
                (split.gallery_ids == split.query_ids[q])
                & (split.gallery_cams == split.query_cams[q])
            )
        idx = np.flatnonzero(keep)
        order = idx[np.lexsort((idx, -sims[q, idx]))]
        good = split.gallery_ids[order] == split.query_ids[q]
        if not np.any(good):
            skipped += 1
            log.warning("query %d has no valid gallery match; skipped", q)
            continue
        ranks = np.flatnonzero(good)
        cmc_hits[ranks[0]:] += 1
        precision_at_hit = (np.arange(ranks.size) + 1) / (ranks + 1)
        aps.append(float(np.mean(precision_at_hit)))
    n_eval = Q.shape[0] - skipped
    if n_eval == 0:
        raise ConfigError("no query has a valid gallery match")
    per_query_ap = np.array(aps)
    return MetricsReport(
        cmc=cmc_hits / n_eval,
        map=float(np.mean(per_query_ap)),
        per_query_ap=per_query_ap,
        skipped_queries=skipped,
    )


def split_for_benchmark(records, features):
    """Deterministic single-shot query/gallery split of an identity-labeled
    dataset: within each identity the last sample is the gallery entry and the
    rest are queries, so each query has exactly one true match to find."""
    ids = np.array([r.identity for r in records])
    if any(r.identity is None for r in records):
        raise ConfigError("benchmark split needs ground-truth identities")
    q_idx, g_idx = [], []
    for ident in np.unique(ids):
        members = np.flatnonzero(ids == ident)
        q_idx.extend(members[:-1])
        g_idx.append(members[-1])
    q_idx = np.array(q_idx)
    g_idx = np.array(g_idx)
    cams = [r.camera for r in records]
    has_cams = all(c is not None for c in cams)
    return RetrievalSplit(
        query_features=features[q_idx],
        query_ids=ids[q_idx],
        gallery_features=features[g_idx],
        gallery_ids=ids[g_idx],
        query_cams=np.array(cams)[q_idx] if has_cams else None,
        gallery_cams=np.array(cams)[g_idx] if has_cams else None,
    )


# ---- report tables -------------------------------------------------------


def write_metrics_log(rows, path):
    """Per-epoch training log CSV."""
    with open(path, "w") as fh:
        fh.write("epoch,loss,label_precision,label_recall,rank1,mAP,mean_positives\n")
        for r in rows:
            fh.write(
                f"{r['epoch']},{r['loss']:.17g},{r['label_precision']:.17g},"
                f"{r['label_recall']:.17g},{r['rank1']:.17g},{r['mAP']:.17g},"
                f"{r['mean_positives']:.17g}\n"
            )


def label_curve(metric_rows, predictor):
    """Per-epoch precision/recall rows for the main predictor, named
    `predictor`, and the KNN baseline, as (epoch, predictor, precision,
    recall) tuples."""
    out = []
    for r in metric_rows:
        out.append((r["epoch"], predictor, r["label_precision"], r["label_recall"]))
        if "knn_precision" in r:
            out.append((r["epoch"], "knn", r["knn_precision"], r["knn_recall"]))
    return out


def write_label_curve(curve, path):
    with open(path, "w") as fh:
        fh.write("epoch,predictor,precision,recall\n")
        for epoch, predictor, precision, recall in curve:
            fh.write(f"{epoch},{predictor},{precision:.17g},{recall:.17g}\n")
