"""Retrieval metrics: CMC curve and mean average precision.

Gallery entries are ranked per query by descending inner product (equivalent
to ascending L2 distance for unit vectors), ties broken by ascending gallery
index. When camera ids are present, gallery entries sharing both identity and
camera with the query are excluded before ranking, following the usual
retrieval protocol. AP is the mean of precision@rank over the ranks of true
matches.

`evaluate` sorts no gallery: it scores blocks of queries (at most
`bank.RANK_BLOCK_ENTRIES` scores each) and ranks each true match by counting
the kept entries ahead of it (a higher score, or a tie at a lower index).
"""

import json
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bank as bank_module
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
    q_ids, g_ids = np.asarray(split.query_ids), np.asarray(split.gallery_ids)
    cams = split.query_cams is not None and split.gallery_cams is not None
    q_cams, g_cams = np.asarray(split.query_cams), np.asarray(split.gallery_cams)
    n_query, n_gallery = Q.shape[0], G.shape[0]
    first_hit = np.full(n_query, -1)  # rank of each query's best match; -1: none
    ap = np.zeros(n_query)
    step = max(1, bank_module.RANK_BLOCK_ENTRIES // max(1, n_gallery))
    for start in range(0, n_query, step):
        block = slice(start, start + step)
        S = Q[block] @ G.T
        same = q_ids[block, None] == g_ids
        keep = ~(same & (q_cams[block, None] == g_cams)) if cams else np.ones_like(same)
        match = same & keep
        rows, cols = np.nonzero(match)  # true matches, by query then gallery index
        hits = np.bincount(rows, minlength=S.shape[0])
        nth = np.arange(rows.size) - np.repeat(np.cumsum(hits) - hits, hits)
        rank, place = np.empty_like(rows), np.empty_like(rows)
        for j in range(hits.max(initial=0)):  # the j-th match of every query at once
            at = np.flatnonzero(nth == j)
            r, c = rows[at], cols[at]
            scores, score = S[r], S[r, c][:, None]
            ahead = (scores > score) | ((scores == score) & (np.arange(n_gallery) < c[:, None]))
            rank[at] = np.count_nonzero(ahead & keep[r], axis=1)
            place[at] = np.count_nonzero(ahead & match[r], axis=1)
        # AP: the mean over a query's matches of the precision at each
        precision = np.bincount(rows, weights=(place + 1) / (rank + 1), minlength=S.shape[0])
        found = hits > 0
        ap[block][found] = precision[found] / hits[found]
        first_hit[start + rows[place == 0]] = rank[place == 0]
    for q in np.flatnonzero(first_hit < 0):
        log.warning("query %d has no valid gallery match; skipped", q)
    evaluated = first_hit >= 0
    n_eval = int(evaluated.sum())
    if n_eval == 0:
        raise ConfigError("no query has a valid gallery match")
    per_query_ap = ap[evaluated]
    return MetricsReport(
        cmc=np.cumsum(np.bincount(first_hit[evaluated], minlength=n_gallery)) / n_eval,
        map=float(np.mean(per_query_ap)),
        per_query_ap=per_query_ap,
        skipped_queries=n_query - n_eval,
    )


def split_for_benchmark(records, features):
    """Deterministic single-shot query/gallery split of an identity-labeled
    dataset: within each identity the last sample is the gallery entry and the
    rest are queries, so each query has exactly one true match to find."""
    ids = np.array([r.identity for r in records])
    if any(r.identity is None for r in records):
        raise ConfigError("benchmark split needs ground-truth identities")
    order = np.argsort(ids, kind="stable")  # by identity, then by index
    last = np.append(ids[order][1:] != ids[order][:-1], True)
    return records_split(records, features, order[~last], order[last])


def records_split(records, features, q_idx, g_idx):
    """The RetrievalSplit of the records at the query and gallery indices,
    with cameras if every record has one."""
    ids = np.array([r.identity for r in records])
    cams = [r.camera for r in records]
    cams = np.array(cams) if None not in cams else None
    return RetrievalSplit(features[q_idx], ids[q_idx], features[g_idx], ids[g_idx],
                          *(() if cams is None else (cams[q_idx], cams[g_idx])))


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
