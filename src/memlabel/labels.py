"""Positive-label prediction over a frozen memory bank.

Three predictors, each run over every anchor at once (`*_labels`) or over one
anchor (`*_predict`, the same code with a single anchor):
  * threshold + cycle-consistency prediction (MPLP, the main method),
  * plain top-K nearest neighbors,
  * similarity-score thresholding alone.

All of them rank with the bank's one kernel, `MemoryBank.top_k`, so ties
break the same way everywhere: descending score, then ascending index. MPLP
makes two blocked passes over the bank: the first counts each anchor's
candidates k_i = #{j : s_ij >= t}, the second takes every row's top k_max.
Candidate j of anchor i is accepted iff i is among the first k_i entries of
j's own list, and each anchor keeps its candidates up to the first
rejection. The check is a one-sided form of k-reciprocal neighbours (Zhong
et al., "Re-ranking Person Re-identification with k-reciprocal Encoding",
CVPR 2017).

Every predictor returns MultiLabels: the anchor index plus the set of sample
indices treated as positive classes. During warmup the label is the singleton
{anchor}.
"""

from dataclasses import dataclass

import numpy as np

from . import bank as bank_module
from .errors import ConfigError, ParseError


@dataclass
class CandidateSet:
    """Rank-list prefix whose similarity scores clear the threshold."""

    anchor: int
    candidates: np.ndarray  # rank-list order preserved
    k: int
    threshold: float


@dataclass(frozen=True)
class MultiLabel:
    """Signed label vector over n classes, stored as the positive-index set."""

    anchor: int
    positives: tuple  # sorted ascending
    n: int

    def __post_init__(self):
        if self.anchor not in self.positives:
            raise ConfigError(f"anchor {self.anchor} missing from its positive set")

    def signed(self):
        """Dense +/-1 view of the label."""
        y = -np.ones(self.n)
        y[list(self.positives)] = 1.0
        return y

    def positive_array(self):
        return np.array(self.positives, dtype=np.intp)


def make_label(anchor, positives, n):
    pos = sorted(set(map(int, positives)) | {int(anchor)})
    return MultiLabel(anchor=int(anchor), positives=tuple(pos), n=n)


def singleton_label(anchor, n):
    """Initial single-class label: the sample is its own only positive."""
    return MultiLabel(anchor=int(anchor), positives=(int(anchor),), n=n)


def _check_threshold(t):
    if not -1.0 < t < 1.0:
        raise ConfigError(f"similarity threshold must lie in (-1, 1), got {t}")


def filter_by_threshold(rank, t):
    """Maximal rank-list prefix with similarity >= t.

    The threshold comparison is inclusive so a self-score exactly at t keeps
    the anchor in its own candidate set.
    """
    _check_threshold(t)
    k = int(np.sum(rank.scores >= t))
    return CandidateSet(
        anchor=rank.anchor, candidates=rank.order[:k].copy(), k=k, threshold=t
    )


def _anchor_rows(bank, anchors):
    return np.arange(bank.n) if anchors is None else np.asarray(anchors, dtype=np.intp)


def _threshold_candidates(bank, t, anchors):
    """(tops, k, candidates): row a of `tops` starts with the k[a] samples
    scoring >= t against anchor a, in rank order; `candidates` concatenates
    those prefixes."""
    _check_threshold(t)
    k = bank.count_at_least(t, anchors)
    tops, _ = bank.top_k(int(k.max(initial=0)), anchors)
    return tops, k, tops[np.arange(tops.shape[1]) < k[:, None]]


def _labels(bank, anchors, positives, counts):
    """One MultiLabel per anchor from the anchors' concatenated positives."""
    split = np.split(positives, np.cumsum(counts)[:-1])
    return [make_label(a, p.tolist(), bank.n) for a, p in zip(anchors.tolist(), split)]


def mplp_labels(bank, t, anchors=None):
    """Cycle-consistent positive labels for every anchor (default: all rows).

    Candidates are the threshold-filtered rank-list prefix of size k. They are
    traversed in rank order; candidate j survives iff the anchor appears among
    the top-k entries of j's own rank list (k is the anchor's candidate
    count). The traversal stops at the first rejection and the accepted
    prefix becomes the positive set.
    """
    rows = _anchor_rows(bank, anchors)
    tops, k, cand = _threshold_candidates(bank, t, anchors)
    k_max = tops.shape[1]
    owner = np.repeat(np.arange(rows.size), k)  # candidate -> its anchor's position
    # is the anchor among the first k entries of the candidate's own list?
    # Checked in chunks of at most RANK_BLOCK_ENTRIES list entries.
    accepted = np.empty(cand.size, dtype=bool)
    step = max(1, bank_module.RANK_BLOCK_ENTRIES // max(1, k_max))
    for s in range(0, cand.size, step):
        o, c = owner[s:s + step], cand[s:s + step]
        lists = tops[c] if anchors is None else bank.top_k(k_max, c)[0]
        reach = np.arange(k_max) < k[o, None]
        accepted[s:s + step] = np.any((lists == rows[o, None]) & reach, axis=1)
    # keep each anchor's candidates up to its first rejection
    rejections = np.cumsum(~accepted)
    before = np.concatenate(([0], rejections))[np.cumsum(k) - k]
    kept = rejections == before[owner]
    return _labels(bank, rows, cand[kept], np.bincount(owner[kept], minlength=rows.size))


def similarity_score_labels(bank, t, anchors=None):
    """Threshold-only baseline: the candidate sets with no cycle filtering."""
    _, k, cand = _threshold_candidates(bank, t, anchors)
    return _labels(bank, _anchor_rows(bank, anchors), cand, k)


def knn_labels(bank, k, anchors=None):
    """Fixed-size baseline: the k nearest samples (self included)."""
    if not 1 <= k <= bank.n:
        raise ConfigError(f"k={k} outside [1, {bank.n}]")
    tops, _ = bank.top_k(k, anchors)
    rows = _anchor_rows(bank, anchors)
    return _labels(bank, rows, tops.ravel(), np.full(rows.size, k))


def mplp_predict(bank, i, t):
    """`mplp_labels` for the single anchor i."""
    return mplp_labels(bank, t, [i])[0]


def knn_predict(bank, i, k):
    """`knn_labels` for the single anchor i."""
    return knn_labels(bank, k, [i])[0]


def similarity_score_predict(bank, i, t):
    """`similarity_score_labels` for the single anchor i."""
    return similarity_score_labels(bank, t, [i])[0]


def label_quality(pred, identities):
    """Precision/recall of a predicted positive set against true identities.

    The anchor counts in both numerator and denominators.
    """
    identities = np.asarray(identities)
    same = identities == identities[pred.anchor]
    pos = pred.positive_array()
    hits = int(np.sum(same[pos]))
    precision = hits / len(pos)
    recall = hits / int(np.sum(same))
    return precision, recall


# ---- labels file format --------------------------------------------------


def save_labels(labels, path):
    """One line per sample: `anchor: p1 p2 ...` with sorted positive indices."""
    with open(path, "w") as fh:
        for lab in labels:
            fh.write(f"{lab.anchor}: " + " ".join(str(p) for p in lab.positives) + "\n")


def load_labels(path, n):
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                head, tail = line.split(":", 1)
                anchor = int(head)
                positives = [int(p) for p in tail.split()]
            except ValueError as exc:
                raise ParseError(f"malformed label line: {line!r}", line=lineno) from exc
            labels.append(make_label(anchor, positives, n))
    return labels
