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

Every predictor returns one `LabelSet`: CSR arrays (`indptr`, `indices`) whose
rows, the anchors' positive sets, are sorted, free of repeats and hold their
anchor. Losses read it as a (B, n) positive mask; indexing it yields
`MultiLabel`s. During warmup each label is the singleton {anchor}.
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


class LabelSet:
    """Positive sets over n classes as CSR arrays: row a, the positives of
    `anchors[a]`, is `indices[indptr[a]:indptr[a + 1]]`. Built from the rows'
    positives concatenated (`counts[a]` each, in any order), with the anchor
    added, repeats dropped and each row sorted."""

    def __init__(self, anchors, counts, positives, n):
        self.anchors, self.n = np.asarray(anchors, dtype=np.intp), int(n)
        m = self.anchors.size
        cols = np.concatenate((np.asarray(positives, dtype=np.intp).ravel(), self.anchors))
        if cols.size and not 0 <= cols.min() <= cols.max() < self.n:
            raise ConfigError(f"label index outside [0, {self.n})")
        keys = np.sort(np.concatenate((np.repeat(np.arange(m), counts), np.arange(m)))
                       * self.n + cols)
        rows, self.indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.n)
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))

    def __len__(self):
        return self.anchors.size

    def __getitem__(self, a):  # also makes a LabelSet iterable
        a = range(len(self))[a]
        return MultiLabel(int(self.anchors[a]),
                          tuple(self.indices[self.indptr[a]:self.indptr[a + 1]].tolist()), self.n)

    def mask(self, rows):
        """(len(rows), n) boolean mask of the positives of the given rows."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = np.diff(self.indptr)[rows]
        shift = np.repeat(self.indptr[rows] - np.cumsum(counts) + counts, counts)
        mask = np.zeros((rows.size, self.n), dtype=bool)
        mask[np.repeat(np.arange(rows.size), counts),
             self.indices[shift + np.arange(shift.size)]] = True
        return mask


def positive_mask(labels, n):
    """(B, n) boolean positive mask of a list of MultiLabels (a mask passes)."""
    if isinstance(labels, np.ndarray):
        return labels
    mask = np.zeros(len(labels) * n, dtype=bool)
    mask[[b * n + p for b, lab in enumerate(labels) for p in lab.positives]] = True
    return mask.reshape(len(labels), n)


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
    return LabelSet(rows, np.bincount(owner[kept], minlength=rows.size), cand[kept], bank.n)


def similarity_score_labels(bank, t, anchors=None):
    """Threshold-only baseline: the candidate sets with no cycle filtering."""
    _, k, cand = _threshold_candidates(bank, t, anchors)
    return LabelSet(_anchor_rows(bank, anchors), k, cand, bank.n)


def knn_labels(bank, k, anchors=None):
    """Fixed-size baseline: the k nearest samples (self included)."""
    if not 1 <= k <= bank.n:
        raise ConfigError(f"k={k} outside [1, {bank.n}]")
    tops, _ = bank.top_k(k, anchors)
    rows = _anchor_rows(bank, anchors)
    return LabelSet(rows, np.full(rows.size, k), tops, bank.n)


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
    pos = np.array(pred.positives)
    hits = int(np.sum(same[pos]))
    precision = hits / len(pos)
    recall = hits / int(np.sum(same))
    return precision, recall


# ---- labels file format --------------------------------------------------


def save_labels(labels, path):
    """One line per anchor of a LabelSet: `anchor: p1 p2 ...` with its sorted
    positive indices."""
    words, ends = labels.indices.astype(str).tolist(), labels.indptr.tolist()
    with open(path, "w") as fh:
        for a, anchor in enumerate(labels.anchors.tolist()):
            fh.write(f"{anchor}: " + " ".join(words[ends[a]:ends[a + 1]]) + "\n")


def load_labels(path, n):
    """The LabelSet in a file written by `save_labels`."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                head, tail = line.split(":", 1)
                row = [int(head)] + [int(p) for p in tail.split()]
                if not 0 <= min(row) <= max(row) < n:
                    raise ValueError(f"index outside [0, {n})")
            except ValueError as exc:
                raise ParseError(f"malformed label line: {line!r}", line=lineno) from exc
            rows.append(row)
    return LabelSet([r[0] for r in rows], [len(r) - 1 for r in rows],
                    [p for r in rows for p in r[1:]], n)
