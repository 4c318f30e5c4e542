"""Memory bank: per-sample feature store doubling as a non-parametric classifier.

Each of the n rows holds a running, L2-normalized feature for one training
sample. Rows are updated with a momentum blend and renormalized.

All ranking in the package goes through one kernel, `MemoryBank.top_k`: it
scores blocks of rows against the whole bank (S = F[rows] @ F.T, at most
RANK_BLOCK_ENTRIES scores at a time) and keeps each row's k best columns with
`select_top_k`. The tie rule is the same everywhere: descending score, then
ascending index. Label prediction, the KNN labels of the evaluation hook,
`rank_list` (k = n) and hard-negative mining all read this kernel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ParseError

ZERO_NORM_EPS = 1e-12
# Scores per block of the ranking kernel: 1 MiB of float64, 64 rows at
# n = 2048. A block's temporaries (scores, their negation, argpartition's
# indices) stay a few MiB, below the query x gallery score matrix `evaluate`
# allocates at that size (16 MiB for 1024 x 2048).
RANK_BLOCK_ENTRIES = 1 << 17


def select_top_k(scores, k):
    """Columns of the k highest entries of each row of a 2-D score array.

    Each row comes back ordered by descending score, ties by ascending
    column. `argpartition` puts the (k+1)-th entry in place with the k best
    before it, and only that k-prefix is sorted. If the (k+1)-th entry ties
    with the k-th, the tie straddles the cut and argpartition's pick among
    the tied columns is arbitrary, so that row is redone to keep the lowest
    tied columns.
    """
    m, n = scores.shape
    neg = -scores
    if k >= n:
        return np.argsort(neg, axis=1, kind="stable")
    if k <= 0:
        return np.empty((m, 0), dtype=np.intp)
    rows = np.arange(m)[:, None]
    part = np.argpartition(neg, k, axis=1)
    cols = part[:, :k]
    vals = neg[rows, part[:, :k + 1]]
    kth = vals[:, :k].max(axis=1)
    straddles = vals[:, k] == kth
    vals = vals[:, :k]
    for r in np.flatnonzero(straddles):
        above = np.flatnonzero(neg[r] < kth[r])
        tied = np.flatnonzero(neg[r] == kth[r])[: k - above.size]
        cols[r] = np.concatenate((above, tied))
        vals[r] = neg[r, cols[r]]
    return cols[rows, np.lexsort((cols, vals), axis=1)]


@dataclass
class RankList:
    """Full descending-similarity ordering of all rows against one anchor row.

    order[0] is the most similar sample index; scores are sorted to match.
    Ties are broken by ascending sample index, so the ordering is deterministic.
    """

    anchor: int
    order: np.ndarray
    scores: np.ndarray

    def top(self, k):
        return self.order[:k]


class MemoryBank:
    """n x d row store with momentum updates.

    Rows start at zero ("cold"); a cold row is skipped by renormalization and
    must not be used as a rank-list anchor.
    """

    def __init__(self, n, d, update_rate=0.5):
        if n < 1:
            raise ConfigError(f"memory bank needs n >= 1, got n={n}")
        if d < 1:
            raise ConfigError(f"memory bank needs d >= 1, got d={d}")
        self.features = np.zeros((n, d), dtype=np.float64)
        self.update_rate = float(update_rate)
        self.epoch = 0

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def _check_index(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} outside [0, {self.n})")

    def row_norm(self, i):
        self._check_index(i)
        return float(np.linalg.norm(self.features[i]))

    def update_row(self, i, f, alpha):
        """Blend row i towards f with rate alpha, then renormalize.

        new_row = alpha * f + (1 - alpha) * old_row, L2-normalized unless the
        blend has (near-)zero norm, in which case it is stored as-is.
        """
        self._check_index(i)
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (self.d,):
            raise ConfigError(f"feature has shape {f.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(f)):
            raise NumericError(f"non-finite feature for sample {i}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"update rate must be in [0, 1], got {alpha}")
        if alpha == 0.0:
            # identity blend; skip renormalization so the row is bitwise stable
            return
        blended = alpha * f + (1.0 - alpha) * self.features[i]
        norm = np.linalg.norm(blended)
        if norm > ZERO_NORM_EPS:
            blended = blended / norm
        self.features[i] = blended

    def overwrite_row(self, i, f):
        """Replace row i outright (used to bootstrap cold rows)."""
        self._check_index(i)
        f = np.asarray(f, dtype=np.float64)
        if not np.all(np.isfinite(f)):
            raise NumericError(f"non-finite feature for sample {i}")
        norm = np.linalg.norm(f)
        if norm > ZERO_NORM_EPS:
            f = f / norm
        self.features[i] = f

    def similarity(self, i, j):
        """Inner product of stored rows i and j."""
        self._check_index(i)
        self._check_index(j)
        return float(self.features[i] @ self.features[j])

    def _score_blocks(self, rows):
        """(block slice, S) pairs, S = features[rows[block]] @ features.T.

        `rows` is None for every row, else an index array; each row must be
        warm (nonzero), since ranking against a zero row is meaningless before
        the bank has been filled.
        """
        if rows is not None:
            outside = rows[(rows < 0) | (rows >= self.n)]
            if outside.size:
                self._check_index(int(outside[0]))
        picked = self.features if rows is None else self.features[rows]
        cold = np.flatnonzero(np.linalg.norm(picked, axis=1) <= ZERO_NORM_EPS)
        if cold.size:
            row = cold[0] if rows is None else rows[cold[0]]
            raise NumericError(f"rank list undefined for zero-norm row {row}")
        step = max(1, RANK_BLOCK_ENTRIES // self.n)
        for start in range(0, picked.shape[0], step):
            block = slice(start, start + step)
            yield block, picked[block] @ self.features.T

    def count_at_least(self, t, rows=None):
        """Per row, the number of stored rows scoring >= t against it."""
        rows = None if rows is None else np.asarray(rows, dtype=np.intp)
        counts = np.empty(self.n if rows is None else rows.size, dtype=np.intp)
        for block, S in self._score_blocks(rows):
            counts[block] = np.count_nonzero(S >= t, axis=1)
        return counts

    def top_k(self, k, rows=None):
        """The ranking kernel: each row's k most similar stored rows.

        Returns (order, scores), both (len(rows), k): column indices by
        descending score, ties by ascending index, and their scores.
        """
        rows = None if rows is None else np.asarray(rows, dtype=np.intp)
        m = self.n if rows is None else rows.size
        order = np.empty((m, k), dtype=np.intp)
        scores = np.empty((m, k))
        for block, S in self._score_blocks(rows):
            order[block] = select_top_k(S, k)
            scores[block] = np.take_along_axis(S, order[block], axis=1)
        return order, scores

    def rank_list(self, i):
        """All samples sorted by descending similarity to row i (k = n)."""
        order, scores = self.top_k(self.n, [i])
        return RankList(anchor=i, order=order[0], scores=scores[0])

    def score_against_memory(self, f):
        """Classification scores of feature f against every stored row.

        Accepts a single (d,) vector or a (B, d) batch; returns (n,) or (B, n).
        """
        f = np.asarray(f, dtype=np.float64)
        if f.shape[-1] != self.d:
            raise ConfigError(
                f"feature dimension {f.shape[-1]} does not match bank d={self.d}"
            )
        return f @ self.features.T

    # ---- snapshot I/O ----------------------------------------------------

    def save(self, path):
        """Write the bank as CSV: one metadata line `n,d,epoch,alpha`, then
        one row per line with full double precision."""
        with open(path, "w") as fh:
            fh.write(f"{self.n},{self.d},{self.epoch},{self.update_rate!r}\n")
            for row in self.features:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 4:
                raise ParseError(f"bad bank header: {header!r}", line=1)
            n, d = int(header[0]), int(header[1])
            bank = cls(n, d, update_rate=float(header[3]))
            bank.epoch = int(header[2])
            for i in range(n):
                line = fh.readline()
                if not line:
                    raise ParseError("bank file truncated", line=i + 2)
                vals = np.array([float(v) for v in line.strip().split(",")])
                if vals.shape != (d,):
                    raise ParseError(
                        f"bank row has {vals.size} values, expected {d}", line=i + 2
                    )
                bank.features[i] = vals
        return bank
