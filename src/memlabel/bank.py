"""Memory bank: per-sample feature store doubling as a non-parametric classifier.

Each of the n rows holds a running, L2-normalized feature for one training
sample. Rows are updated with a momentum blend and renormalized; a minibatch's
rows are refreshed together in one vectorised step (`update_rows`).

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


class MemoryBank:
    """n x d row store with momentum updates.

    Rows start at zero ("cold"); a cold row is skipped by renormalization and
    must not be used as a rank-list anchor.
    """

    def __init__(self, n, d, update_rate=0.5):
        if n < 1 or d < 1:
            raise ConfigError(f"memory bank needs n >= 1 and d >= 1, got n={n}, d={d}")
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
        """IndexError naming the first of the indices i outside [0, n)."""
        i = np.asarray(i)
        outside = i[(i < 0) | (i >= self.n)]
        if outside.size:
            raise IndexError(f"sample index {outside[0]} outside [0, {self.n})")

    def row_norm(self, i):
        self._check_index(i)
        return float(np.linalg.norm(self.features[i]))

    def update_row(self, i, f, alpha):
        """Blend row i towards f with rate alpha, then renormalize: new_row =
        alpha * f + (1 - alpha) * old_row, stored as-is if its norm is
        (near-)zero. At alpha = 0 the row stays bitwise unchanged."""
        self.update_rows([i], np.reshape(f, (1, -1)), alpha, bootstrap=False)

    def overwrite_row(self, i, f):
        """Replace row i outright with f, L2-normalized unless (near-)zero."""
        self.update_rows([i], np.reshape(f, (1, -1)), 1.0)

    def update_rows(self, rows, feats, alpha, bootstrap=True):
        """Refresh distinct rows from a batch of features in one step, each as
        by `update_row`; with `bootstrap` a cold row is overwritten instead.
        Nothing is written if a check fails."""
        rows = np.asarray(rows, dtype=np.intp)
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape != (rows.size, self.d) or np.any(np.diff(np.sort(rows)) == 0):
            raise ConfigError(f"need one ({self.d},) feature per distinct row, got {feats.shape}")
        self._check_index(rows)
        finite = np.isfinite(feats).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite feature for sample {rows[np.argmin(finite)]}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError(f"update rate must be in [0, 1], got {alpha}")
        old = self.features[rows]
        warm = (np.linalg.norm(old, axis=1) > ZERO_NORM_EPS) | (not bootstrap)
        if alpha == 0.0:
            rows, feats, old, warm = rows[~warm], feats[~warm], old[~warm], warm[~warm]
        new = np.where(warm[:, None], alpha * feats + (1.0 - alpha) * old, feats)
        # one dot product per row, the same sum as np.linalg.norm of a row
        norm = np.sqrt((new[:, None, :] @ new[:, :, None]).ravel())
        self.features[rows] = new / np.where(norm > ZERO_NORM_EPS, norm, 1.0)[:, None]

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
            self._check_index(rows)
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
        """Read a bank written by `save`; a malformed file raises ParseError
        naming the line. Memory follows the rows read, not the header."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            try:
                n, d, epoch, rate = header
                n, d, epoch, rate = int(n), int(d), int(epoch), float(rate)
                if n < 1 or d < 1:
                    raise ValueError("a bank needs n >= 1 and d >= 1")
            except ValueError as exc:
                raise ParseError(f"bad bank header: {header!r}", line=1) from exc
            rows = []
            for lineno, line in enumerate(fh, start=2):
                if len(rows) == n:
                    if line.strip():
                        raise ParseError(f"more than the header's {n} bank rows", line=lineno)
                    continue
                try:
                    vals = np.array([float(v) for v in line.strip().split(",")])
                except ValueError as exc:
                    raise ParseError(f"unparseable bank row ({exc})", line=lineno) from exc
                if vals.shape != (d,):
                    raise ParseError(f"bank row has {vals.size} values, expected {d}",
                                     line=lineno)
                rows.append(vals)
        if len(rows) < n:
            raise ParseError("bank file truncated", line=len(rows) + 2)
        bank = cls(n, d, update_rate=rate)
        bank.epoch = epoch
        np.stack(rows, out=bank.features)
        finite = np.isfinite(bank.features).all(axis=1)
        if not finite.all():
            raise ParseError("non-finite bank value", line=int(np.argmin(finite)) + 2)
        return bank
