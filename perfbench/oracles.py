"""Reference computations the benchmark checks memlabel's outputs against.

Each one is written from the method's definition, not from memlabel's code,
and reads memlabel's file formats with its own parsers:

* brute-force MPLP over a bank file (dense similarity, one stable sort per
  row, inclusive threshold, cycle check that stops at the first rejection);
* CMC rank-1 and mAP, with same-identity-same-camera exclusion;
* the MMCL loss and its gradient with hard-negative mining;
* the embedding model's forward pass from `model.npz`;
* label precision and recall against true identities.
"""

import csv
import math

import numpy as np

# Two scores closer than this are treated as a tie whose order floating-point
# rounding may decide either way.
TIE_EPS = 1e-12


# ---- file readers ----------------------------------------------------------


def read_bank(path):
    """Rows of a bank CSV: a `n,d,epoch,alpha` header, then n rows of d floats."""
    with open(path) as fh:
        n, d = (int(v) for v in fh.readline().split(",")[:2])
        rows = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    if rows.shape != (n, d):
        raise ValueError(f"{path}: expected {n}x{d} rows, read {rows.shape}")
    return rows


def read_labels(path):
    """`anchor: p1 p2 ...` lines as {anchor: tuple of positives}."""
    labels = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                head, tail = line.split(":", 1)
                labels[int(head)] = tuple(int(p) for p in tail.split())
    return labels


def read_dataset(path):
    """Dataset CSV `index,identity,camera,f_1..f_d` as (features, ids, cams);
    blank identities and cameras read as -1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = sorted((int(r[0]), r) for r in reader if r)
    feats = np.array([[float(v) for v in r[3:]] for _, r in rows])
    ids = np.array([int(r[1]) if r[1] else -1 for _, r in rows])
    cams = np.array([int(r[2]) if r[2] else -1 for _, r in rows])
    return feats, ids, cams


# ---- label prediction --------------------------------------------------------


def mplp(features, t):
    """Brute-force MPLP over bank rows.

    Returns (labels, candidates, ambiguous): labels[i] is anchor i's sorted
    positive tuple, candidates[i] the set of its threshold candidates, and
    ambiguous the anchors whose result hangs on a comparison within TIE_EPS of
    the threshold or of a tie, where rounding may legitimately decide.
    """
    S = features @ features.T
    n = S.shape[0]
    order = np.argsort(-S, axis=1, kind="stable")  # ties: ascending index
    ranked = np.take_along_axis(S, order, axis=1)
    position = np.empty_like(order)
    position[np.arange(n)[:, None], order] = np.arange(n)[None, :]
    labels, candidates, ambiguous = [], [], set()
    for i in range(n):
        k = int(np.count_nonzero(S[i] >= t))
        if np.any(np.abs(S[i] - t) <= TIE_EPS) or np.any(np.diff(ranked[i, :k + 1]) >= -TIE_EPS):
            ambiguous.add(i)
        accepted = []
        for j in order[i, :k]:
            inside = position[j, i] < k
            # the score just across j's top-k boundary from i
            across = k if inside else k - 1
            if across < n and abs(S[j, i] - ranked[j, across]) <= TIE_EPS:
                ambiguous.add(i)
            if not inside:
                break
            accepted.append(int(j))
        labels.append(tuple(sorted(set(accepted) | {i})))
        candidates.append({int(j) for j in order[i, :k]})
    return labels, candidates, ambiguous


def label_quality(labels, ids):
    """Mean precision and recall of positive sets against true identities;
    the anchor counts in numerator and both denominators."""
    ids = np.asarray(ids)
    precision, recall = [], []
    for anchor, positives in enumerate(labels):
        hits = sum(1 for p in positives if ids[p] == ids[anchor])
        precision.append(hits / len(positives))
        recall.append(hits / int(np.count_nonzero(ids == ids[anchor])))
    return float(np.mean(precision)), float(np.mean(recall))


# ---- retrieval ---------------------------------------------------------------


def last_as_gallery(ids):
    """Single-shot split: per identity, the highest-index sample is the
    gallery entry and the others are queries."""
    queries, gallery = [], []
    for ident in sorted(set(ids.tolist())):
        members = [i for i, v in enumerate(ids) if v == ident]
        queries += members[:-1]
        gallery.append(members[-1])
    return np.array(queries), np.array(gallery)


def cmc_map(q_feats, q_ids, g_feats, g_ids, q_cams=None, g_cams=None):
    """(rank1, mAP, skipped) by ranking the gallery per query.

    Gallery entries sharing identity and camera with the query are dropped
    when cameras are given; ties rank by ascending gallery index. AP is the
    mean over true matches of (matches so far) / (rank of the match). A query
    with no true match left is skipped and counted.
    """
    rank1_hits, aps, skipped = 0, [], 0
    for q in range(len(q_ids)):
        by_score = np.argsort(-(g_feats @ q_feats[q]), kind="stable")
        if q_cams is not None:
            by_score = by_score[(g_ids[by_score] != q_ids[q]) | (g_cams[by_score] != q_cams[q])]
        match_ranks = (np.flatnonzero(g_ids[by_score] == q_ids[q]) + 1).tolist()
        if not match_ranks:
            skipped += 1
            continue
        rank1_hits += match_ranks[0] == 1
        aps.append(sum(m / r for m, r in enumerate(match_ranks, start=1)) / len(match_ranks))
    n_eval = len(q_ids) - skipped
    return rank1_hits / n_eval, sum(aps) / n_eval, skipped


# ---- loss and model ------------------------------------------------------------


def mmcl(feats, memory, positives, delta, hard_ratio):
    """Batch-mean MMCL loss and its gradient with respect to the features.

    Per sample: delta/|P| * sum_p (s_p - 1)^2 + 1/|N| * sum_q (s_q + 1)^2,
    where N is the floor(r% of the negatives), at least one, with the highest
    scores, ties kept by ascending index.
    """
    batch = len(positives)
    loss = 0.0
    grad = np.zeros_like(feats)
    for b, pos in enumerate(positives):
        s = memory @ feats[b]
        pos = sorted(pos)
        pos_set = set(pos)
        negatives = sorted((j for j in range(len(s)) if j not in pos_set),
                           key=lambda j: (-s[j], j))
        hard = negatives[:max(1, math.floor(len(negatives) * hard_ratio / 100.0))]
        for p in pos:
            loss += delta / len(pos) * (s[p] - 1.0) ** 2
            grad[b] += 2.0 * delta / len(pos) * (s[p] - 1.0) * memory[p]
        for q in hard:
            loss += (s[q] + 1.0) ** 2 / len(hard)
            grad[b] += 2.0 / len(hard) * (s[q] + 1.0) * memory[q]
    return loss / batch, grad / batch


def forward(model_path, X):
    """Unit-norm embeddings of rows X from the weights in a `model.npz`:
    affine, tanh, affine when hidden_dim >= 0, else one affine; then L2."""
    w = np.load(model_path)
    Z = X @ w["W1"].T + w["b1"]
    if int(w["hidden_dim"]) >= 0:
        Z = np.tanh(Z) @ w["W2"].T + w["b2"]
    return Z / np.sqrt(np.sum(Z * Z, axis=1, keepdims=True))
