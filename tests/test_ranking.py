"""The ranking kernel: blocked top-k selection, its tie rule, and the bulk
label predictors and hard-negative mining built on it."""

import numpy as np
import pytest

import memlabel.bank as bank_module
from memlabel import (MemoryBank, NumericError, knn_predict, mine_hard_negatives,
                      mplp_predict, similarity_score_predict)
from memlabel.bank import select_top_k
from memlabel.labels import make_label, singleton_label
from memlabel.trainer import PredictorConfig, predict_labels


def exact_bank(rng, n, d=4):
    """Rows with entries in {-2, ..., 2} / 4 and about a third of them exact
    copies of earlier rows. Every score is a multiple of 1/16 computed
    without rounding, so equal scores are exact ties in any summation order."""
    rows = rng.integers(-2, 3, size=(n, d)) / 4.0
    for i in range(1, n):
        if rng.random() < 0.3:
            rows[i] = rows[rng.integers(i)]
    rows[~rows.any(axis=1), 0] = 0.5  # no cold rows
    bank = MemoryBank(n, d)
    bank.features[:] = rows
    return bank


def order_of(S, a):
    return sorted(range(S.shape[0]), key=lambda j: (-S[a, j], j))


def brute_force(bank, kind, i, param):
    """Per-anchor reference with plain sorts of the dense score matrix."""
    S = bank.features @ bank.features.T
    oi = order_of(S, i)
    if kind == "knn":
        return tuple(sorted(set(oi[:param]) | {i}))
    k = sum(1 for j in range(bank.n) if S[i, j] >= param)
    if kind == "ss":
        return tuple(sorted(set(oi[:k]) | {i}))
    accepted = []
    for j in oi[:k]:
        if i not in order_of(S, j)[:k]:
            break
        accepted.append(j)
    return tuple(sorted(set(accepted) | {i}))


def straddling_ties(bank, k):
    """Rows whose k-th and (k+1)-th highest scores are equal."""
    S = -np.sort(-(bank.features @ bank.features.T), axis=1)
    return int(np.sum(S[:, k - 1] == S[:, k])) if k < bank.n else 0


@pytest.mark.parametrize("block_entries", [1, 3 * 23, 1 << 17])
def test_bulk_labels_match_brute_force_with_ties(monkeypatch, block_entries):
    # one row per block; 3 rows per block, which 23 does not divide; one block
    monkeypatch.setattr(bank_module, "RANK_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(11)
    ties = 0
    for n in (23, 23, 9):
        bank = exact_bank(rng, n)
        for t in (0.125, 0.25, 0.5):
            for kind in ("mplp", "ss"):
                got = predict_labels(bank, PredictorConfig(kind, threshold=t))
                assert [lab.positives for lab in got] == [
                    brute_force(bank, kind, i, t) for i in range(n)]
        for k in (1, 3, 5, n):
            ties += straddling_ties(bank, k)
            got = predict_labels(bank, PredictorConfig("knn", k=k))
            assert [lab.positives for lab in got] == [
                brute_force(bank, "knn", i, k) for i in range(n)]
    assert ties > 0  # the banks do put ties across the top-k cut


def test_per_anchor_predictors_match_bulk():
    rng = np.random.default_rng(12)
    bank = exact_bank(rng, 17)
    mplp = predict_labels(bank, PredictorConfig("mplp", threshold=0.25))
    ss = predict_labels(bank, PredictorConfig("ss", threshold=0.25))
    knn = predict_labels(bank, PredictorConfig("knn", k=4))
    for i in range(bank.n):
        assert mplp_predict(bank, i, 0.25) == mplp[i]
        assert similarity_score_predict(bank, i, 0.25) == ss[i]
        assert knn_predict(bank, i, 4) == knn[i]


def test_single_row_bank():
    bank = MemoryBank(1, 3)
    bank.features[0] = [0.0, 0.6, 0.8]
    for cfg in (PredictorConfig("mplp"), PredictorConfig("ss"), PredictorConfig("knn", k=1)):
        assert [lab.positives for lab in predict_labels(bank, cfg)] == [(0,)]
    assert list(bank.rank_list(0).order) == [0]


def test_no_candidate_above_threshold():
    # rows of norm 0.5 score 0.25 against themselves, below t = 0.6
    bank = MemoryBank(3, 2)
    bank.features[:] = [[0.5, 0.0], [0.0, 0.5], [0.3, 0.4]]
    labels = predict_labels(bank, PredictorConfig("mplp", threshold=0.6))
    assert [lab.positives for lab in labels] == [(0,), (1,), (2,)]


@pytest.mark.parametrize("kind", ["mplp", "ss", "knn"])
def test_cold_row_raises(kind):
    bank = exact_bank(np.random.default_rng(13), 6)
    bank.features[4] = 0.0
    with pytest.raises(NumericError):
        predict_labels(bank, PredictorConfig(kind, k=2))


def test_rank_index_checked():
    bank = exact_bank(np.random.default_rng(14), 4)
    for rows in ([4], [-1], [0, 7]):
        with pytest.raises(IndexError):
            bank.top_k(2, rows)


def test_select_top_k_ties_at_the_cut():
    rng = np.random.default_rng(15)
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        k = int(rng.integers(0, n + 1))
        scores = rng.integers(-3, 4, size=(m, n)) / 4.0
        expected = [sorted(range(n), key=lambda j: (-scores[r, j], j))[:k] for r in range(m)]
        assert select_top_k(scores, k).tolist() == expected


def test_top_k_scores_follow_order():
    bank = exact_bank(np.random.default_rng(16), 12)
    order, scores = bank.top_k(5)
    S = bank.features @ bank.features.T
    np.testing.assert_array_equal(scores, np.take_along_axis(S, order, axis=1))


def test_mining_ties_at_the_ratio_cut():
    rng = np.random.default_rng(17)
    straddled = 0
    for _ in range(200):
        n = int(rng.integers(4, 120))
        scores = rng.integers(-4, 5, size=n) / 4.0  # many exact ties
        anchor = int(rng.integers(n))
        lab = make_label(anchor, rng.choice(n, size=int(rng.integers(0, 3)), replace=False), n)
        r = float(rng.choice([1.0, 10.0, 33.0, 50.0, 100.0]))
        pos = set(lab.positives)
        count = max(1, int(np.floor((n - len(pos)) * r / 100.0)))
        ranked = sorted((j for j in range(n) if j not in pos), key=lambda j: (-scores[j], j))
        if count < len(ranked) and scores[ranked[count - 1]] == scores[ranked[count]]:
            straddled += 1
        assert list(mine_hard_negatives(scores, lab, r)) == ranked[:count]
    assert straddled > 0


def test_mining_all_tied():
    scores = np.zeros(10)
    # floor(9 * 0.34) = 3 of the nine negatives, all scored 0
    assert list(mine_hard_negatives(scores, singleton_label(3, 10), 34.0)) == [0, 1, 2]
