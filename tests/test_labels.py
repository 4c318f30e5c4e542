"""Label predictors: threshold filtering, cycle-consistent prediction, KNN
and similarity-score baselines, label quality, and the labels file format."""

import numpy as np
import pytest

from memlabel import (ConfigError, MemoryBank, MultiLabel, filter_by_threshold,
                      knn_predict, label_quality, mplp_predict,
                      similarity_score_predict, singleton_label)
from memlabel.errors import ParseError
from memlabel.labels import LabelSet, load_labels, make_label, positive_mask, save_labels


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_bank(rng, n, d):
    bank = MemoryBank(n, d)
    for i in range(n):
        bank.overwrite_row(i, unit(rng.normal(size=d)))
    return bank


def brute_force_mplp(bank, i, t):
    """Independent reference: recompute all rank lists with a plain sort,
    take the threshold prefix, and apply the stop-at-first-rejection rule."""
    S = bank.features @ bank.features.T

    def order_of(a):
        return sorted(range(bank.n), key=lambda j: (-S[a, j], j))

    oi = order_of(i)
    k = sum(1 for j in range(bank.n) if S[i, j] >= t)
    candidates = oi[:k]
    accepted = []
    for j in candidates:
        if i in order_of(j)[:k]:
            accepted.append(j)
        else:
            break
    return tuple(sorted(set(accepted) | {i}))


# ---- MultiLabel ----------------------------------------------------------


def test_multilabel_requires_anchor():
    with pytest.raises(ConfigError):
        MultiLabel(anchor=0, positives=(1, 2), n=4)


def test_positive_mask():
    lab = make_label(1, [3], 4)
    np.testing.assert_array_equal(positive_mask([lab], 4), [[False, True, False, True]])
    assert lab.positives == (1, 3)
    mask = np.array([[True, False]])
    assert positive_mask(mask, 2) is mask


def test_singleton_label():
    lab = singleton_label(2, 5)
    assert lab.positives == (2,)
    np.testing.assert_array_equal(positive_mask([lab], 5)[0], [0, 0, 1, 0, 0])


# ---- filter_by_threshold -------------------------------------------------


def test_threshold_prefix():
    bank = MemoryBank(4, 2)
    # engineered scores against anchor 0: 1.0, 0.8, 0.55, 0.2
    bank.features[0] = [1.0, 0.0]
    for i, s in ((1, 0.8), (2, 0.55), (3, 0.2)):
        bank.features[i] = [s, np.sqrt(1 - s * s)]
    cand = filter_by_threshold(bank.rank_list(0), 0.6)
    assert cand.k == 2
    assert list(cand.candidates) == [0, 1]


def test_threshold_degenerate_singleton():
    bank = MemoryBank(3, 3)
    bank.features[0] = [1.0, 0.0, 0.0]
    bank.features[1] = [0.0, 1.0, 0.0]
    bank.features[2] = [0.0, 0.0, 1.0]
    cand = filter_by_threshold(bank.rank_list(0), 0.6)
    assert list(cand.candidates) == [0]
    assert cand.k == 1


def test_threshold_oracle_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bank = random_bank(rng, int(rng.integers(4, 30)), 6)
        for i in range(bank.n):
            S = bank.features @ bank.features[i]
            prev = None
            for t in (0.2, 0.4, 0.6, 0.8):
                cand = set(filter_by_threshold(bank.rank_list(i), t).candidates)
                assert cand == {j for j in range(bank.n) if S[j] >= t}
                if prev is not None:
                    assert cand <= prev  # raising t never adds a candidate
                prev = cand


def test_threshold_range_validation():
    bank = random_bank(np.random.default_rng(1), 4, 3)
    for t in (-1.0, 1.0, 2.0):
        with pytest.raises(ConfigError):
            filter_by_threshold(bank.rank_list(0), t)


# ---- mplp_predict --------------------------------------------------------


def test_mplp_mutual_pair():
    bank = MemoryBank(4, 4)
    bank.features[0] = [1.0, 0.0, 0.0, 0.0]
    bank.features[1] = [1.0, 0.0, 0.0, 0.0]
    bank.features[2] = [0.0, 1.0, 0.0, 0.0]
    bank.features[3] = [0.0, 0.0, 1.0, 0.0]
    assert mplp_predict(bank, 0, 0.6).positives == (0, 1)
    assert mplp_predict(bank, 1, 0.6).positives == (0, 1)


def test_mplp_self_only():
    bank = MemoryBank(3, 3)
    bank.features[0] = [1.0, 0.0, 0.0]
    bank.features[1] = [0.0, 1.0, 0.0]
    bank.features[2] = [0.0, 0.0, 1.0]
    assert mplp_predict(bank, 0, 0.6).positives == (0,)


def test_mplp_asymmetric_neighbor_excluded():
    # j scores above t against i, but i is crowded out of j's top-k by a
    # clique around j: j and everything after it must be rejected.
    bank = MemoryBank(5, 8)
    e = np.eye(8)
    bank.features[0] = unit(e[0])
    bank.features[1] = unit(0.75 * e[0] + 0.66 * e[1])  # near i and the clique
    bank.features[2] = unit(0.05 * e[0] + e[1])
    bank.features[3] = unit(0.04 * e[0] + e[1])
    bank.features[4] = unit(0.66 * e[0] + 0.70 * e[1])
    lab = mplp_predict(bank, 0, 0.6)
    assert lab.positives == brute_force_mplp(bank, 0, 0.6)
    assert 4 not in lab.positives  # rejected by cycle consistency


def test_mplp_oracle_random_banks():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(2, 16))
        bank = random_bank(rng, n, d)
        t = float(rng.choice([0.3, 0.6, 0.8]))
        for i in range(n):
            assert mplp_predict(bank, i, t).positives == brute_force_mplp(bank, i, t)


def test_mplp_invariants():
    rng = np.random.default_rng(3)
    bank = random_bank(rng, 40, 6)
    for i in range(40):
        mp = set(mplp_predict(bank, i, 0.6).positives)
        ss = set(similarity_score_predict(bank, i, 0.6).positives)
        assert i in mp
        assert mp <= ss <= set(range(40))


def test_mplp_adaptive_cardinality():
    # two planted cluster sizes: positive-set sizes must differ across anchors
    rng = np.random.default_rng(4)
    d = 16
    c1, c2 = unit(rng.normal(size=d)), None
    while c2 is None or abs(c1 @ c2) > 0.3:
        c2 = unit(rng.normal(size=d))
    rows = [unit(c1 + rng.normal(scale=0.05, size=d)) for _ in range(3)]
    rows += [unit(c2 + rng.normal(scale=0.05, size=d)) for _ in range(7)]
    bank = MemoryBank(10, d)
    for i, r in enumerate(rows):
        bank.overwrite_row(i, r)
    sizes = [len(mplp_predict(bank, i, 0.6).positives) for i in range(10)]
    assert max(sizes) != min(sizes)


# ---- baselines -----------------------------------------------------------


def test_knn_trivial():
    bank = random_bank(np.random.default_rng(5), 9, 4)
    assert knn_predict(bank, 3, 1).positives == (3,)
    assert knn_predict(bank, 3, 9).positives == tuple(range(9))
    with pytest.raises(ConfigError):
        knn_predict(bank, 3, 0)
    with pytest.raises(ConfigError):
        knn_predict(bank, 3, 10)


def test_knn_sort_oracle():
    rng = np.random.default_rng(6)
    bank = random_bank(rng, 20, 6)
    S = bank.features @ bank.features.T
    for i in range(20):
        expected = sorted(range(20), key=lambda j: (-S[i, j], j))[:8]
        assert set(knn_predict(bank, i, 8).positives) == set(expected)


def test_similarity_score_oracle():
    rng = np.random.default_rng(7)
    bank = random_bank(rng, 25, 5)
    S = bank.features @ bank.features.T
    for i in range(25):
        expected = {j for j in range(25) if S[i, j] >= 0.6} | {i}
        assert set(similarity_score_predict(bank, i, 0.6).positives) == expected


# ---- label_quality -------------------------------------------------------


def test_quality_exact_set():
    ids = np.array([0, 0, 0, 1, 1])
    lab = make_label(0, [1, 2], 5)
    assert label_quality(lab, ids) == (1.0, 1.0)


def test_quality_singleton():
    ids = np.array([0, 0, 0, 0, 1])
    lab = singleton_label(2, 5)
    assert label_quality(lab, ids) == (1.0, 0.25)


def test_quality_counting_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = 12
        ids = rng.integers(0, 3, size=n)
        anchor = int(rng.integers(n))
        extra = set(int(j) for j in rng.choice(n, size=4, replace=False))
        lab = make_label(anchor, extra, n)
        hits = sum(1 for j in lab.positives if ids[j] == ids[anchor])
        p, r = label_quality(lab, ids)
        assert p == pytest.approx(hits / len(lab.positives))
        assert r == pytest.approx(hits / int(np.sum(ids == ids[anchor])))


# ---- labels file ---------------------------------------------------------


def test_labels_roundtrip(tmp_path):
    labels = [make_label(0, [1, 2], 4), singleton_label(1, 4),
              make_label(2, [0], 4), singleton_label(3, 4)]
    path = tmp_path / "labels.csv"
    save_labels(LabelSet([0, 1, 2, 3], [2, 0, 1, 0], [1, 2, 0], 4), path)
    assert path.read_text() == "0: 0 1 2\n1: 1\n2: 0 2\n3: 3\n"
    loaded = load_labels(path, 4)
    assert list(loaded) == labels


def test_labels_parse_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0: 0 1\nnot a label line\n")
    with pytest.raises(ParseError) as err:
        load_labels(path, 4)
    assert err.value.line == 2


def test_mean_quality_matches_per_label_loop():
    # experiments._mean_quality feeds metrics.csv, so it must equal the mean
    # of per-label label_quality bit for bit
    from memlabel.experiments import _mean_quality

    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        ids = rng.integers(0, 5, size=n)
        extra = [rng.choice(n, size=int(rng.integers(0, 6))) for _ in range(n)]
        labels = LabelSet(np.arange(n), [e.size for e in extra], np.concatenate(extra), n)
        pairs = [label_quality(make_label(i, e, n), ids) for i, e in enumerate(extra)]
        expected = (float(np.mean([p for p, _ in pairs])),
                    float(np.mean([r for _, r in pairs])))
        assert _mean_quality(labels, ids) == expected


# ---- LabelSet ------------------------------------------------------------


def test_label_set_rows_are_the_multilabels_of_make_label():
    # unsorted positives with repeats, the anchor sometimes missing
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, m = int(rng.integers(1, 30)), int(rng.integers(0, 10))
        anchors = rng.integers(n, size=m)
        counts = rng.integers(0, 6, size=m)
        positives = rng.integers(n, size=int(counts.sum()))
        labels = LabelSet(anchors, counts, positives, n)
        expected = [make_label(a, p, n) for a, p in
                    zip(anchors.tolist(), np.split(positives, np.cumsum(counts)[:-1]))]
        assert list(labels) == expected
        assert [labels[a] for a in range(-m, 0)] == expected
        assert np.diff(labels.indptr).tolist() == [len(lab.positives) for lab in expected]
        rows = rng.permutation(m)[:int(rng.integers(0, m + 1))]
        np.testing.assert_array_equal(labels.mask(rows),
                                      positive_mask([expected[r] for r in rows], n))


def test_label_set_rejects_out_of_range_index(tmp_path):
    with pytest.raises(ConfigError):
        LabelSet([0], [1], [4], 4)
    path = tmp_path / "labels.csv"
    path.write_text("0: 0\n1: 1 4\n")
    with pytest.raises(ParseError) as err:
        load_labels(path, 4)
    assert err.value.line == 2
