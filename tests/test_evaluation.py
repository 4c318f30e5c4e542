"""Retrieval metrics: CMC/mAP against a naive reference, camera exclusion,
tie handling, and report files."""

import logging

import numpy as np
import pytest

import memlabel.bank as bank_module
from memlabel import ConfigError, MetricsReport, RetrievalSplit, evaluate
from memlabel.data import SampleRecord
from memlabel.evaluation import (label_curve, split_for_benchmark,
                                 write_label_curve, write_metrics_log)


def unit_rows(rng, n, d):
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def naive_metrics(split):
    """Straight-line reference: per-query loop, sort, count."""
    Q = split.query_features
    G = split.gallery_features
    n_g = G.shape[0]
    cmc = np.zeros(n_g)
    aps = []
    skipped = 0
    for q in range(Q.shape[0]):
        valid = []
        for g in range(n_g):
            if (split.query_cams is not None
                    and split.gallery_ids[g] == split.query_ids[q]
                    and split.gallery_cams[g] == split.query_cams[q]):
                continue
            valid.append(g)
        sims = {g: float(Q[q] @ G[g]) for g in valid}
        order = sorted(valid, key=lambda g: (-sims[g], g))
        hits = [r for r, g in enumerate(order)
                if split.gallery_ids[g] == split.query_ids[q]]
        if not hits:
            skipped += 1
            continue
        cmc[hits[0]:] += 1
        aps.append(np.mean([(h + 1) / (rank + 1)
                            for h, rank in enumerate(hits)]))
    n_eval = Q.shape[0] - skipped
    return cmc / n_eval, float(np.mean(aps)), skipped


def random_split(rng, with_cams):
    n_q = int(rng.integers(3, 20))
    n_g = int(rng.integers(5, 100))
    d = 6
    n_ids = int(rng.integers(2, 6))
    split = RetrievalSplit(
        query_features=unit_rows(rng, n_q, d),
        query_ids=rng.integers(0, n_ids, size=n_q),
        gallery_features=unit_rows(rng, n_g, d),
        gallery_ids=rng.integers(0, n_ids, size=n_g),
    )
    if with_cams:
        split.query_cams = rng.integers(0, 3, size=n_q)
        split.gallery_cams = rng.integers(0, 3, size=n_g)
    return split


# ---- basic cases ---------------------------------------------------------


def test_self_retrieval_upper_bound():
    rng = np.random.default_rng(0)
    F = unit_rows(rng, 8, 5)
    ids = np.arange(8)
    report = evaluate(RetrievalSplit(F, ids, F, ids))
    assert report.rank(1) == 1.0
    assert report.map == pytest.approx(1.0)


def test_hand_computed_ap():
    # one query; the only true match ranks second -> AP = 1/2
    q = np.array([[1.0, 0.0]])
    G = np.array([[0.9, np.sqrt(1 - 0.81)],
                  [0.8, np.sqrt(1 - 0.64)],
                  [0.1, np.sqrt(1 - 0.01)],
                  [0.0, 1.0]])
    report = evaluate(RetrievalSplit(q, np.array([7]), G,
                                     np.array([1, 7, 2, 3])))
    assert report.map == pytest.approx(0.5)
    assert report.rank(1) == 0.0
    assert report.rank(2) == 1.0


def test_oracle_equivalence_random_splits():
    rng = np.random.default_rng(1)
    for trial in range(30):
        split = random_split(rng, with_cams=(trial % 2 == 0))
        try:
            report = evaluate(split)
        except ConfigError:
            continue  # no evaluable query in this draw
        cmc, mAP, skipped = naive_metrics(split)
        np.testing.assert_allclose(report.cmc, cmc, atol=1e-12)
        assert abs(report.map - mAP) <= 1e-12
        assert report.skipped_queries == skipped


def lexsort_reference(split):
    """Per-query loop with a full lexsort of the kept gallery: (cmc, per-query
    AP, skipped query indices)."""
    Q, G = split.query_features, split.gallery_features
    cmc_hits, aps, skipped = np.zeros(G.shape[0]), [], []
    for q in range(Q.shape[0]):
        keep = np.ones(G.shape[0], dtype=bool)
        if split.query_cams is not None:
            keep &= ~((split.gallery_ids == split.query_ids[q])
                      & (split.gallery_cams == split.query_cams[q]))
        idx = np.flatnonzero(keep)
        sims = Q[q] @ G[idx].T
        order = idx[np.lexsort((idx, -sims))]
        ranks = np.flatnonzero(split.gallery_ids[order] == split.query_ids[q])
        if ranks.size == 0:
            skipped.append(q)
            continue
        cmc_hits[ranks[0]:] += 1
        aps.append(float(np.mean((np.arange(ranks.size) + 1) / (ranks + 1))))
    return cmc_hits / max(1, len(aps)), np.array(aps), skipped


@pytest.mark.parametrize("queries_per_block", [1, 3, None])
def test_blocked_evaluate_matches_lexsort_loop(monkeypatch, caplog, queries_per_block):
    # features in {-2, ..., 2} / 4 give exact score ties; query identity 5
    # never occurs in the gallery, so such queries are skipped
    rng = np.random.default_rng(22)
    checked = 0
    for trial in range(40):
        n_q, n_g = int(rng.integers(1, 30)), int(rng.integers(1, 50))
        split = RetrievalSplit(
            query_features=rng.integers(-2, 3, size=(n_q, 3)) / 4.0,
            query_ids=rng.integers(0, 6, size=n_q),
            gallery_features=rng.integers(-2, 3, size=(n_g, 3)) / 4.0,
            gallery_ids=rng.integers(0, 5, size=n_g),
        )
        if trial % 2:
            split.query_cams = rng.integers(0, 2, size=n_q)
            split.gallery_cams = rng.integers(0, 2, size=n_g)
        entries = (queries_per_block or n_q) * n_g
        monkeypatch.setattr(bank_module, "RANK_BLOCK_ENTRIES", entries)
        cmc, aps, skipped = lexsort_reference(split)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="memlabel.evaluation"):
            if not aps.size:
                with pytest.raises(ConfigError):
                    evaluate(split)
                continue
            report = evaluate(split)
        np.testing.assert_array_equal(report.cmc, cmc)
        # AP sums a query's precisions in gallery order, not rank order
        np.testing.assert_allclose(report.per_query_ap, aps, rtol=0, atol=1e-15)
        assert report.map == pytest.approx(float(np.mean(aps)), rel=0, abs=1e-15)
        assert report.skipped_queries == len(skipped)
        assert [r.getMessage() for r in caplog.records] == [
            f"query {q} has no valid gallery match; skipped" for q in skipped]
        checked += 1
    assert checked >= 30


def test_camera_exclusion_blocks_same_camera_match():
    q = np.array([[1.0, 0.0]])
    G = np.array([[1.0, 0.0], [0.0, 1.0]])
    # same identity, same camera: the perfect match is excluded, no match left
    split = RetrievalSplit(q, np.array([0]), G, np.array([0, 1]),
                           query_cams=np.array([0]),
                           gallery_cams=np.array([0, 1]))
    with pytest.raises(ConfigError):
        evaluate(split)
    # different camera: exclusion does not apply
    split.gallery_cams = np.array([1, 1])
    assert evaluate(split).rank(1) == 1.0


def test_skipped_queries_counted():
    q = unit_rows(np.random.default_rng(2), 2, 3)
    G = unit_rows(np.random.default_rng(3), 3, 3)
    report = evaluate(RetrievalSplit(q, np.array([0, 9]), G,
                                     np.array([0, 0, 1])))
    assert report.skipped_queries == 1


def test_dim_mismatch():
    with pytest.raises(ConfigError):
        evaluate(RetrievalSplit(np.zeros((1, 3)), np.array([0]),
                                np.zeros((1, 4)), np.array([0])))


# ---- invariants ----------------------------------------------------------


def test_cmc_monotone_and_saturates():
    rng = np.random.default_rng(4)
    for _ in range(10):
        split = random_split(rng, with_cams=False)
        try:
            report = evaluate(split)
        except ConfigError:
            continue
        assert np.all(np.diff(report.cmc) >= -1e-15)
        assert report.cmc[-1] == pytest.approx(1.0)


def test_gallery_permutation_invariance():
    rng = np.random.default_rng(5)
    split = random_split(rng, with_cams=False)
    report = evaluate(split)
    perm = rng.permutation(split.gallery_features.shape[0])
    shuffled = RetrievalSplit(split.query_features, split.query_ids,
                              split.gallery_features[perm],
                              split.gallery_ids[perm])
    report2 = evaluate(shuffled)
    np.testing.assert_allclose(report2.cmc, report.cmc, atol=1e-12)
    assert report2.map == pytest.approx(report.map, abs=1e-12)


# ---- benchmark split -----------------------------------------------------


def test_split_single_shot_structure():
    rng = np.random.default_rng(6)
    records = []
    for ident in range(4):
        for k in range(5):
            records.append(SampleRecord(index=len(records),
                                        observation=rng.normal(size=3),
                                        identity=ident))
    feats = unit_rows(rng, len(records), 3)
    split = split_for_benchmark(records, feats)
    assert split.gallery_ids.shape == (4,)  # one gallery entry per identity
    assert sorted(split.gallery_ids) == [0, 1, 2, 3]
    assert split.query_ids.shape == (16,)
    with pytest.raises(ConfigError):
        split_for_benchmark([SampleRecord(0, np.zeros(3))], feats[:1])


# ---- report files --------------------------------------------------------


def test_metrics_report_summary(tmp_path):
    report = MetricsReport(cmc=np.array([0.5, 0.75, 1.0]), map=0.8,
                           per_query_ap=np.array([0.8]))
    s = report.summary()
    assert s["rank1"] == 0.5 and s["mAP"] == 0.8
    path = tmp_path / "metrics.json"
    report.save_summary(path)
    assert '"rank1"' in path.read_text()


def test_metrics_log_and_label_curve(tmp_path):
    rows = [{"epoch": 0, "loss": 1.5, "label_precision": 1.0,
             "label_recall": 0.25, "rank1": 0.5, "mAP": 0.4,
             "mean_positives": 1.0, "knn_precision": 0.9, "knn_recall": 0.8}]
    log = tmp_path / "metrics.csv"
    write_metrics_log(rows, log)
    assert log.read_text().splitlines()[0] == (
        "epoch,loss,label_precision,label_recall,rank1,mAP,mean_positives")
    curve = label_curve(rows, "mplp")
    assert ("mplp" in {c[1] for c in curve}) and ("knn" in {c[1] for c in curve})
    curve_path = tmp_path / "curve.csv"
    write_label_curve(curve, curve_path)
    assert curve_path.read_text().startswith("epoch,predictor,precision,recall")
