"""Loss family: analytic values, hard-negative mining, and finite-difference
gradient oracles for every variant."""

import numpy as np
import pytest

from memlabel import (ConfigError, LossConfig, MemoryBank, compute_loss,
                      mine_hard_negatives)
from memlabel.labels import make_label, singleton_label
from memlabel.losses import (gradient_sweep, mcl_tau_loss, mem_softmax_ce_loss,
                             mmcl_loss, single_class_grad_magnitude,
                             write_gradient_sweep)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_instance(rng, n=16, d=8, batch=4):
    bank = MemoryBank(n, d)
    for i in range(n):
        bank.overwrite_row(i, unit(rng.normal(size=d)))
    feats = np.stack([unit(rng.normal(size=d)) for _ in range(batch)])
    labels = []
    for b in range(batch):
        anchor = int(rng.integers(n))
        extra = rng.choice(n, size=int(rng.integers(0, 5)), replace=False)
        labels.append(make_label(anchor, extra, n))
    return bank, feats, labels


def fd_grad(loss_fn, feats, h=1e-6):
    """Central finite differences of a scalar loss over the feature batch."""
    g = np.zeros_like(feats)
    for idx in np.ndindex(feats.shape):
        fp = feats.copy()
        fp[idx] += h
        fm = feats.copy()
        fm[idx] -= h
        g[idx] = (loss_fn(fp) - loss_fn(fm)) / (2 * h)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a))


# ---- per-class losses ----------------------------------------------------


def class_bank(n):
    """n one-hot rows: sample feature (s_0, .., s_{n-1}) scores s_j on class j."""
    bank = MemoryBank(n, n)
    for i in range(n):
        bank.overwrite_row(i, np.eye(n)[i])
    return bank


def mcl_value(scores, tau):
    """mcl_tau_loss of one sample, anchor 0, over one class per score."""
    bank = class_bank(len(scores))
    return mcl_tau_loss(np.array([scores]), [singleton_label(0, bank.n)], bank,
                        LossConfig("mcl_tau", tau=tau))


def test_mcl_class_analytic():
    # one class: log(1 + exp(-y * score / tau)) with y = +1
    assert mcl_value([0.0], 1.0).value == pytest.approx(np.log(2), abs=1e-12)
    assert mcl_value([1.0], 1.0).value == pytest.approx(0.313262, abs=1e-6)
    assert mcl_value([1.0], 0.1).value == pytest.approx(4.54e-5, rel=1e-2)
    with pytest.raises(ConfigError):
        LossConfig("mcl_tau", tau=0.0)


def test_mcl_class_stable_at_extremes():
    # softplus form must not overflow at large |score/tau|
    assert mcl_value([1.0], 0.001).value == pytest.approx(0.0, abs=1e-12)
    # class 1 is a negative (y = -1) scored 1: softplus(1000) = 1000
    report = mcl_value([1.0, 1.0], 0.001)
    assert report.value == pytest.approx(1000.0, rel=1e-12)
    assert np.all(np.isfinite(report.grad))


def test_mmcl_class_analytic():
    # (score - y)^2 per class; delta = 1 and the one negative class is kept
    def value(scores):
        bank = class_bank(len(scores))
        return mmcl_loss(np.array([scores]), [singleton_label(0, bank.n)], bank,
                         LossConfig("mmcl", delta=1.0, hard_ratio=100.0)).value

    assert value([1.0]) == 0.0
    assert value([-0.5]) == pytest.approx(2.25)
    assert value([1.0, 0.0]) == 1.0  # positive at 1, negative (y = -1) at 0


# ---- config validation ---------------------------------------------------


def test_loss_config_validation():
    LossConfig("mmcl", tau=0.5, delta=5.0, hard_ratio=1.0)
    with pytest.raises(ConfigError):
        LossConfig("bogus")
    with pytest.raises(ConfigError):
        LossConfig("mcl_tau", tau=0.0)
    with pytest.raises(ConfigError):
        LossConfig("mmcl", delta=0.5)
    with pytest.raises(ConfigError):
        LossConfig("mmcl", hard_ratio=0.0)
    with pytest.raises(ConfigError):
        LossConfig("mmcl", hard_ratio=101.0)


# ---- hard-negative mining ------------------------------------------------


def test_mining_count_formula():
    rng = np.random.default_rng(0)
    scores = rng.uniform(-1, 1, size=200)
    lab = make_label(0, [1, 2, 3], 200)
    mined = mine_hard_negatives(scores, lab, 1.0)
    assert mined.size == 1  # floor((200-4)*0.01) = 1


def test_mining_r100_takes_all():
    rng = np.random.default_rng(1)
    scores = rng.uniform(-1, 1, size=50)
    lab = make_label(0, [5], 50)
    mined = mine_hard_negatives(scores, lab, 100.0)
    assert set(mined) == set(range(50)) - {0, 5}


def test_mining_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        scores = rng.uniform(-1, 1, size=n)
        anchor = int(rng.integers(n))
        extra = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        lab = make_label(anchor, extra, n)
        r = float(rng.choice([1.0, 10.0, 50.0, 100.0]))
        pos = set(lab.positives)
        count = max(1, int(np.floor((n - len(pos)) * r / 100.0)))
        ranked = sorted((j for j in range(n) if j not in pos),
                        key=lambda j: (-scores[j], j))
        mined = mine_hard_negatives(scores, lab, r)
        assert list(mined) == ranked[:count]
        assert pos.isdisjoint(mined)


def test_mining_tie_break_ascending():
    scores = np.array([0.0, 0.5, 0.5, 0.5])
    lab = singleton_label(0, 4)
    mined = mine_hard_negatives(scores, lab, 34.0)  # floor(3*0.34)=1
    assert list(mined) == [1]


def test_mining_no_negatives():
    lab = make_label(0, [1], 2)
    with pytest.raises(ConfigError):
        mine_hard_negatives(np.zeros(2), lab, 1.0)


# ---- mmcl loss -----------------------------------------------------------


def test_mmcl_global_optimum():
    bank = MemoryBank(2, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [-1.0, 0.0]
    feats = np.array([[1.0, 0.0]])
    report = mmcl_loss(feats, [singleton_label(0, 2)],
                       bank, LossConfig("mmcl", hard_ratio=100.0))
    assert report.value == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(report.grad, 0.0, atol=1e-15)


def test_mmcl_single_positive_analytic():
    # positive score 0, delta=5, singleton positive set -> loss 5 + negative
    # term; engineered so the mined negative contributes nothing
    bank = MemoryBank(2, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [0.0, -1.0]
    feats = np.array([[0.0, 1.0]])  # score_0 = 0, score_1 = -1
    report = mmcl_loss(feats, [singleton_label(0, 2)],
                       bank, LossConfig("mmcl", delta=5.0))
    assert report.value == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(report.grad[0], -10.0 * bank.features[0],
                               atol=1e-12)


def test_mmcl_nonnegative_and_mined_disjoint():
    rng = np.random.default_rng(3)
    bank, feats, labels = random_instance(rng)
    report = mmcl_loss(feats, labels, bank, LossConfig("mmcl"))
    assert report.value >= 0.0
    for lab, mined in zip(labels, report.hard_negatives):
        assert set(lab.positives).isdisjoint(np.flatnonzero(mined))
        assert np.count_nonzero(mined) == max(1, (bank.n - len(lab.positives)) // 100)


@pytest.mark.parametrize("cfg", [
    LossConfig("mmcl", delta=5.0, hard_ratio=1.0),
    LossConfig("mmcl", delta=1.0, hard_ratio=50.0),
    LossConfig("mcl"),
    LossConfig("mcl_tau", tau=1.0),
    LossConfig("mcl_tau", tau=0.1),
    LossConfig("mem_softmax_ce", tau=0.5),
])
def test_loss_gradients_match_finite_differences(cfg):
    rng = np.random.default_rng(4)
    for _ in range(5):
        bank, feats, labels = random_instance(rng)
        report = compute_loss(feats, labels, bank, cfg)

        def value(f):
            return compute_loss(f, labels, bank, cfg).value

        assert rel_err(report.grad, fd_grad(value, feats)) <= 1e-6


def test_mcl_is_mcl_tau_at_one():
    rng = np.random.default_rng(5)
    bank, feats, labels = random_instance(rng)
    a = compute_loss(feats, labels, bank, LossConfig("mcl"))
    b = mcl_tau_loss(feats, labels, bank, LossConfig("mcl_tau", tau=1.0))
    assert a.value == pytest.approx(b.value, abs=1e-15)
    np.testing.assert_array_equal(a.grad, b.grad)


def test_softmax_ce_uniform_and_saturated():
    bank = MemoryBank(2, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [1.0, 0.0]  # equal scores for any feature
    feats = np.array([[0.0, 1.0]])
    report = mem_softmax_ce_loss(feats, [singleton_label(0, 2)],
                                 bank, LossConfig("mem_softmax_ce", tau=1.0))
    assert report.value == pytest.approx(np.log(2), abs=1e-12)
    # saturation: a dominant positive score drives the loss toward zero
    bank.features[1] = [-1.0, 0.0]
    feats = np.array([[1.0, 0.0]])
    report = mem_softmax_ce_loss(feats, [singleton_label(0, 2)],
                                 bank, LossConfig("mem_softmax_ce", tau=0.05))
    assert report.value == pytest.approx(0.0, abs=1e-12)


# ---- gradient magnitude sweep --------------------------------------------


def test_single_class_magnitudes_analytic():
    assert single_class_grad_magnitude("mmcl", 5.0, 0.9) == pytest.approx(1.0)
    assert single_class_grad_magnitude("mmcl", 5.0, -1.0) == pytest.approx(20.0)
    assert single_class_grad_magnitude("mcl_tau", 0.1, 0.5) == pytest.approx(
        0.0669, abs=2e-4)
    with pytest.raises(ConfigError):
        single_class_grad_magnitude("mem_softmax_ce", 1.0, 0.0)


def test_gradient_sweep_table(tmp_path):
    grid = [-1.0, 0.0, 0.9]
    rows = gradient_sweep(grid)
    assert len(rows) == 4 * len(grid)
    variants = {(v, p) for v, p, _, _ in rows}
    assert variants == {("mcl_tau", 1.0), ("mcl_tau", 0.1),
                        ("mmcl", 1.0), ("mmcl", 5.0)}
    path = tmp_path / "sweep.csv"
    write_gradient_sweep(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,param,score,grad_magnitude"
    assert len(lines) == 1 + len(rows)


# ---- batched mmcl against the per-sample formula ---------------------------


def brute_force_mmcl(feats, labels, bank, delta, r):
    """The loss one sample at a time, with a plain sort of each sample's
    negatives: (value, grad, mined negatives per sample, ties at the cut)."""
    S = feats @ bank.features.T
    total, grad, mined, ties = 0.0, np.zeros_like(feats), [], 0
    for b, lab in enumerate(labels):
        pos = list(lab.positives)
        negs = sorted((j for j in range(bank.n) if j not in pos), key=lambda j: (-S[b, j], j))
        neg = negs[:max(1, int(np.floor(len(negs) * r / 100.0)))] if negs else []
        ties += 0 < len(neg) < len(negs) and S[b, neg[-1]] == S[b, negs[len(neg)]]
        wp = delta / len(pos)
        total += wp * np.sum((S[b, pos] - 1.0) ** 2)
        grad[b] = 2.0 * wp * (S[b, pos] - 1.0) @ bank.features[pos]
        if neg:
            wn = 1.0 / len(neg)
            total += wn * np.sum((S[b, neg] + 1.0) ** 2)
            grad[b] += 2.0 * wn * (S[b, neg] + 1.0) @ bank.features[neg]
        mined.append(set(neg))
    return total / len(labels), grad / len(labels), mined, ties


@pytest.mark.parametrize("hard_ratio", [1.0, 10.0, 33.0, 100.0])
def test_batched_mmcl_matches_per_sample_loop(hard_ratio):
    # scores are multiples of 1/16 with many exact ties; |P| is ragged and one
    # sample has every class positive
    rng = np.random.default_rng(31)
    ties = 0
    for _ in range(30):
        n, d, batch = int(rng.integers(2, 40)), 4, int(rng.integers(1, 9))
        bank = MemoryBank(n, d)
        bank.features[:] = rng.integers(-2, 3, size=(n, d)) / 4.0
        feats = rng.integers(-2, 3, size=(batch, d)) / 4.0
        labels = [make_label(int(rng.integers(n)),
                             rng.choice(n, size=int(rng.integers(0, n)), replace=False), n)
                  for _ in range(batch)]
        labels[-1] = make_label(0, range(n), n)
        cfg = LossConfig("mmcl", delta=5.0, hard_ratio=hard_ratio)
        report = compute_loss(feats, labels, bank, cfg)
        value, grad, mined, t = brute_force_mmcl(feats, labels, bank, 5.0, hard_ratio)
        ties += t
        assert report.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(report.grad, grad, rtol=0, atol=1e-12)
        assert [set(np.flatnonzero(row)) for row in report.hard_negatives] == mined
    assert hard_ratio == 100.0 or ties > 0
