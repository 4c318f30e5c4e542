"""Memory bank: init, momentum updates, similarity, rank lists, snapshots."""

import tracemalloc

import numpy as np
import pytest

from memlabel import ConfigError, MemoryBank, NumericError
from memlabel.bank import ZERO_NORM_EPS
from memlabel.errors import ParseError


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def warm_bank(rng, n, d):
    bank = MemoryBank(n, d)
    for i in range(n):
        bank.overwrite_row(i, unit(rng.normal(size=d)))
    return bank


# ---- init ----------------------------------------------------------------


def test_init_zero_rows():
    bank = MemoryBank(3, 2)
    assert np.array_equal(bank.features, np.zeros((3, 2)))
    assert bank.epoch == 0


def test_init_minimal():
    bank = MemoryBank(1, 1)
    assert bank.features.shape == (1, 1)
    assert bank.features[0, 0] == 0.0


def test_init_rejects_empty():
    with pytest.raises(ConfigError):
        MemoryBank(0, 4)
    with pytest.raises(ConfigError):
        MemoryBank(4, 0)


# ---- update_row ----------------------------------------------------------


def test_update_symmetric_blend():
    bank = MemoryBank(1, 2)
    bank.features[0] = [0.0, 1.0]
    bank.update_row(0, np.array([1.0, 0.0]), 0.5)
    expected = unit([0.5, 0.5])
    np.testing.assert_allclose(bank.features[0], expected, atol=1e-12)
    np.testing.assert_allclose(bank.features[0], [0.70711, 0.70711], atol=1e-5)


def test_update_alpha_zero_keeps_zero_row():
    bank = MemoryBank(1, 2)
    bank.update_row(0, np.array([1.0, 0.0]), 0.0)
    assert np.array_equal(bank.features[0], [0.0, 0.0])


def test_update_alpha_zero_is_bitwise_identity():
    rng = np.random.default_rng(0)
    bank = warm_bank(rng, 5, 4)
    before = bank.features.copy()
    for i in range(5):
        bank.update_row(i, unit(rng.normal(size=4)), 0.0)
    assert np.array_equal(bank.features, before)  # bit-for-bit


def test_update_fixed_point():
    bank = MemoryBank(1, 2)
    bank.features[0] = [1.0, 0.0]
    bank.update_row(0, np.array([1.0, 0.0]), 0.3)
    np.testing.assert_allclose(bank.features[0], [1.0, 0.0], atol=1e-15)


def test_update_errors():
    bank = MemoryBank(2, 2)
    with pytest.raises(IndexError):
        bank.update_row(2, np.array([1.0, 0.0]), 0.5)
    with pytest.raises(NumericError):
        bank.update_row(0, np.array([np.nan, 0.0]), 0.5)
    with pytest.raises(ConfigError):
        bank.update_row(0, np.array([1.0, 0.0]), 1.5)
    with pytest.raises(ConfigError):
        bank.update_row(0, np.array([1.0, 0.0, 0.0]), 0.5)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_update_rows_matches_row_loop(alpha):
    # half the rows cold, one of them fed a zero feature (stored as-is)
    rng = np.random.default_rng(12)
    for _ in range(20):
        bank = MemoryBank(10, 4)
        for i in range(0, 10, 2):
            bank.overwrite_row(i, rng.normal(size=4))
        rows = rng.permutation(10)[:7]
        feats = rng.normal(size=(7, 4))
        feats[np.flatnonzero(rows % 2)[0]] = 0.0
        expected = bank.features.copy()
        for i, f in zip(rows, feats):  # the per-row update, written out
            old = expected[i]
            if np.linalg.norm(old) <= ZERO_NORM_EPS:
                new = f
            elif alpha == 0.0:
                continue
            else:
                new = alpha * f + (1.0 - alpha) * old
            norm = np.linalg.norm(new)
            expected[i] = new / norm if norm > ZERO_NORM_EPS else new
        bank.update_rows(rows, feats, alpha)
        np.testing.assert_array_equal(bank.features, expected)


def test_update_rows_errors_write_nothing():
    bank = warm_bank(np.random.default_rng(13), 5, 3)
    before = bank.features.copy()
    good = np.ones((2, 3))
    bad = good.copy()
    bad[1, 2] = np.nan
    with pytest.raises(NumericError, match="sample 4"):
        bank.update_rows([1, 4], bad, 0.5)
    with pytest.raises(ConfigError):
        bank.update_rows([1, 4], good, 1.5)
    with pytest.raises(ConfigError):
        bank.update_rows([1, 1], good, 0.5)  # a row twice
    with pytest.raises(ConfigError):
        bank.update_rows([1], good, 0.5)
    with pytest.raises(IndexError):
        bank.update_rows([1, 5], good, 0.5)
    np.testing.assert_array_equal(bank.features, before)


def test_rows_unit_norm_after_update_sequences():
    rng = np.random.default_rng(1)
    bank = MemoryBank(10, 6)
    for _ in range(200):
        i = int(rng.integers(10))
        f = unit(rng.normal(size=6))
        if bank.row_norm(i) == 0.0:
            bank.overwrite_row(i, f)
        else:
            bank.update_row(i, f, float(rng.uniform(0.05, 1.0)))
    norms = np.linalg.norm(bank.features, axis=1)
    touched = norms > 0
    np.testing.assert_allclose(norms[touched], 1.0, atol=1e-6)


# ---- similarity ----------------------------------------------------------


def test_similarity_basic():
    bank = MemoryBank(3, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [0.0, 1.0]
    bank.features[2] = [-1.0, 0.0]
    assert bank.similarity(0, 0) == pytest.approx(1.0)
    assert bank.similarity(0, 1) == pytest.approx(0.0)
    assert bank.similarity(0, 2) == pytest.approx(-1.0)
    with pytest.raises(IndexError):
        bank.similarity(0, 3)


def test_similarity_symmetric():
    bank = warm_bank(np.random.default_rng(2), 20, 8)
    for i in range(20):
        for j in range(20):
            assert abs(bank.similarity(i, j) - bank.similarity(j, i)) <= 1e-12


# ---- rank_list -----------------------------------------------------------


def test_rank_list_hand_case():
    bank = MemoryBank(3, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [1.0, 0.0]
    bank.features[2] = [0.0, 1.0]
    r = bank.rank_list(0)
    assert list(r.order) == [0, 1, 2]
    np.testing.assert_allclose(r.scores, [1.0, 1.0, 0.0], atol=1e-12)


def test_rank_list_matches_brute_force_sort():
    rng = np.random.default_rng(3)
    for n in (5, 37, 200):
        bank = warm_bank(rng, n, 8)
        S = bank.features @ bank.features.T
        for i in range(0, n, max(1, n // 7)):
            expected = sorted(range(n), key=lambda j: (-S[i, j], j))
            r = bank.rank_list(i)
            assert list(r.order) == expected
            np.testing.assert_allclose(r.scores, S[i, expected], atol=1e-12)


def test_rank_list_self_first():
    bank = warm_bank(np.random.default_rng(4), 15, 6)
    for i in range(15):
        assert bank.rank_list(i).order[0] == i


def test_rank_list_zero_row_rejected():
    bank = MemoryBank(3, 2)
    with pytest.raises(NumericError):
        bank.rank_list(0)


# ---- score_against_memory ------------------------------------------------


def test_scores_basic():
    bank = MemoryBank(2, 2)
    bank.features[0] = [1.0, 0.0]
    bank.features[1] = [0.0, 1.0]
    np.testing.assert_allclose(
        bank.score_against_memory(np.array([1.0, 0.0])), [1.0, 0.0]
    )


def test_scores_orthogonal_and_oracle():
    rng = np.random.default_rng(5)
    bank = warm_bank(rng, 12, 5)
    f = unit(rng.normal(size=5))
    scores = bank.score_against_memory(f)
    for j in range(12):
        assert abs(scores[j] - float(bank.features[j] @ f)) <= 1e-12
    # batch form agrees with per-vector form
    F = np.stack([f, -f])
    batch = bank.score_against_memory(F)
    np.testing.assert_allclose(batch[0], scores, atol=1e-15)
    np.testing.assert_allclose(batch[1], -scores, atol=1e-15)


def test_scores_dim_mismatch():
    bank = MemoryBank(2, 3)
    with pytest.raises(ConfigError):
        bank.score_against_memory(np.array([1.0, 0.0]))


# ---- snapshot I/O --------------------------------------------------------


def test_bank_roundtrip(tmp_path):
    bank = warm_bank(np.random.default_rng(6), 7, 4)
    bank.epoch = 12
    bank.update_rate = 0.35
    path = tmp_path / "bank.csv"
    bank.save(path)
    loaded = MemoryBank.load(path)
    assert loaded.n == 7 and loaded.d == 4
    assert loaded.epoch == 12
    assert loaded.update_rate == 0.35
    np.testing.assert_array_equal(loaded.features, bank.features)


def test_bank_load_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n")
    with pytest.raises(ParseError):
        MemoryBank.load(path)
    path.write_text("2,3,0,0.5\n1,0,0\n")  # missing second row
    with pytest.raises(ParseError):
        MemoryBank.load(path)
    path.write_text("1,3,0,0.5\n1,0\n")  # short row
    with pytest.raises(ParseError):
        MemoryBank.load(path)


def test_bank_load_rejects_extra_rows(tmp_path):
    bank = MemoryBank(256, 3)
    bank.features[:] = 1.0 / np.sqrt(3)
    path = tmp_path / "bank.csv"
    bank.save(path)
    with open(path, "a") as fh:
        fh.write("1,0,0\n")  # row 257 for a header that says n = 256
    with pytest.raises(ParseError) as err:
        MemoryBank.load(path)
    assert err.value.line == 258


def test_bank_load_rejects_non_finite_value(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("3,2,0,0.5\n1,0\nnan,1\n0,1\n")  # row 2 is line 3
    with pytest.raises(ParseError) as err:
        MemoryBank.load(path)
    assert err.value.line == 3


def test_bank_load_rejects_empty_header(tmp_path):
    path = tmp_path / "bank.csv"
    path.write_text("0,3,0,0.5")
    with pytest.raises(ParseError) as err:
        MemoryBank.load(path)
    assert err.value.line == 1


def test_bank_load_sizes_memory_from_rows_read(tmp_path):
    # a header claiming 10^12 rows must not allocate 10^12 x 3 values
    path = tmp_path / "bank.csv"
    path.write_text("1000000000000,3,0,0.5\n1,0,0\n0,1,0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated"):
            MemoryBank.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
