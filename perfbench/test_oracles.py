"""Each oracle on a small input whose answer is worked out by hand.

Run from the repository root: python3 -m pytest perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles


def at(degrees):
    rad = math.radians(degrees)
    return [math.cos(rad), math.sin(rad)]


def test_mplp_cycle_check_rejects_second_candidate():
    # Rows on the unit circle at 0, 40, -70 and 60 degrees, t = 0.6
    # (about 53 degrees). Anchor 0's candidates are [0, 1]: k = 2. Row 1's
    # top 2 is [1, 3] (row 3 is 20 degrees away, row 0 is 40), so candidate
    # 1 is rejected and anchor 0 keeps only itself.
    # Anchor 1: candidates [1, 3, 0], k = 3. Row 3's top 3 is [3, 1, 0] and
    # row 0's is [0, 1, 3]: both hold 1, so all three are accepted.
    # Anchor 2 has no neighbour within 53 degrees: {2}.
    # Anchor 3: candidates [3, 1], k = 2; row 1's top 2 is [1, 3]: {1, 3}.
    bank = np.array([at(0), at(40), at(-70), at(60)])
    labels, candidates, ambiguous = oracles.mplp(bank, 0.6)
    assert labels == [(0,), (0, 1, 3), (2,), (1, 3)]
    assert candidates == [{0, 1}, {0, 1, 3}, {2}, {1, 3}]
    assert ambiguous == set()


def test_mplp_stops_at_first_rejection():
    # Rows at 0, 30, -25, 50, 55, -60, -33 and 45 degrees; t = 0.8 (about
    # 36.9 degrees). Anchor 0's candidates by score are [0, 2 (25 degrees
    # away), 1 (30), 6 (33)], k = 4.
    # Row 2's top 4 is [2, 6 (8), 0 (25), 5 (35)]: holds 0, accepted.
    # Row 1's top 4 is [1, 7 (15), 3 (20), 4 (25)]: no 0, rejected, and the
    # walk stops there, so row 6 is left out although its top 4,
    # [6, 2 (8), 5 (27), 0 (33)], holds 0.
    bank = np.array([at(a) for a in (0, 30, -25, 50, 55, -60, -33, 45)])
    labels, candidates, _ = oracles.mplp(bank, 0.8)
    assert candidates[0] == {0, 1, 2, 6}
    assert labels[0] == (0, 2)


def test_mplp_inclusive_threshold_is_flagged_as_near_tie():
    # Row 1 scores exactly 0.5 against row 0, so it is a candidate at t = 0.5;
    # the decision sits on the threshold and is reported as ambiguous.
    bank = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
    labels, candidates, ambiguous = oracles.mplp(bank, 0.5)
    assert candidates[0] == {0, 1}
    assert labels[0] == (0, 1)
    assert 0 in ambiguous


def test_label_quality():
    # ids [0, 0, 0, 1]: anchor 0 keeps {0, 1, 3}: precision 2/3, recall 2/3;
    # anchor 1 keeps {1}: 1, 1/3; anchor 2 keeps {0, 1, 2}: 1, 1;
    # anchor 3 keeps {3}: 1, 1.
    ids = np.array([0, 0, 0, 1])
    labels = [(0, 1, 3), (1,), (0, 1, 2), (3,)]
    precision, recall = oracles.label_quality(labels, ids)
    assert precision == pytest.approx((2 / 3 + 1 + 1 + 1) / 4)
    assert recall == pytest.approx((2 / 3 + 1 / 3 + 1 + 1) / 4)


def test_cmc_map_excludes_same_identity_same_camera():
    # Gallery rows are one-hot, so a query's scores are its own entries.
    # Gallery: g0 = (A, cam 0), g1 = (B, cam 1), g2 = (A, cam 1).
    # q0 (A, cam 0), scores (.9, .5, .1): g0 excluded; ranking g1, g2 ->
    #   first match at rank 2, AP 1/2.
    # q1 (B, cam 0), scores (.2, .8, .3): g1 first -> AP 1.
    # q2 (A, cam 1), scores (.7, .1, .6): g2 excluded; g0 first -> AP 1.
    gallery = np.eye(3)
    queries = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.3], [0.7, 0.1, 0.6]])
    q_ids, g_ids = np.array([0, 1, 0]), np.array([0, 1, 0])
    q_cams, g_cams = np.array([0, 0, 1]), np.array([0, 1, 1])
    rank1, mAP, skipped = oracles.cmc_map(queries, q_ids, gallery, g_ids, q_cams, g_cams)
    assert (rank1, skipped) == (2 / 3, 0)
    assert mAP == pytest.approx((0.5 + 1 + 1) / 3)
    # Without cameras nothing is excluded: q0 finds g0 first, then g2 at
    # rank 3: AP (1/1 + 2/3) / 2; q2 finds g0, then g2: AP 1.
    rank1, mAP, _ = oracles.cmc_map(queries, q_ids, gallery, g_ids)
    assert rank1 == 1.0
    assert mAP == pytest.approx(((1 + 2 / 3) / 2 + 1 + 1) / 3)


def test_cmc_map_ties_rank_by_gallery_index_and_skips_unmatched():
    # q0 scores g0 and g1 equally; g1 is its match, so it ranks second.
    # q1's identity is absent from the gallery: skipped.
    gallery = np.eye(2)
    queries = np.array([[0.5, 0.5], [1.0, 0.0]])
    rank1, mAP, skipped = oracles.cmc_map(queries, np.array([1, 7]), gallery, np.array([0, 1]))
    assert (rank1, mAP, skipped) == (0.0, 0.5, 1)


def test_mmcl_loss_and_gradient():
    # Memory rows (1,0), (0,1), (-1,0), (0,-1); feature (.6,.8); positives {0};
    # delta 5; r = 50 % of 3 negatives -> floor(1.5) = 1 hard negative, the
    # highest scoring: row 1 (score .8).
    # loss = 5 * (.6 - 1)^2 + (.8 + 1)^2 = .8 + 3.24 = 4.04
    # grad = 2*5*(-.4)*(1,0) + 2*1.8*(0,1) = (-4, 3.6)
    memory = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    loss, grad = oracles.mmcl(np.array([[0.6, 0.8]]), memory, [(0,)], 5.0, 50.0)
    assert loss == pytest.approx(4.04)
    assert grad == pytest.approx(np.array([[-4.0, 3.6]]))


def test_mmcl_keeps_one_negative_and_breaks_ties_by_index():
    # Feature (0, 1) with positives {1}: the negatives score 0 (row 0),
    # 0 (row 2) and -1 (row 3). r = 1 % keeps floor(.03) = 0, raised to one:
    # row 0, the lower index of the tie.
    # Per sample: loss = 5 * (1 - 1)^2 + (0 + 1)^2 = 1 and
    # grad = 2 * (0 + 1) * (1, 0) = (2, 0). A batch of two such samples has
    # mean loss 1 and gradient rows (2, 0) / 2.
    memory = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    feats = np.array([[0.0, 1.0], [0.0, 1.0]])
    loss, grad = oracles.mmcl(feats, memory, [(1,), (1,)], 5.0, 1.0)
    assert loss == pytest.approx(1.0)
    assert grad == pytest.approx(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_forward_from_model_file(tmp_path):
    # Hidden layer: W1 = I, b1 = 0, so x = (0, 0) gives tanh(0) = 0 and the
    # output is b2 = (3, 4) -> (.6, .8). x = (atanh .5, 0) gives hidden
    # (.5, 0); W2 = diag(2, 1) -> (1, 0) + b2 = (4, 4) -> (1, 1)/sqrt 2.
    path = tmp_path / "model.npz"
    np.savez(path, in_dim=2, out_dim=2, hidden_dim=2, W1=np.eye(2), b1=np.zeros(2),
             W2=np.diag([2.0, 1.0]), b2=np.array([3.0, 4.0]))
    out = oracles.forward(path, np.array([[0.0, 0.0], [math.atanh(0.5), 0.0]]))
    assert out == pytest.approx(np.array([[0.6, 0.8], [2 ** -0.5, 2 ** -0.5]]))
    # No hidden layer: one affine map diag(3, 4) of (1, 1) -> (.6, .8).
    path = tmp_path / "linear.npz"
    np.savez(path, in_dim=2, out_dim=2, hidden_dim=-1, W1=np.diag([3.0, 4.0]), b1=np.zeros(2))
    assert oracles.forward(path, np.array([[1.0, 1.0]])) == pytest.approx(np.array([[0.6, 0.8]]))


def test_readers(tmp_path):
    bank = tmp_path / "bank.csv"
    bank.write_text("2,2,5,0.3\n1,0\n0.6,0.8\n")
    assert oracles.read_bank(bank).tolist() == [[1.0, 0.0], [0.6, 0.8]]
    labels = tmp_path / "labels.csv"
    labels.write_text("0: 0 1\n1: 1\n")
    assert oracles.read_labels(labels) == {0: (0, 1), 1: (1,)}
    data = tmp_path / "data.csv"
    data.write_text("index,identity,camera,f_1\n1,,,2.5\n0,4,2,1.5\n")
    feats, ids, cams = oracles.read_dataset(data)
    assert feats.tolist() == [[1.5], [2.5]]
    assert ids.tolist() == [4, -1] and cams.tolist() == [2, -1]
    assert [a.tolist() for a in oracles.last_as_gallery(np.array([3, 5, 3, 5, 3]))] == [[0, 2, 1], [4, 3]]
