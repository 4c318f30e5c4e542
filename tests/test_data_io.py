"""Synthetic data generation, dataset CSV round-trips, feature import, and
config file parsing."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memlabel import ConfigError, SyntheticSpec, generate, import_features
from memlabel.config import RunConfig, load_config, save_config
from memlabel.data import (identities_of, load_records, observation_matrix,
                           save_records)
from memlabel.errors import ParseError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---- generation ----------------------------------------------------------


def test_generate_counts_and_indices():
    spec = SyntheticSpec(identities=2, samples_per_identity=2, input_dim=8,
                         seed=0)
    records = generate(spec)
    assert len(records) == 4
    assert [r.index for r in records] == [0, 1, 2, 3]
    assert [r.identity for r in records] == [0, 0, 1, 1]


def test_generate_noise_free_limit():
    spec = SyntheticSpec(identities=3, samples_per_identity=4, input_dim=16,
                         cluster_spread=0.0, seed=1)
    records = generate(spec)
    obs = observation_matrix(records)
    for ident in range(3):
        block = obs[4 * ident: 4 * (ident + 1)]
        assert np.all(block == block[0])  # identical samples per identity


def test_generate_center_separation():
    spec = SyntheticSpec(identities=10, samples_per_identity=2, input_dim=64,
                         cluster_spread=0.0, max_center_similarity=0.4, seed=2)
    obs = observation_matrix(generate(spec))
    centers = obs[::2]
    centers = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    S = centers @ centers.T
    off = S[~np.eye(10, dtype=bool)]
    assert np.max(np.abs(off)) < 0.4


def test_generate_determinism():
    spec = SyntheticSpec(identities=4, samples_per_identity=3, input_dim=10,
                         seed=3)
    a = observation_matrix(generate(spec))
    b = observation_matrix(generate(spec))
    np.testing.assert_array_equal(a, b)


def test_generate_infeasible_separation():
    spec = SyntheticSpec(identities=40, samples_per_identity=2, input_dim=2,
                         max_center_similarity=0.1, seed=4)
    with pytest.raises(ConfigError):
        generate(spec)


def test_spec_validation():
    # a spec checks its fields when it is built
    with pytest.raises(ConfigError):
        SyntheticSpec(identities=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(samples_per_identity=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(samples_per_identity=[2, 2])  # wrong length
    with pytest.raises(ConfigError):
        SyntheticSpec(input_dim=0)
    SyntheticSpec(identities=2, samples_per_identity=[2, 3])


def test_per_identity_counts():
    spec = SyntheticSpec(identities=2, samples_per_identity=[2, 5],
                         input_dim=8, seed=5)
    records = generate(spec)
    ids = identities_of(records)
    assert int(np.sum(ids == 0)) == 2
    assert int(np.sum(ids == 1)) == 5
    records[0].identity = None
    with pytest.raises(ConfigError):
        identities_of(records)


# ---- dataset CSV ---------------------------------------------------------


def test_records_roundtrip(tmp_path):
    records = generate(SyntheticSpec(identities=3, samples_per_identity=2,
                                     input_dim=6, seed=7))
    records[0].camera = 2
    path = tmp_path / "data.csv"
    save_records(records, path)
    loaded = load_records(path)
    assert len(loaded) == len(records)
    assert loaded[0].camera == 2 and loaded[1].camera is None
    for a, b in zip(records, loaded):
        assert a.identity == b.identity
        np.testing.assert_array_equal(a.observation, b.observation)


def test_load_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    head = "index,identity,camera,f_1,f_2\n"
    path.write_text("wrong,header\n0,0,,1,0\n")
    with pytest.raises(ParseError) as err:
        load_records(path)
    assert err.value.line == 1
    path.write_text(head + "0,0,,1,0\n1,0,,nan,0\n")
    with pytest.raises(ParseError) as err:
        load_records(path)
    assert err.value.line == 3
    path.write_text(head + "0,0,,1,0\n0,0,,0,1\n")  # duplicate index
    with pytest.raises(ParseError) as err:
        load_records(path)
    assert err.value.line == 3
    path.write_text(head + "0,0,,1,0\n1,0,,0\n")  # ragged row
    with pytest.raises(ParseError) as err:
        load_records(path)
    assert err.value.line == 3
    path.write_text(head + "0,0,,1,0\n2,0,,0,1\n")  # gap in indices
    with pytest.raises(ParseError):
        load_records(path)


def test_import_features_normalizes(tmp_path):
    records = generate(SyntheticSpec(identities=2, samples_per_identity=2,
                                     input_dim=5, seed=8))
    path = tmp_path / "feat.csv"
    save_records(records, path)
    with pytest.warns(UserWarning):
        loaded = import_features(path)  # raw observations, norms drift
    norms = [np.linalg.norm(r.observation) for r in loaded]
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # already-unit features re-import without warning
    save_records(loaded, path)
    reloaded = import_features(path)
    for a, b in zip(loaded, reloaded):
        np.testing.assert_allclose(a.observation, b.observation, atol=1e-12)


def test_import_features_jsonl(tmp_path):
    import json

    path = tmp_path / "feat.jsonl"
    rows = [{"index": 0, "identity": 1, "features": [1.0, 0.0]},
            {"index": 1, "camera": 2, "features": [0.0, 2.0]}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.warns(UserWarning):  # second vector has norm 2
        records = import_features(path)
    assert records[0].identity == 1 and records[1].camera == 2
    np.testing.assert_allclose(records[1].observation, [0.0, 1.0])
    path.write_text('{"index": 0, "features": [1, "x"]}\n')
    with pytest.raises(ParseError) as err:
        import_features(path)
    assert err.value.line == 1


# ---- config files --------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(identities=5, threshold=0.4, loss_variant="mcl_tau",
                    tau=0.2, sweep_grid="0.3,0.6")
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_config_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nepochs = 7  # trailing comment\n")
    assert load_config(path).epochs == 7


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochz = 7\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = seven\n")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line == 1


def test_config_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs 7\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_config_grid_values():
    assert RunConfig(sweep_grid="1,5").grid_values() == [1.0, 5.0]
    with pytest.raises(ConfigError):
        RunConfig(sweep_grid="1,x").grid_values()


def test_default_config_file_matches_defaults():
    assert load_config(os.path.join(ROOT, "configs", "default.cfg")) == RunConfig()


KEYS = [f.name for f in dataclasses.fields(RunConfig)]
VALUES = st.one_of(st.sampled_from(["", "0", "-1", "1.5", "nan", "inf", "1e999", "mmcl",
                                    "knn", "t", "1,x", "99999999999999999999"]),
                   st.text(max_size=12))
LINE = st.one_of(st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS), VALUES),
                 st.text(max_size=30))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINE, max_size=6).map("\n".join))
def test_load_config_raises_only_config_or_parse_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        try:
            assert isinstance(load_config(path), RunConfig)
        except (ConfigError, ParseError):
            pass
