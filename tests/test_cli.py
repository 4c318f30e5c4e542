"""Command-line surface: pipeline smoke test, artifact files, exit codes,
determinism, the output-directory override, and bad config values rejected
before any epoch."""

import json
import os

import pytest

from memlabel import trainer
from memlabel.cli import main

SMALL_CFG = """
identities = 4
samples_per_identity = 4
input_dim = 8
hidden_dim = 8
embed_dim = 6
epochs = 6
warmup_epochs = 2
batch_size = 8
lr_decay_epoch = 5
sweep_param = delta
sweep_grid = 1,5
sweep_seeds = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_generate_train_eval_pipeline(tmp_path, cfg_path):
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "dataset.csv"))

    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    for name in ("bank.csv", "model.npz", "labels.csv", "metrics.csv",
                 "label_curve.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = json.loads(
        open(os.path.join(out, "summary.json")).read())
    assert "rank1" in summary

    eval_cfg = tmp_path / "eval.cfg"
    eval_cfg.write_text(SMALL_CFG +
                        f"features = {os.path.join(out, 'dataset.csv')}\n")
    assert main(["eval", "--config", str(eval_cfg), "--out", out]) == 0
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert set(metrics) == {"rank1", "rank5", "rank10", "mAP"}


def test_train_seed_determinism_byte_identical(tmp_path, cfg_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg_path, "--seed", "7",
                 "--out", out1]) == 0
    assert main(["train", "--config", cfg_path, "--seed", "7",
                 "--out", out2]) == 0
    a = open(os.path.join(out1, "metrics.csv"), "rb").read()
    b = open(os.path.join(out2, "metrics.csv"), "rb").read()
    assert a == b


def test_predict_labels_from_bank(tmp_path, cfg_path):
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    pl_cfg = tmp_path / "pl.cfg"
    pl_cfg.write_text(SMALL_CFG + f"bank = {os.path.join(out, 'bank.csv')}\n")
    out2 = str(tmp_path / "labels")
    assert main(["predict-labels", "--config", str(pl_cfg),
                 "--out", out2]) == 0
    lines = open(os.path.join(out2, "labels.csv")).read().splitlines()
    assert len(lines) == 16


def test_grad_sweep_variants(tmp_path):
    out = str(tmp_path / "gs")
    assert main(["grad-sweep", "--out", out]) == 0
    lines = open(os.path.join(out, "grad_sweep.csv")).read().splitlines()
    assert lines[0] == "variant,param,score,grad_magnitude"
    combos = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert combos == {("mcl_tau", "1"), ("mcl_tau", "0.1"),
                      ("mmcl", "1"), ("mmcl", "5")}
    # 201 grid points per combo
    assert len(lines) == 1 + 4 * 201


def test_param_sweep(tmp_path, cfg_path):
    out = str(tmp_path / "ps")
    assert main(["param-sweep", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "param_sweep.csv")).read().splitlines()
    assert lines[0] == "param,value,seed,rank1,mAP"
    assert len(lines) == 3  # two grid values x one seed


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()  # drop the usage message
    # eval without features config: runtime failure -> exit 1, one stderr line
    assert main(["eval", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    # unreadable config file -> exit 1
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_out_env_override(tmp_path, cfg_path, monkeypatch):
    out = str(tmp_path / "envout")
    monkeypatch.setenv("MEMLABEL_OUT", out)
    assert main(["generate", "--config", cfg_path]) == 0
    assert os.path.exists(os.path.join(out, "dataset.csv"))


def test_train_on_unlabeled_dataset(tmp_path, cfg_path):
    out = str(tmp_path / "run")
    assert main(["generate", "--config", cfg_path, "--out", out]) == 0
    lines = open(os.path.join(out, "dataset.csv")).read().splitlines()
    unlabeled = tmp_path / "unlabeled.csv"
    blank = [lines[0]] + [",".join([f[0], ""] + f[2:]) for f in
                          (line.split(",") for line in lines[1:])]
    unlabeled.write_text("\n".join(blank) + "\n")
    cfg = tmp_path / "unlabeled.cfg"
    cfg.write_text(SMALL_CFG + f"dataset = {unlabeled}\n")

    assert main(["train", "--config", str(cfg), "--out", out]) == 0
    for name in ("dataset.csv", "bank.csv", "model.npz", "labels.csv",
                 "metrics.csv", "label_curve.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["rank1"] is None and summary["mAP"] is None
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert len(rows) == 1 + 6
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[2:6] == ["nan"] * 4  # label_precision .. mAP


def test_label_curve_names_the_configured_predictor(tmp_path):
    cfg = tmp_path / "single.cfg"
    cfg.write_text(SMALL_CFG + "predictor = single\n")
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg), "--out", out]) == 0
    lines = open(os.path.join(out, "label_curve.csv")).read().splitlines()[1:]
    assert {line.split(",")[1] for line in lines} == {"single", "knn"}
    assert lines[0].startswith("0,single,")


def test_knn_label_curve_has_one_knn_series(tmp_path):
    # the KNN baseline would repeat the trained KNN labels, so it is left out
    cfg = tmp_path / "knn.cfg"
    cfg.write_text(SMALL_CFG + "predictor = knn\nknn_k = 4\n")
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg), "--out", out]) == 0
    lines = open(os.path.join(out, "label_curve.csv")).read().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [[str(e), "knn"] for e in range(6)]


# (command, config lines, name in the error, value as written). knn_k is
# checked against the 16 samples once they exist, under its field name k.
BAD_VALUES = [
    ("train", "lr = -0.5", "lr", "-0.5"),
    ("train", "lr_decay_factor = -1", "lr_decay_factor", "-1"),
    ("train", "alpha_end = 1.5", "alpha_end", "1.5"),
    ("train", "threshold = 1.5", "threshold", "1.5"),
    ("train", "knn_k = 500", "k", "500"),
    ("train", "init_scale = -1", "init_scale", "-1"),
    ("train", "hidden_dim = 0", "hidden_dim", "0"),
    ("param-sweep", "sweep_param = t\nsweep_grid = 0.5,1.5", "threshold", "1.5"),
]


@pytest.mark.parametrize("command,lines,name,value", BAD_VALUES)
def test_bad_value_rejected_before_any_epoch(tmp_path, capsys, monkeypatch,
                                             command, lines, name, value):
    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch started")

    monkeypatch.setattr(trainer, "run_epoch", no_epoch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CFG + lines + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ConfigError: ")
    assert f"{name} must be" in err
    assert f"got {value}" in err
    assert not out.exists() or not os.listdir(out)
