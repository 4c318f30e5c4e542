"""The three workloads: the inputs each one gets, and the checks made on the
outputs of each run.

Inputs depend only on the seed. Every check compares an output with a
computation in oracles.py or with a property the method must have; none
compares with stored output. A check returns (failures, quality, notes):
failure messages, the run's mAP / label_precision / label_recall, and
counts worth reporting, such as decisions left to rounding.
"""

import json
import os

import numpy as np

import oracles

WORKLOADS = ("train_default", "train_single_n2048", "predict_eval_n2048")

IDENTITIES, PER_IDENTITY = 256, 8  # n = 2048 on both n2048 workloads
CAMERAS = 4  # sample m of an identity is seen by camera m % CAMERAS
QUERY_CAMERAS = (0, 1)  # predict_eval_n2048 queries; the gallery is every row
THRESHOLD = 0.6
SINGLE_EPOCHS = 10
MMCL_BATCH = 32


def read_cfg(path):
    """`key = value` lines of a memlabel config, comments dropped."""
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = (s.strip() for s in line.split("=", 1))
                cfg[key] = value
    return cfg


def clustered(rng, dim, spread):
    """IDENTITIES x PER_IDENTITY samples around centers on the unit sphere
    whose pairwise |cosine| stays below 0.5, plus Gaussian noise of the given
    spread per coordinate. Rows come in a random order."""
    centers = np.empty((0, dim))
    while len(centers) < IDENTITIES:
        c = rng.normal(size=dim)
        c /= np.linalg.norm(c)
        if np.all(np.abs(centers @ c) < 0.5):
            centers = np.vstack([centers, c])
    ids = np.repeat(np.arange(IDENTITIES), PER_IDENTITY)
    cams = np.tile(np.arange(PER_IDENTITY) % CAMERAS, IDENTITIES)
    obs = centers[ids] + rng.normal(scale=spread, size=(len(ids), dim))
    order = rng.permutation(len(ids))
    return obs[order], ids[order], cams[order]


def _write_features(path, feats, ids, cams):
    """memlabel's dataset CSV: index,identity,camera,f_1..f_d."""
    with open(path, "w") as fh:
        fh.write("index,identity,camera,"
                 + ",".join(f"f_{j + 1}" for j in range(feats.shape[1])) + "\n")
        for index, (row, ident, cam) in enumerate(zip(feats, ids, cams)):
            fh.write(f"{index},{ident},{cam}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def prepare(workload, root, work, seed):
    """Write the workload's inputs under `work`; returns the spec fields the
    child and the checks need besides the workload's name and seed."""
    os.makedirs(work, exist_ok=True)
    if workload == "train_default":
        config = os.path.join(root, "configs", "default.cfg")
        return {"config": config,
                "threshold": float(read_cfg(config).get("threshold", THRESHOLD))}

    if workload == "train_single_n2048":
        rng = np.random.default_rng([seed, 1])
        obs, ids, _ = clustered(rng, dim=64, spread=0.06)
        inputs = os.path.join(work, "inputs.npz")
        np.savez(inputs, observations=obs, identities=ids)
        config = os.path.join(work, "single.cfg")
        with open(config, "w") as fh:
            fh.write(f"epochs = {SINGLE_EPOCHS}\npredictor = single\nloss_variant = mmcl\n"
                     f"delta = 5.0\nhard_ratio = 1.0\nseed = {seed}\n")
        return {"config": config, "inputs": inputs, "delta": 5.0, "hard_ratio": 1.0}

    if workload == "predict_eval_n2048":
        rng = np.random.default_rng([seed, 2])
        obs, ids, cams = clustered(rng, dim=32, spread=0.10)
        feats = obs / np.linalg.norm(obs, axis=1, keepdims=True)
        bank = os.path.join(work, "bank.csv")
        with open(bank, "w") as fh:
            fh.write(f"{len(feats)},{feats.shape[1]},0,0.5\n")
            for row in feats:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        query = np.flatnonzero(np.isin(cams, QUERY_CAMERAS))
        paths = {name: os.path.join(work, name + ".csv") for name in ("query", "gallery")}
        _write_features(paths["query"], feats[query], ids[query], cams[query])
        _write_features(paths["gallery"], feats, ids, cams)
        config = os.path.join(work, "predict_eval.cfg")
        with open(config, "w") as fh:
            fh.write(f"bank = {bank}\nquery_features = {paths['query']}\n"
                     f"gallery_features = {paths['gallery']}\n"
                     f"predictor = mplp\nthreshold = {THRESHOLD}\n")
        identities = os.path.join(work, "identities.npy")
        np.save(identities, ids)
        return {"config": config, "bank": bank, "query": paths["query"],
                "gallery": paths["gallery"], "identities": identities, "threshold": THRESHOLD}

    raise ValueError(f"unknown workload {workload!r}")


# ---- checks ----------------------------------------------------------------


def _close(name, got, want, failures, tol=1e-9):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        failures.append(f"{name}: program {got!r}, oracle {want!r}")


def _check_labels(path, bank_rows, t, failures, notes):
    """labels file against brute-force MPLP over the same bank rows."""
    got = oracles.read_labels(path)
    want, candidates, ambiguous = oracles.mplp(bank_rows, t)
    if sorted(got) != list(range(len(want))):
        failures.append(f"labels cover anchors {min(got, default=None)}..{max(got, default=None)} "
                        f"({len(got)}), expected 0..{len(want) - 1}")
        return []
    notes["near_tie_anchors"] = len(ambiguous)
    mismatched = [i for i in range(len(want)) if got[i] != want[i]]
    notes["near_tie_mismatches"] = sum(i in ambiguous for i in mismatched)
    for i in mismatched:
        if i not in ambiguous:
            failures.append(f"anchor {i}: program positives {got[i]}, oracle {want[i]}")
            break
    for i, positives in got.items():
        if i not in positives or not set(positives) <= candidates[i] | {i}:
            failures.append(f"anchor {i}: positives {positives} do not hold the anchor "
                            "or leave its threshold candidates")
            break
    return [got[i] for i in range(len(want))]


def check_train_default(out, spec, stderr):
    failures, notes = [], {}
    bank_rows = oracles.read_bank(os.path.join(out, "bank.csv"))
    norm_error = float(np.max(np.abs(np.linalg.norm(bank_rows, axis=1) - 1.0)))
    if norm_error > 1e-9:
        failures.append(f"bank row norm is off unit by {norm_error:.3g}")
    labels = _check_labels(os.path.join(out, "labels.csv"), bank_rows, spec["threshold"],
                           failures, notes)
    obs, ids, _ = oracles.read_dataset(os.path.join(out, "dataset.csv"))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    feats = oracles.forward(os.path.join(out, "model.npz"), obs)
    q, g = oracles.last_as_gallery(ids)
    rank1, mAP, _ = oracles.cmc_map(feats[q], ids[q], feats[g], ids[g])
    _close("summary rank1", summary["rank1"], rank1, failures)
    _close("summary mAP", summary["mAP"], mAP, failures)
    precision, recall = oracles.label_quality(labels, ids) if labels else (0.0, 0.0)
    with open(os.path.join(out, "metrics.csv")) as fh:
        last = dict(zip(fh.readline().strip().split(","), fh.readlines()[-1].strip().split(",")))
    _close("metrics.csv label_precision", float(last["label_precision"]), precision, failures)
    _close("metrics.csv label_recall", float(last["label_recall"]), recall, failures)
    return failures, {"mAP": summary["mAP"], "label_precision": precision,
                      "label_recall": recall}, notes


def check_train_single_n2048(out, spec, stderr):
    import memlabel.bank
    import memlabel.labels
    import memlabel.losses

    failures = []
    inputs = np.load(spec["inputs"])
    obs, ids = inputs["observations"], inputs["identities"]
    labels = oracles.read_labels(os.path.join(out, "labels.csv"))
    if labels != {i: (i,) for i in range(len(obs))}:
        failures.append("a label is not the singleton {anchor}")
    model = os.path.join(out, "model.npz")
    feats = oracles.forward(model, obs)
    q, g = oracles.last_as_gallery(ids)
    rank1, mAP, _ = oracles.cmc_map(feats[q], ids[q], feats[g], ids[g])
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    _close("evaluate_model rank1", report["rank1"], rank1, failures)
    _close("evaluate_model mAP", report["mAP"], mAP, failures)

    memory = np.load(os.path.join(out, "bank.npy"))
    batch = np.random.default_rng([spec["seed"], 3]).permutation(len(obs))[:MMCL_BATCH]
    want_loss, want_grad = oracles.mmcl(feats[batch], memory, [(i,) for i in batch],
                                        spec["delta"], spec["hard_ratio"])
    bank = memlabel.bank.MemoryBank(*memory.shape)
    bank.features[:] = memory
    got = memlabel.losses.compute_loss(
        feats[batch], [memlabel.labels.singleton_label(i, len(obs)) for i in batch], bank,
        memlabel.losses.LossConfig("mmcl", delta=spec["delta"], hard_ratio=spec["hard_ratio"]))
    _close("MMCL loss", got.value, want_loss, failures)
    _close("MMCL gradient", float(np.max(np.abs(got.grad - want_grad))), 0.0, failures)
    precision, recall = oracles.label_quality([labels.get(i, (i,)) for i in range(len(obs))], ids)
    return failures, {"mAP": report["mAP"], "label_precision": precision,
                      "label_recall": recall}, {}


def check_predict_eval_n2048(out, spec, stderr):
    failures, notes = [], {}
    ids = np.load(spec["identities"])
    labels = _check_labels(os.path.join(out, "labels.csv"), oracles.read_bank(spec["bank"]),
                           spec["threshold"], failures, notes)
    qf, qi, qc = oracles.read_dataset(spec["query"])
    gf, gi, gc = oracles.read_dataset(spec["gallery"])
    qf /= np.linalg.norm(qf, axis=1, keepdims=True)
    gf /= np.linalg.norm(gf, axis=1, keepdims=True)
    rank1, mAP, skipped = oracles.cmc_map(qf, qi, gf, gi, qc, gc)
    if skipped:
        failures.append(f"{skipped} queries have no valid match in the generated split")
    if "no valid gallery match" in stderr:
        failures.append("the program skipped a query")
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    _close("metrics.json rank1", metrics["rank1"], rank1, failures)
    _close("metrics.json mAP", metrics["mAP"], mAP, failures)
    precision, recall = oracles.label_quality(labels, ids) if labels else (0.0, 0.0)
    return failures, {"mAP": metrics["mAP"], "label_precision": precision,
                      "label_recall": recall}, notes


CHECKS = {
    "train_default": check_train_default,
    "train_single_n2048": check_train_single_n2048,
    "predict_eval_n2048": check_predict_eval_n2048,
}
