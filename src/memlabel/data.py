"""Synthetic identity-clustered data and the CSV interchange format.

Dataset CSV schema (shared by generated data and imported features):
    index,identity,camera,f_1,...,f_d
identity and camera may be blank. Floats are written with 17 significant
digits so round-trips are exact to double precision.
"""

import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ParseError, require

_RESAMPLE_LIMIT = 2000


@dataclass
class SyntheticSpec:
    identities: int = 32
    samples_per_identity: int = 8  # int, or list with one count per identity
    input_dim: int = 64
    cluster_spread: float = 0.06  # sigma of the within-identity Gaussian
    max_center_similarity: float = 0.5  # pairwise inner-product bound on centers
    seed: int = 0

    def counts(self):
        if isinstance(self.samples_per_identity, int):
            return [self.samples_per_identity] * self.identities
        return list(self.samples_per_identity)

    def __post_init__(self):
        require(self.identities >= 2, "identities", self.identities, ">= 2")
        if isinstance(self.samples_per_identity, int):
            require(self.samples_per_identity >= 2, "samples_per_identity",
                    self.samples_per_identity, ">= 2")
        else:
            counts = self.counts()
            require(len(counts) == self.identities and all(c >= 2 for c in counts),
                    "samples_per_identity", self.samples_per_identity,
                    f"{self.identities} counts of at least 2")
        require(self.input_dim >= 1, "input_dim", self.input_dim, ">= 1")
        require(self.cluster_spread >= 0, "cluster_spread", self.cluster_spread, ">= 0")
        require(self.seed >= 0, "seed", self.seed, ">= 0")


@dataclass
class SampleRecord:
    index: int
    observation: np.ndarray
    identity: Optional[int] = None
    camera: Optional[int] = None


def _unit(v):
    return v / np.linalg.norm(v)


def generate(spec):
    """Identity centers on the unit sphere with bounded pairwise similarity,
    samples as center + isotropic Gaussian noise. Deterministic under seed."""
    rng = np.random.default_rng(spec.seed)
    centers = []
    attempts = 0
    while len(centers) < spec.identities:
        c = _unit(rng.normal(size=spec.input_dim))
        if all(abs(c @ other) < spec.max_center_similarity for other in centers):
            centers.append(c)
        attempts += 1
        if attempts > _RESAMPLE_LIMIT:
            raise ConfigError(
                f"could not place {spec.identities} centers with pairwise "
                f"|similarity| < {spec.max_center_similarity} in dimension "
                f"{spec.input_dim}; raise the bound or the dimension"
            )
    records = []
    idx = 0
    for ident, (center, count) in enumerate(zip(centers, spec.counts())):
        for _ in range(count):
            obs = center + rng.normal(scale=spec.cluster_spread, size=spec.input_dim)
            records.append(SampleRecord(index=idx, observation=obs, identity=ident))
            idx += 1
    return records


def observation_matrix(records):
    return np.stack([r.observation for r in records])


def identities_of(records):
    if any(r.identity is None for r in records):
        raise ConfigError("records carry no identity information")
    return np.array([r.identity for r in records])


# ---- CSV I/O -------------------------------------------------------------


def save_records(records, path):
    d = records[0].observation.shape[0]
    header = "index,identity,camera," + ",".join(f"f_{j+1}" for j in range(d))
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(header + "\n")
        for r in records:
            ident = "" if r.identity is None else str(r.identity)
            cam = "" if r.camera is None else str(r.camera)
            fh.write(f"{r.index},{ident},{cam},"
                     + ",".join(f"{v:.17g}" for v in r.observation) + "\n")
    os.replace(tmp, path)


def _put(records, lineno, index, vec, identity, camera):
    """Add a parsed record to `records`, rejecting bad values and repeated indices."""
    if not np.all(np.isfinite(vec)):
        raise ParseError("non-finite feature value", line=lineno)
    if index in records:
        raise ParseError(f"duplicate index {index}", line=lineno)
    records[index] = SampleRecord(index, vec, identity, camera)


def _dense(records):
    """The loaded records in index order; the indices must be 0..n-1."""
    if sorted(records) != list(range(len(records))):
        raise ParseError("indices are not dense 0..n-1")
    return [records[i] for i in range(len(records))]


def load_records(path):
    """Read the dataset CSV without touching vector norms."""
    records = {}
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("index,identity,camera"):
            raise ParseError(f"unexpected header {header.strip()!r}", line=1)
        d = len(header.strip().split(",")) - 3
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 3:
                raise ParseError(f"expected {d + 3} fields, got {len(parts)}", line=lineno)
            try:
                index = int(parts[0])
                identity = int(parts[1]) if parts[1] else None
                camera = int(parts[2]) if parts[2] else None
                vec = np.array([float(v) for v in parts[3:]])
            except ValueError as exc:
                raise ParseError(f"unparseable value ({exc})", line=lineno) from exc
            _put(records, lineno, index, vec, identity, camera)
    return _dense(records)


def load_records_jsonl(path):
    """JSON-lines variant of the dataset format: one object per line with
    keys index, features, and optional identity/camera."""
    import json

    records = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                index = int(obj["index"])
                vec = np.array([float(v) for v in obj["features"]])
                identity, camera = (None if obj.get(key) is None else int(obj[key])
                                    for key in ("identity", "camera"))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ParseError(f"bad JSON record ({exc})", line=lineno) from exc
            _put(records, lineno, index, vec, identity, camera)
    return _dense(records)


def import_features(path):
    """Load a feature matrix (CSV or JSON-lines by extension) and L2-normalize
    every vector.

    Warns when renormalization moves a norm by more than 1e-3, which usually
    means the file holds raw observations rather than embeddings.
    """
    if str(path).endswith((".jsonl", ".ndjson")):
        records = load_records_jsonl(path)
    else:
        records = load_records(path)
    drifted = 0
    for r in records:
        norm = np.linalg.norm(r.observation)
        if norm <= 0:
            raise ParseError(f"zero-norm feature at index {r.index}")
        if abs(norm - 1.0) > 1e-3:
            drifted += 1
        r.observation = r.observation / norm
    if drifted:
        warnings.warn(
            f"{drifted} of {len(records)} vectors were renormalized by more "
            f"than 1e-3; input may not be unit-norm features"
        )
    return records
