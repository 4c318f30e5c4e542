"""Run configuration: a flat key-value text file plus CLI overrides.

The keys are the fields of the five sections (`SyntheticSpec`,
`TrainSchedule`, `LossConfig`, `PredictorConfig`, `AugmentConfig`), which own
each field's type, default and check. `RunConfig` is derived from them; here
are only the keys named apart from their fields, the CLI's augmentation
defaults and the keys of no section. Building a `RunConfig` builds all five
sections, so every `RunConfig` is valid.

Format: one `key = value` per line, `#` starts a comment. Unknown keys are
rejected so a typo cannot silently fall back to a default.
"""

import dataclasses
from typing import Optional

from .data import SyntheticSpec
from .errors import ConfigError, ParseError, require
from .losses import LossConfig
from .trainer import AugmentConfig, PredictorConfig, TrainSchedule

# section method -> (section, {field: key} for the keys named apart from their fields)
SECTIONS = {
    "synthetic_spec": (SyntheticSpec, {}),
    "schedule": (TrainSchedule, {}),
    "loss_config": (LossConfig, {"variant": "loss_variant"}),
    "predictor_config": (PredictorConfig, {"kind": "predictor", "k": "knn_k"}),
    "augment_config": (AugmentConfig, {"sigma": "aug_sigma", "p_drop": "aug_p_drop"}),
}
# a run configured by keys augments by default; the library's AugmentConfig() does not
CLI_DEFAULTS = {"aug_sigma": 0.10, "aug_p_drop": 0.05}
# keys of no section: input files (they override synthetic generation) and the sweep
PATH_KEYS = ("dataset", "bank", "features", "query_features", "gallery_features")
OTHER_KEYS = [(key, Optional[str], None) for key in PATH_KEYS] + [
    ("sweep_param", str, "delta"), ("sweep_grid", str, "1,5"), ("sweep_seeds", int, 3)]
# sweep parameter -> the key it sets
SWEEP_KEYS = {"t": "threshold", "delta": "delta", "r": "hard_ratio", "K": "knn_k"}


def _section_keys():
    """(key, type, default) of every section field; `seed` is shared."""
    keys = {}
    for section, renames in SECTIONS.values():
        for f in dataclasses.fields(section):
            key = renames.get(f.name, f.name)
            keys.setdefault(key, (key, f.type, CLI_DEFAULTS.get(key, f.default)))
    return list(keys.values())


def _section_method(section, renames):
    def build(self):
        return section(**{f.name: getattr(self, renames.get(f.name, f.name))
                          for f in dataclasses.fields(section)})
    return build


class _RunConfigChecks:
    def __post_init__(self):
        for build in SECTIONS:
            getattr(self, build)()
        require(self.sweep_param in SWEEP_KEYS, "sweep_param", self.sweep_param,
                f"one of {', '.join(SWEEP_KEYS)}")
        self.grid_values()
        require(self.sweep_seeds >= 1, "sweep_seeds", self.sweep_seeds, ">= 1")

    def grid_values(self):
        try:
            values = [float(v) for v in self.sweep_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep_grid {self.sweep_grid!r}") from exc
        require(values, "sweep_grid", self.sweep_grid, "a list of at least one number")
        return values


RunConfig = dataclasses.make_dataclass(
    "RunConfig", _section_keys() + OTHER_KEYS, bases=(_RunConfigChecks,), frozen=True,
    namespace={"__module__": __name__,
               **{name: _section_method(*spec) for name, spec in SECTIONS.items()}})

_KEY_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def load_config(path, **overrides):
    """The `RunConfig` of a config file, with `overrides` (key=value) on top."""
    values = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected `key = value`, got {line!r}", line=lineno)
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown config key {key!r} (line {lineno})")
            ftype = _KEY_TYPES[key]
            try:
                values[key] = ftype(raw) if ftype in (int, float) else raw
            except ValueError as exc:
                raise ParseError(f"bad value for {key!r}: {raw!r}", line=lineno) from exc
    return RunConfig(**{**values, **overrides})


def save_config(cfg, path):
    with open(path, "w") as fh:
        for key, value in dataclasses.asdict(cfg).items():
            if value is not None:
                fh.write(f"{key} = {value}\n")
