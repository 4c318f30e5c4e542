"""Training loop: embed minibatches, score against the memory bank, step the
model by SGD, refresh memory rows with momentum, and re-predict labels each
epoch once warmup has filled the bank.

All randomness (shuffling, augmentation, model init) flows from the schedule
seed, so identical seeds give identical runs.
"""

from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank, ZERO_NORM_EPS
from .errors import ConfigError, TrainingDiverged
# The per-anchor predictors are imported so that `trainer.<name>` still
# resolves for callers and for perfbench/tracing.py, which wraps them here.
from .labels import (knn_labels, knn_predict, mplp_labels,  # noqa: F401
                     mplp_predict, similarity_score_labels,
                     similarity_score_predict, singleton_label)
from .losses import LossConfig, compute_loss
from .model import EmbeddingModel

PREDICTORS = ("mplp", "knn", "ss", "single")


@dataclass
class PredictorConfig:
    kind: str = "mplp"
    threshold: float = 0.6
    k: int = 8

    def __post_init__(self):
        if self.kind not in PREDICTORS:
            raise ConfigError(f"unknown predictor {self.kind!r}")


@dataclass
class AugmentConfig:
    sigma: float = 0.0  # additive Gaussian jitter
    p_drop: float = 0.0  # per-coordinate dropout probability

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError("augment sigma must be >= 0")
        if not 0.0 <= self.p_drop < 1.0:
            raise ConfigError("augment p_drop must lie in [0, 1)")


@dataclass
class TrainSchedule:
    epochs: int = 40
    warmup_epochs: int = 2
    lr: float = 0.5
    lr_decay_epoch: int = 30
    lr_decay_factor: float = 0.1
    batch_size: int = 32
    alpha_start: float = 0.2
    alpha_end: float = 0.3
    hidden_dim: int = 64
    embed_dim: int = 32
    init_scale: float = 0.35  # stddev of initial weights
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError("need 0 <= warmup_epochs < epochs")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def alpha_at(self, epoch):
        if self.epochs == 1:
            return self.alpha_end
        frac = epoch / (self.epochs - 1)
        return self.alpha_start + (self.alpha_end - self.alpha_start) * frac

    def lr_at(self, epoch):
        if epoch >= self.lr_decay_epoch:
            return self.lr * self.lr_decay_factor
        return self.lr


def augment(X, cfg, rng):
    """Feature-space augmentation: Gaussian jitter plus coordinate dropout."""
    out = np.array(X, dtype=np.float64, copy=True)
    if cfg.sigma > 0:
        out += rng.normal(scale=cfg.sigma, size=out.shape)
    if cfg.p_drop > 0:
        mask = rng.random(out.shape) >= cfg.p_drop
        out *= mask
    return out


def predict_labels(bank, cfg):
    """Run the configured predictor over every anchor of a frozen bank."""
    if cfg.kind == "single":
        return [singleton_label(i, bank.n) for i in range(bank.n)]
    if cfg.kind == "mplp":
        return mplp_labels(bank, cfg.threshold)
    if cfg.kind == "ss":
        return similarity_score_labels(bank, cfg.threshold)
    if cfg.kind == "knn":
        return knn_labels(bank, cfg.k)
    raise ConfigError(f"unknown predictor {cfg.kind!r}")


@dataclass
class TrainState:
    model: EmbeddingModel
    bank: MemoryBank
    labels: list
    observations: np.ndarray
    rng: np.random.Generator


@dataclass
class TrainResult:
    model: EmbeddingModel
    bank: MemoryBank
    labels: list
    metrics: list  # one dict per epoch


def init_state(observations, schedule):
    n, in_dim = observations.shape
    if schedule.batch_size > n:
        raise ConfigError(f"batch_size {schedule.batch_size} exceeds dataset size {n}")
    rng = np.random.default_rng(schedule.seed)
    model = EmbeddingModel(in_dim, schedule.embed_dim,
                           hidden_dim=schedule.hidden_dim, rng=rng,
                           scale=schedule.init_scale)
    bank = MemoryBank(n, schedule.embed_dim, update_rate=schedule.alpha_start)
    labels = [singleton_label(i, n) for i in range(n)]
    return TrainState(model=model, bank=bank, labels=labels,
                      observations=np.asarray(observations, dtype=np.float64),
                      rng=rng)


def run_epoch(state, epoch, schedule, loss_cfg, predictor_cfg, augment_cfg):
    """One pass over the data; returns the epoch's mean loss.

    Memory rows of batch members are blended with rate alpha(epoch); cold
    (zero) rows are bootstrapped with the observed embedding outright so rank
    lists are defined by the end of warmup. Labels are refreshed at epoch end
    once `epoch + 1 >= warmup_epochs` completed epochs have passed.
    """
    n = state.bank.n
    alpha = schedule.alpha_at(epoch)
    lr = schedule.lr_at(epoch)
    order = state.rng.permutation(n)
    losses = []
    for start in range(0, n, schedule.batch_size):
        idx = order[start : start + schedule.batch_size]
        xb = augment(state.observations[idx], augment_cfg, state.rng)
        feats = state.model.forward(xb)
        report = compute_loss(feats, [state.labels[i] for i in idx],
                              state.bank, loss_cfg)
        if not np.isfinite(report.value):
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}, batch start {start}: "
                f"value={report.value!r}"
            )
        grads = state.model.backward(xb, report.grad)
        state.model.sgd_step(grads, lr)
        # memory refresh stores the augmented-view embedding seen this batch
        for i, f in zip(idx, feats):
            if state.bank.row_norm(int(i)) <= ZERO_NORM_EPS:
                state.bank.overwrite_row(int(i), f)
            else:
                state.bank.update_row(int(i), f, alpha)
        losses.append(report.value)
    state.bank.epoch = epoch + 1
    state.bank.update_rate = alpha
    if epoch + 1 >= schedule.warmup_epochs:
        state.labels = predict_labels(state.bank, predictor_cfg)
    return float(np.mean(losses))


def train(observations, schedule, loss_cfg=None, predictor_cfg=None,
          augment_cfg=None, eval_hook=None):
    """Full training run.

    eval_hook(state, epoch) may return a metrics dict merged into the per-
    epoch log row; it sees the trainer state read-only and is where identity
    ground truth (never visible to the trainer itself) enters.
    """
    loss_cfg = loss_cfg or LossConfig()
    predictor_cfg = predictor_cfg or PredictorConfig()
    augment_cfg = augment_cfg or AugmentConfig()
    state = init_state(np.asarray(observations, dtype=np.float64), schedule)
    metrics = []
    for epoch in range(schedule.epochs):
        mean_loss = run_epoch(state, epoch, schedule, loss_cfg,
                              predictor_cfg, augment_cfg)
        row = {
            "epoch": epoch,
            "loss": mean_loss,
            "label_precision": float("nan"),
            "label_recall": float("nan"),
            "rank1": float("nan"),
            "mAP": float("nan"),
            "mean_positives": float(np.mean([len(l.positives) for l in state.labels])),
        }
        if eval_hook is not None:
            row.update(eval_hook(state, epoch))
        metrics.append(row)
    return TrainResult(model=state.model, bank=state.bank,
                       labels=state.labels, metrics=metrics)
