"""Loss family over memory-bank classification scores, with analytic gradients.

Variants:
  * mcl       — sigmoid/logistic multi-label loss over all classes (tau = 1)
  * mcl_tau   — the same with a temperature on the score
  * mmcl      — squared-error regression of scores to +/-1, positive-class
                weight delta, hard-negative class mining ratio r%
  * mem_softmax_ce — temperature-scaled softmax cross-entropy over all
                classes, averaged over the positive set (single-label baseline
                generalized to multiple positives)

Gradients are with respect to the batch features only; the bank is a constant.
All batch losses are averaged over the minibatch.

Each loss reads the batch's labels as one (B, n) positive mask and gets its
gradient from one (B, n) weight matrix times the bank. Mining ranks the whole
batch with one `bank.select_top_k` call on the scores with positives masked
out; row b keeps its first count_b columns, exact by the package's one tie
rule (descending score, then ascending index). The sigmoid and softmax are
computed in numpy in forms that cannot overflow.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .bank import select_top_k
from .errors import ConfigError, require
from .labels import positive_mask

VARIANTS = ("mcl", "mcl_tau", "mmcl", "mem_softmax_ce")


@dataclass
class LossConfig:
    variant: str = "mmcl"
    tau: float = 1.0
    delta: float = 5.0
    hard_ratio: float = 1.0  # percent of negative classes kept

    def __post_init__(self):
        require(self.variant in VARIANTS, "variant", self.variant,
                f"one of {', '.join(VARIANTS)}")
        require(0.0 < self.tau <= 1.0, "tau", self.tau, "in (0, 1]")
        require(self.delta >= 1.0, "delta", self.delta, ">= 1")
        require(0.0 < self.hard_ratio <= 100.0, "hard_ratio", self.hard_ratio, "in (0, 100]")


@dataclass
class LossReport:
    value: float
    grad: np.ndarray  # (B, d), d(loss)/d(features)
    hard_negatives: np.ndarray | None = None  # (B, n) mask of the mined classes


def _softplus(x):
    # log(1 + e^x) without overflow for large |x|
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    # 1 / (1 + e^-x) = exp(-log(1 + e^-x)); no exponent overflows
    return np.exp(-_softplus(-x))


def _softmax(scores):
    """Row-wise (log-softmax, softmax); the row max is subtracted first."""
    shifted = scores - np.max(scores, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=1, keepdims=True)
    return shifted - np.log(total), e / total


def _mine(scores, pos, hard_ratio):
    """Hard negatives of every row of (B, n) scores, positive mask `pos`: row
    b's are the first count[b] columns of `top`. Returns (top, count); count
    is floor(#negatives * r / 100), at least 1, 0 if every class is positive."""
    n_neg = pos.shape[1] - np.count_nonzero(pos, axis=1)
    count = np.maximum(1, np.floor(n_neg * hard_ratio / 100.0)).astype(np.intp) * (n_neg > 0)
    # positives score below all other classes and unequally: never kept, never tied at a cut
    low = 2.0 * min(scores.min(initial=0.0), -1.0) - np.arange(pos.shape[1])
    return select_top_k(np.where(pos, low, scores), int(count.max(initial=0))), count


def mine_hard_negatives(scores, label, hard_ratio):
    """Highest-scoring non-positive classes of one sample, by the batched
    miner: floor((n - |positives|) * r / 100) of them, at least one."""
    pos = positive_mask([label], scores.shape[0])
    if pos.all():
        raise ConfigError(f"sample {label.anchor} has no negative classes to mine")
    top, count = _mine(np.asarray(scores, dtype=np.float64)[None, :], pos, hard_ratio)
    return top[0, :count[0]]


def mmcl_loss(feats, labels, bank, cfg):
    """Squared-error multi-label loss with hard-negative mining.

    Per sample: delta/|P| * sum_p (s_p - 1)^2 + 1/|N| * sum_q (s_q + 1)^2
    where N is the mined hard-negative set (empty if every class is
    positive). Value is the batch mean; the gradient carries the same 1/B
    factor.
    """
    feats = np.asarray(feats, dtype=np.float64)
    scores = bank.score_against_memory(feats)
    B = feats.shape[0]
    pos = positive_mask(labels, bank.n)
    top, count = _mine(scores, pos, cfg.hard_ratio)
    kept = np.arange(top.shape[1]) < count[:, None]
    # (row, class, target, weight) of every positive, then every mined negative
    p_row, p_col = np.nonzero(pos)
    n_row, n_col = np.nonzero(kept)[0], top[kept]
    rows, cols = np.concatenate((p_row, n_row)), np.concatenate((p_col, n_col))
    target = np.repeat([1.0, -1.0], [p_row.size, n_row.size])
    weight = np.concatenate(((cfg.delta / np.bincount(p_row, minlength=B))[p_row],
                             (1.0 / np.maximum(count, 1))[n_row]))
    resid = scores[rows, cols] - target
    W = np.zeros_like(scores)
    W[rows, cols] = 2.0 * weight * resid
    mined = np.zeros_like(pos)
    mined[n_row, n_col] = True
    return LossReport(value=float(np.sum(weight * resid**2)) / B,
                      grad=(W @ bank.features) / B, hard_negatives=mined)


def mcl_tau_loss(feats, labels, bank, cfg):
    """Logistic multi-label loss over all n classes, temperature cfg.tau."""
    feats = np.asarray(feats, dtype=np.float64)
    scores = bank.score_against_memory(feats)
    B = feats.shape[0]
    Y = 2.0 * positive_mask(labels, bank.n) - 1.0
    z = -Y * scores / cfg.tau
    total = float(np.sum(_softplus(z)))
    # d/ds softplus(-y s / tau) = -(y / tau) * sigmoid(-y s / tau)
    dscores = -(Y / cfg.tau) * _sigmoid(z)
    grad = dscores @ bank.features
    return LossReport(value=total / B, grad=grad / B)


def mem_softmax_ce_loss(feats, labels, bank, cfg):
    """Softmax cross-entropy against the memory classes.

    Loss per sample is the mean negative log-probability over the positive
    set; the softmax runs over all n classes at temperature cfg.tau.
    """
    feats = np.asarray(feats, dtype=np.float64)
    scores = bank.score_against_memory(feats) / cfg.tau
    B = feats.shape[0]
    logq, q = _softmax(scores)
    pos = positive_mask(labels, bank.n)
    target = pos / np.count_nonzero(pos, axis=1)[:, None]
    total = -float(np.sum(target * logq))
    grad = ((q - target) / cfg.tau) @ bank.features
    return LossReport(value=total / B, grad=grad / B)


def compute_loss(feats, labels, bank, cfg):
    """Dispatch on cfg.variant; `mcl` is `mcl_tau` at tau = 1. `labels` is a
    (B, n) positive mask or a list of B MultiLabels."""
    if cfg.variant == "mcl":
        cfg = dataclasses.replace(cfg, variant="mcl_tau", tau=1.0)
    loss = {"mmcl": mmcl_loss, "mcl_tau": mcl_tau_loss, "mem_softmax_ce": mem_softmax_ce_loss}
    return loss[cfg.variant](feats, labels, bank, cfg)


# ---- gradient magnitude sweep -------------------------------------------


def single_class_grad_magnitude(variant, param, score, y=1.0):
    """|d loss / d feature| for one class with a unit classifier row.

    For the squared-error loss `param` is delta; for the logistic loss it is
    tau.
    """
    if variant == "mmcl":
        return abs(2.0 * param * (score - y))
    if variant in ("mcl", "mcl_tau"):
        tau = param
        return float(_sigmoid(-y * score / tau) / tau)
    raise ConfigError(f"no single-class gradient for variant {variant!r}")


def gradient_sweep(scores, variants=None):
    """Gradient magnitudes for y = +1 over a score grid.

    Returns rows (variant, param, score, magnitude). Default variant set is
    the logistic loss at tau in {1, 0.1} and the squared-error loss at delta
    in {1, 5}.
    """
    if variants is None:
        variants = [("mcl_tau", 1.0), ("mcl_tau", 0.1), ("mmcl", 1.0), ("mmcl", 5.0)]
    return [(variant, param, float(s), single_class_grad_magnitude(variant, param, float(s)))
            for variant, param in variants for s in scores]


def write_gradient_sweep(rows, path):
    with open(path, "w") as fh:
        fh.write("variant,param,score,grad_magnitude\n")
        for variant, param, score, mag in rows:
            fh.write(f"{variant},{param:g},{score:.17g},{mag:.17g}\n")
