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

Hard-negative mining selects with the bank's ranking kernel
(`bank.select_top_k`): `argpartition` plus a sort of the kept prefix, with
the package's one tie rule (descending score, then ascending index). The
sigmoid and softmax are computed in numpy in forms that cannot overflow.
"""

from dataclasses import dataclass, field

import numpy as np

from .bank import select_top_k
from .errors import ConfigError

VARIANTS = ("mcl", "mcl_tau", "mmcl", "mem_softmax_ce")


@dataclass
class LossConfig:
    variant: str = "mmcl"
    tau: float = 1.0
    delta: float = 5.0
    hard_ratio: float = 1.0  # percent of negative classes kept

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.variant!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if self.delta < 1.0:
            raise ConfigError(f"delta must be >= 1, got {self.delta}")
        if not 0.0 < self.hard_ratio <= 100.0:
            raise ConfigError(f"hard_ratio must lie in (0, 100], got {self.hard_ratio}")


@dataclass
class LossReport:
    value: float
    grad: np.ndarray  # (B, d), d(loss)/d(features)
    hard_negatives: list = field(default_factory=list)  # per-sample index arrays


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


def mcl_class_loss(score, y, tau):
    """Logistic loss of one class: log(1 + exp(-y * score / tau))."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    return float(_softplus(-y * score / tau))


def mmcl_class_loss(score, y):
    """Squared-error loss of one class: (score - y)^2."""
    return float((score - y) ** 2)


def mine_hard_negatives(scores, label, hard_ratio):
    """Highest-scoring non-positive classes.

    Keeps floor((n - |positives|) * r / 100) classes, at least one. Ties break
    by ascending index.
    """
    n = scores.shape[0]
    pos = label.positive_array()
    n_neg = n - pos.size
    if n_neg == 0:
        raise ConfigError(f"sample {label.anchor} has no negative classes to mine")
    count = max(1, int(np.floor(n_neg * hard_ratio / 100.0)))
    masked = np.array(scores, dtype=np.float64)
    masked[pos] = -np.inf  # never among the count <= n_neg kept
    return select_top_k(masked[None, :], count)[0]


def mmcl_loss(feats, labels, bank, cfg):
    """Squared-error multi-label loss with hard-negative mining.

    Per sample: delta/|P| * sum_p (s_p - 1)^2 + 1/|N| * sum_q (s_q + 1)^2
    where N is the mined hard-negative set. Value is the batch mean; the
    gradient carries the same 1/B factor.
    """
    feats = np.asarray(feats, dtype=np.float64)
    scores = bank.score_against_memory(feats)
    B = feats.shape[0]
    grad = np.zeros_like(feats)
    mined = []
    total = 0.0
    for b, lab in enumerate(labels):
        pos = lab.positive_array()
        wp = cfg.delta / pos.size
        rp = scores[b, pos] - 1.0
        total += wp * np.sum(rp**2)
        grad[b] = 2.0 * wp * rp @ bank.features[pos]
        if pos.size == bank.n:
            # every class positive: the negative term is an empty sum
            mined.append(np.array([], dtype=np.intp))
            continue
        neg = mine_hard_negatives(scores[b], lab, cfg.hard_ratio)
        mined.append(neg)
        wn = 1.0 / neg.size
        rn = scores[b, neg] + 1.0
        total += wn * np.sum(rn**2)
        grad[b] += 2.0 * wn * rn @ bank.features[neg]
    return LossReport(value=total / B, grad=grad / B, hard_negatives=mined)


def mcl_tau_loss(feats, labels, bank, cfg):
    """Logistic multi-label loss over all n classes, temperature cfg.tau."""
    feats = np.asarray(feats, dtype=np.float64)
    scores = bank.score_against_memory(feats)
    B = feats.shape[0]
    Y = np.stack([lab.signed() for lab in labels])
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
    total = 0.0
    dscores = np.zeros_like(scores)
    for b, lab in enumerate(labels):
        pos = lab.positive_array()
        total += -np.mean(logq[b, pos])
        target = np.zeros(bank.n)
        target[pos] = 1.0 / pos.size
        dscores[b] = (q[b] - target) / cfg.tau
    grad = dscores @ bank.features
    return LossReport(value=total / B, grad=grad / B)


def compute_loss(feats, labels, bank, cfg):
    """Dispatch on cfg.variant; `mcl` is `mcl_tau` at tau = 1."""
    if cfg.variant == "mmcl":
        return mmcl_loss(feats, labels, bank, cfg)
    if cfg.variant == "mcl":
        return mcl_tau_loss(feats, labels, bank, LossConfig("mcl_tau", tau=1.0,
                                                            delta=cfg.delta,
                                                            hard_ratio=cfg.hard_ratio))
    if cfg.variant == "mcl_tau":
        return mcl_tau_loss(feats, labels, bank, cfg)
    if cfg.variant == "mem_softmax_ce":
        return mem_softmax_ce_loss(feats, labels, bank, cfg)
    raise ConfigError(f"unknown loss variant {cfg.variant!r}")


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
    rows = []
    for variant, param in variants:
        for s in scores:
            rows.append((variant, param, float(s),
                         single_class_grad_magnitude(variant, param, float(s))))
    return rows


def write_gradient_sweep(rows, path):
    with open(path, "w") as fh:
        fh.write("variant,param,score,grad_magnitude\n")
        for variant, param, score, mag in rows:
            fh.write(f"{variant},{param:g},{score:.17g},{mag:.17g}\n")
