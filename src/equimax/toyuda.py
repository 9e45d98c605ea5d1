"""Desk-scale two-domain experiment: supervised source plus unlabeled target.

A softmax-linear classifier is trained by mini-batch gradient descent on

    mean cross-entropy(source batch) + lam * target_loss(target batch),

where the target loss is any of the four batch losses applied to the
softmax outputs of an unlabeled, distribution-shifted target batch.  The
linear model keeps runs under a second and isolates the effect of the
target term: with lam = 0 every loss kind trains bit-identically.

Each epoch gathers its target batch rows once, and each source reshuffle its
source rows and one-hot labels once; a step slices its batches from those.
The target predictions at the end of each epoch are buffered, and the
buffered epochs are scored together, one stacked kernel call per metric,
with the same bits as scoring each epoch alone.

Data are isotropic Gaussian blobs.  Class centers sit at the vertices of a
regular simplex (pairwise equidistant, so no class is geometrically
privileged), scaled by ``center_spread``; target points use the same
centers plus a constant shift vector.  Target labels are generated but used
for evaluation only.
"""

from __future__ import annotations

import json
import math
import numbers
import typing
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# loss_value stays bound here although train scores its epochs as stacks: the
# benchmark's tracer wraps toyuda.loss_value by name
from .losses import (
    _CHUNK_FLOATS,
    LossConfig,
    _equity_stack,
    _loss_values_stack,
    _squares_stack,
    gradient,
    loss_value,
)

DIVERGENCE_CE = 1e3


class TrainingDivergedError(RuntimeError):
    """Source cross-entropy blew past the divergence guard (step size too large)."""


@dataclass(frozen=True)
class ToyUdaConfig:
    """Synthetic two-domain experiment definition.

    ``target_counts`` may be imbalanced; ``shift=None`` resolves to a vector
    of magnitude 1.5 * noise_scale along the all-ones diagonal.  The class
    centers need ``features >= classes - 1``.
    """

    classes: int = 3
    features: int = 2
    source_per_class: int = 100
    target_counts: tuple[int, ...] = (60, 30, 10)
    shift: Optional[tuple[float, ...]] = None
    center_spread: float = 2.0
    noise_scale: float = 0.6
    batch_size: int = 30
    epochs: int = 200
    learning_rate: float = 0.1
    momentum: float = 0.0
    loss: LossConfig = field(default_factory=lambda: LossConfig("ms", lam=1.0))
    seed: int = 0xE0517

    def __post_init__(self):
        # a JSON config can put a string, list or boolean where a number belongs
        for name, kind in _NUMBER_FIELDS.items():
            _check_number(name, getattr(self, name), kind)
        object.__setattr__(self, "target_counts", _as_tuple("target_counts", self.target_counts, int))
        if self.shift is not None:
            object.__setattr__(self, "shift", _as_tuple("shift", self.shift, float))
        if self.classes < 2:
            raise ValueError(f"classes must be >= 2, got {self.classes}")
        if self.features < 2:
            raise ValueError(f"features must be >= 2, got {self.features}")
        if self.features < self.classes - 1:
            raise ValueError(
                f"need features >= classes - 1 for equidistant centers, got {self.features} < {self.classes - 1}"
            )
        if len(self.target_counts) != self.classes:
            raise ValueError("target_counts must have one entry per class")
        if self.source_per_class < 1 or any(n < 1 for n in self.target_counts):
            raise ValueError("per-class counts must be >= 1")
        if self.shift is not None and len(self.shift) != self.features:
            raise ValueError("shift must have one entry per feature")
        if self.noise_scale <= 0.0:
            raise ValueError("noise_scale must be > 0")
        if not 1 <= self.batch_size <= sum(self.target_counts):
            raise ValueError("batch_size must be in [1, total target count]")
        if self.epochs < 1 or self.learning_rate <= 0.0:
            raise ValueError("epochs and learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")

    def resolved_shift(self) -> np.ndarray:
        if self.shift is not None:
            return np.asarray(self.shift, dtype=float)
        direction = np.ones(self.features) / np.sqrt(self.features)
        return 1.5 * self.noise_scale * direction


# Python type of a number field -> the values it accepts
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real}
# int and float fields of ToyUdaConfig, however they are annotated
_NUMBER_FIELDS = {
    name: _NUMBER_KINDS[hint]
    for name, hint in typing.get_type_hints(ToyUdaConfig).items()
    if hint in _NUMBER_KINDS
}


def _check_number(name: str, value, kind=numbers.Real) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite, non-boolean ``kind``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    # JSON gives NaN and Infinity as floats; an int is finite and may not fit a float
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _as_tuple(name: str, values, kind) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None
    for item in items:
        _check_number(f"each entry of {name}", item, _NUMBER_KINDS[kind])
    return tuple(kind(v) for v in items)


@dataclass
class ToyUdaResult:
    """Per-epoch trajectory plus the final classifier parameters.

    Arrays all have length ``epochs``: source cross-entropy, target loss
    value, target accuracy, and the balance/confidence metrics of the full
    target prediction matrix at the end of each epoch.
    """

    ce: np.ndarray
    lt: np.ndarray
    accuracy: np.ndarray
    equity: np.ndarray
    disc: np.ndarray
    weights: np.ndarray
    bias: np.ndarray

    def to_dict(self) -> dict:
        return {
            "trajectory": {
                "ce": self.ce.tolist(),
                "lt": self.lt.tolist(),
                "accuracy": self.accuracy.tolist(),
                "equity": self.equity.tolist(),
                "discriminability": self.disc.tolist(),
            },
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
        }

    def save(self, prefix: str) -> tuple[str, str]:
        """Write ``<prefix>.json`` and a ``<prefix>.csv`` trajectory file."""
        json_path = f"{prefix}.json"
        csv_path = f"{prefix}.csv"
        with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2))
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# epoch,ce,lt,acc,equity,disc\n")
            for e in range(self.ce.size):
                row = (self.ce[e], self.lt[e], self.accuracy[e], self.equity[e], self.disc[e])
                fh.write(f"{e}," + ",".join(repr(float(v)) for v in row) + "\n")
        return json_path, csv_path


def class_centers(classes: int, features: int, spread: float) -> np.ndarray:
    """Pairwise-equidistant class centers: regular-simplex vertices times ``spread``.

    Vertices have unit circumradius before scaling and live in the first
    classes - 1 feature coordinates.
    """
    base = np.eye(classes) - 1.0 / classes
    basis: list[np.ndarray] = []
    for j in range(classes - 1):
        v = base[:, j].copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        v /= np.linalg.norm(v)
        basis.append(v)
    coords = base @ np.column_stack(basis)
    coords /= np.linalg.norm(coords[0])
    centers = np.zeros((classes, features))
    centers[:, : classes - 1] = coords
    return spread * centers


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    data_seq, train_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(data_seq), np.random.default_rng(train_seq)


def _generate(rng: np.random.Generator, config: ToyUdaConfig):
    centers = class_centers(config.classes, config.features, config.center_spread)
    shift = config.resolved_shift()
    xs, ys, xt, yt = [], [], [], []
    for c in range(config.classes):
        pts = centers[c] + config.noise_scale * rng.standard_normal(
            (config.source_per_class, config.features)
        )
        xs.append(pts)
        ys.append(np.full(config.source_per_class, c, dtype=int))
    for c in range(config.classes):
        count = config.target_counts[c]
        pts = centers[c] + shift + config.noise_scale * rng.standard_normal(
            (count, config.features)
        )
        xt.append(pts)
        yt.append(np.full(count, c, dtype=int))
    return np.vstack(xs), np.concatenate(ys), np.vstack(xt), np.concatenate(yt)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _step(
    weights: np.ndarray,
    bias: np.ndarray,
    x_src: np.ndarray,
    onehot_src: np.ndarray,
    x_tgt: np.ndarray,
    loss_cfg: LossConfig,
):
    """Source probabilities, target loss value and the parameter gradients of one step.

    ``onehot_src`` holds the source labels as one-hot rows.  The gradients
    are those of :func:`objective_and_gradients`, which adds the source
    cross-entropy that the training loop does not need.
    """
    probs_src = softmax(x_src @ weights + bias)
    # p - 1 at the label and p - 0 elsewhere: the same bits as subtracting 1 in place
    delta = probs_src - onehot_src
    delta /= x_src.shape[0]
    grad_w = x_src.T @ delta
    grad_b = delta.sum(axis=0)
    lt = 0.0
    if loss_cfg.lam > 0.0:
        probs_tgt = softmax(x_tgt @ weights + bias)
        out = gradient(probs_tgt, loss_cfg)
        lt = out.value
        inner = (out.grad * probs_tgt).sum(axis=1, keepdims=True)
        delta_t = probs_tgt * (out.grad - inner) * loss_cfg.lam
        grad_w += x_tgt.T @ delta_t
        grad_b += delta_t.sum(axis=0)
    return probs_src, lt, grad_w, grad_b


def objective_and_gradients(
    weights: np.ndarray,
    bias: np.ndarray,
    x_src: np.ndarray,
    y_src: np.ndarray,
    x_tgt: np.ndarray,
    loss_cfg: LossConfig,
):
    """Value and (d x C, C) parameter gradients of CE + lam * target loss.

    Returns (total, source cross-entropy, target loss, grad_w, grad_b).
    The target-loss gradient is propagated through the softmax in closed
    form; with lam = 0 the target term contributes nothing.
    """
    onehot_src = np.eye(weights.shape[1])[y_src]
    probs_src, lt, grad_w, grad_b = _step(weights, bias, x_src, onehot_src, x_tgt, loss_cfg)
    n_src = x_src.shape[0]
    ce = float(-np.log(np.maximum(probs_src[np.arange(n_src), y_src], 1e-300)).mean())
    return ce + loss_cfg.lam * lt, ce, lt, grad_w, grad_b


def train(config: ToyUdaConfig) -> ToyUdaResult:
    """Mini-batch gradient descent on the combined objective.

    Batches are drawn without replacement within an epoch and reshuffled
    each epoch from the seed; the trailing partial target batch is used.
    Raises :class:`TrainingDivergedError` if the full-source cross-entropy
    exceeds 1e3 at an epoch boundary.

    The target predictions at each epoch's end are buffered and scored as
    one (epochs, n_tgt, C) stack per call: the target loss, accuracy,
    equity and discriminability, each a stack row with a lone matrix's
    bits.  The buffer is scored whenever it holds _CHUNK_FLOATS entries, so
    its memory is bounded for any epochs x n_tgt, and before any error
    leaves the loop, so a scoring error of an earlier epoch is raised
    rather than a later epoch's error.
    """
    data_rng, train_rng = _rngs(config.seed)
    xs, ys, xt, yt = _generate(data_rng, config)
    n_src, n_tgt = xs.shape[0], xt.shape[0]
    onehot = np.eye(config.classes)[ys]
    size = config.batch_size
    weights = np.zeros((config.features, config.classes))
    bias = np.zeros(config.classes)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    steps = -(-n_tgt // config.batch_size)
    ce_hist = np.empty(config.epochs)
    lt_hist = np.empty(config.epochs)
    acc_hist = np.empty(config.epochs)
    eq_hist = np.empty(config.epochs)
    disc_hist = np.empty(config.epochs)
    loss = config.loss
    eps = loss.resolved_epsilon(n_tgt, config.classes)
    pending = np.empty((min(config.epochs, max(1, _CHUNK_FLOATS // (n_tgt * config.classes))), n_tgt, config.classes))
    filled = 0

    def score(stop):
        """Score pending[:filled], the predictions of the epochs just before ``stop``."""
        probs = pending[:filled]
        done = slice(stop - filled, stop)
        lt_hist[done] = _loss_values_stack(loss.kind, probs, loss.r, loss.alpha, eps)
        acc_hist[done] = (probs.argmax(axis=2) == yt).mean(axis=1)
        eq_hist[done] = _equity_stack(probs)
        disc_hist[done] = _squares_stack(probs) / n_tgt

    src_cursor = n_src  # force a shuffle on first use
    for epoch in range(config.epochs):
        try:
            xt_epoch = xt[train_rng.permutation(n_tgt)]
            for k in range(steps):
                if src_cursor + size > n_src:
                    perm_src = train_rng.permutation(n_src)
                    xs_perm, onehot_perm = xs[perm_src], onehot[perm_src]
                    src_cursor = 0
                src = slice(src_cursor, src_cursor + size)
                src_cursor += size
                _, _, grad_w, grad_b = _step(
                    weights, bias, xs_perm[src], onehot_perm[src], xt_epoch[k * size : (k + 1) * size], config.loss
                )
                vel_w = config.momentum * vel_w - config.learning_rate * grad_w
                vel_b = config.momentum * vel_b - config.learning_rate * grad_b
                weights = weights + vel_w
                bias = bias + vel_b
            probs_src = softmax(xs @ weights + bias)
            with np.errstate(divide="ignore"):
                ce = float(-np.log(probs_src[np.arange(n_src), ys]).mean())
            if not np.isfinite(ce) or ce > DIVERGENCE_CE:
                raise TrainingDivergedError(
                    f"epoch {epoch}: source cross-entropy {ce!r} exceeds {DIVERGENCE_CE}"
                )
        except Exception:
            score(epoch)
            raise
        ce_hist[epoch] = ce
        pending[filled] = softmax(xt @ weights + bias)
        filled += 1
        if filled == len(pending):
            score(epoch + 1)
            filled = 0
    if filled:
        score(config.epochs)
    return ToyUdaResult(
        ce=ce_hist,
        lt=lt_hist,
        accuracy=acc_hist,
        equity=eq_hist,
        disc=disc_hist,
        weights=weights,
        bias=bias,
    )
