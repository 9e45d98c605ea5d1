"""Desk-scale two-domain experiment: supervised source plus unlabeled target.

A softmax-linear classifier is trained by mini-batch gradient descent on

    mean cross-entropy(source batch) + lam * target_loss(target batch),

where the target loss is any of the four batch losses applied to the
softmax outputs of an unlabeled, distribution-shifted target batch.  The
linear model keeps runs under a second and isolates the effect of the
target term: with lam = 0 every loss kind trains bit-identically.

Every step is one call of :func:`objective_and_gradients`, the module's one
step function.  Each epoch gathers its target batch rows once, and each
source reshuffle its source rows and one-hot labels once; a step slices its
batches from those.  Each step and each epoch end runs one in-place softmax
over a buffer holding the source and then the target logits; its row max is
a running ``np.maximum`` over the C columns, not a reduction over each short
row, and a max being exact, the bits are the same.  The weights and the
bias are the first d rows and the last row of one (d + 1, C) parameter
block; a step returns its gradients as views of one such block, so the
momentum update is four in-place operations on whole blocks.  The epoch-end
target predictions are buffered and scored together, one stacked kernel call
per metric, with the same bits as scoring each epoch alone.

Data are isotropic Gaussian blobs.  Class centers sit at the vertices of a
regular simplex (pairwise equidistant, so no class is geometrically
privileged), scaled by ``center_spread``; target points use the same
centers plus a constant shift vector.  Target labels are generated but used
for evaluation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import probmat

# loss_value stays bound here although train scores its epochs as stacks: the
# benchmark's tracer wraps toyuda.loss_value by name
from .losses import (
    _CHUNK_FLOATS,
    LossConfig,
    _check_number,
    _check_number_fields,
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
    centers need ``features >= classes - 1``.  Every number, each entry of
    ``target_counts`` and ``shift`` included, passes the shared number rule
    (``losses._check_number``) first, and must be finite.
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
        # a JSON config can put a string, list, boolean, NaN or Infinity where a number belongs
        _check_number_fields(self, finite=True)
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
        if self.batch_size > self.classes * self.source_per_class:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds the source total"
                f" classes * source_per_class = {self.classes * self.source_per_class}"
            )
        if self.epochs < 1 or self.learning_rate <= 0.0:
            raise ValueError("epochs and learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolved_shift(self) -> np.ndarray:
        if self.shift is not None:
            return np.asarray(self.shift, dtype=float)
        direction = np.ones(self.features) / np.sqrt(self.features)
        return 1.5 * self.noise_scale * direction


def _as_tuple(name: str, values, kind) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from None
    for item in items:
        _check_number(f"each entry of {name}", item, kind, finite=True)
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
        """Write ``<prefix>.json`` and a ``<prefix>.csv`` trajectory file, one row per epoch."""
        json_path, csv_path = f"{prefix}.json", f"{prefix}.csv"
        probmat.write_json(json_path, self.to_dict())
        epochs = np.arange(self.ce.size, dtype=float)
        table = np.column_stack((epochs, self.ce, self.lt, self.accuracy, self.equity, self.disc))
        probmat.write_matrix_csv(csv_path, table, header="# epoch,ce,lt,acc,equity,disc")
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
    """Source then target points, each domain drawn in one call, class by class in row order."""
    centers = class_centers(config.classes, config.features, config.center_spread)
    ys = np.repeat(np.arange(config.classes), config.source_per_class)
    yt = np.repeat(np.arange(config.classes), config.target_counts)
    noise = config.noise_scale
    xs = centers[ys] + noise * rng.standard_normal((ys.size, config.features))
    xt = centers[yt] + config.resolved_shift() + noise * rng.standard_normal((yt.size, config.features))
    return xs, ys, xt, yt


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``z``, in place.

    The row max is a running ``np.maximum`` over the columns, which costs
    less than a reduction over each short row and, a max being exact, gives
    its bits; the row sum stays a reduction, whose association a
    column-wise sum would change.
    """
    top = np.maximum(z[:, 0], z[:, 1])
    for col in range(2, z.shape[1]):
        np.maximum(top, z[:, col], out=top)
    z -= top[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def objective_and_gradients(
    weights: np.ndarray,
    bias: np.ndarray,
    x_src: np.ndarray,
    onehot_src: np.ndarray,
    x_tgt: np.ndarray,
    loss_cfg: LossConfig,
):
    """One training step: source probabilities, target loss and the (d x C, C) gradients.

    The gradients are those of mean cross-entropy(source) + lam * target
    loss, with the target-loss gradient propagated through the softmax in
    closed form; with lam = 0 the target term contributes nothing.
    ``onehot_src`` holds the source labels as one-hot rows.  With lam > 0
    the source and target logits share one buffer and one in-place softmax.
    ``grad_w`` and ``grad_b`` are the first d rows and the last row of one
    (d + 1, C) block, their ``base``, so that :func:`train` updates its
    parameter block in whole-block operations.
    """
    n_src = x_src.shape[0]
    if loss_cfg.lam > 0.0:
        probs = np.empty((n_src + x_tgt.shape[0], weights.shape[1]))
        np.matmul(x_src, weights, out=probs[:n_src])
        np.matmul(x_tgt, weights, out=probs[n_src:])
    else:
        probs = x_src @ weights
    probs += bias
    probs_src = _softmax_rows(probs)[:n_src]
    # p - 1 at the label and p - 0 elsewhere: the same bits as subtracting 1 in place
    delta = probs_src - onehot_src
    delta /= n_src
    grads = np.empty((weights.shape[0] + 1, weights.shape[1]))
    grad_w, grad_b = grads[:-1], grads[-1]
    np.matmul(x_src.T, delta, out=grad_w)
    delta.sum(axis=0, out=grad_b)
    lt = 0.0
    if loss_cfg.lam > 0.0:
        probs_tgt = probs[n_src:]
        out = gradient(probs_tgt, loss_cfg)
        lt = out.value
        delta_t = out.grad  # p * (g - <g, p>) * lam, built in the gradient's own array
        delta_t -= (delta_t * probs_tgt).sum(axis=1, keepdims=True)
        delta_t *= probs_tgt
        delta_t *= loss_cfg.lam
        grad_w += x_tgt.T @ delta_t
        grad_b += delta_t.sum(axis=0)
    return probs_src, lt, grad_w, grad_b


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
    label_at = np.arange(n_src) * config.classes + ys  # flat index of each source label's entry
    size = config.batch_size
    params = np.zeros((config.features + 1, config.classes))  # the weights over the bias
    weights, bias = params[:-1], params[-1]
    velocity = np.zeros_like(params)
    momentum, rate, loss = config.momentum, config.learning_rate, config.loss
    epoch_probs = np.empty((n_src + n_tgt, config.classes))  # source then target rows at an epoch's end
    steps = -(-n_tgt // config.batch_size)
    ce_hist = np.empty(config.epochs)
    lt_hist = np.empty(config.epochs)
    acc_hist = np.empty(config.epochs)
    eq_hist = np.empty(config.epochs)
    disc_hist = np.empty(config.epochs)
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
                grad = objective_and_gradients(
                    weights, bias, xs_perm[src], onehot_perm[src], xt_epoch[k * size : (k + 1) * size], loss
                )[2].base  # the gradient block
                velocity *= momentum
                grad *= rate
                velocity -= grad
                params += velocity
            np.matmul(xs, weights, out=epoch_probs[:n_src])
            np.matmul(xt, weights, out=epoch_probs[n_src:])
            epoch_probs += bias
            _softmax_rows(epoch_probs)
            with np.errstate(divide="ignore"):
                ce = float(-np.log(epoch_probs.ravel()[label_at]).mean())
            if not np.isfinite(ce) or ce > DIVERGENCE_CE:
                raise TrainingDivergedError(
                    f"epoch {epoch}: source cross-entropy {ce!r} exceeds {DIVERGENCE_CE}"
                )
        except Exception:
            score(epoch)
            raise
        ce_hist[epoch] = ce
        pending[filled] = epoch_probs[n_src:]
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
