"""Batch prediction losses, their analytic gradients, and the SVD engine.

Four losses over a validated prediction matrix P (rows = samples, columns =
classes), all written so that smaller is better:

* ``ms``    mean negative squared confidence, -(1/B) sum P_ic^2.
* ``bnm``   negative nuclear norm per sample, -(1/B) sum of singular values.
* ``cwsm``  negative class weighted squares; each class contributes its
            squared column mass divided by its soft class size to the
            power r, so small classes weigh more as r grows.
* ``nsm``   negative normalized squares; the squared-confidence total is
            divided by a pairwise-overlap term that shrinks as predictions
            of different samples separate into different classes.

Conventions baked into the formulas, for values and gradients alike:

* A class with zero soft size contributes 0 to ``cws`` (its term is 0/0 in
  the raw formula; 0 is the continuous limit for r < 1 and is kept at
  r = 1 for uniformity).
* The ``ns`` pair sum runs over ordered pairs of distinct samples; the
  diagonal overlaps are excluded.
* A zero pairwise overlap contributes 0 to the ``ns`` denominator for every
  r in [0, 1], including r = 0.  This deliberately diverges from the
  0^0 = 1 convention so that matrices whose rows occupy pairwise distinct
  classes attain the exact optimum 1/alpha + epsilon*B.  Overlaps at or
  below 1e-300 contribute nothing to the ``ns`` gradient.
* An ``ns`` denominator below 1e-15 raises ZeroDivisionError.
* ``ms`` and ``bnm`` divide by B and ``cws`` by C, and raise
  ZeroDivisionError naming it when it is 0.  An empty matrix has no
  singular values, so its nuclear norm is 0.

Each of the four losses has one kernel over a (B, C) matrix or an
(N, B, C) stack that returns the values and, when asked, the gradients; the
single-matrix functions, the optimizer and the brute-force checks all go
through it, and the single-matrix functions hand it the matrix itself in
one call.  The ``bnm`` kernel reads the singular values and the gradient
-U V^T / B off one Jacobi pass per matrix and also flags which gradients are
exact; every other kind's are.  The SVD
and ``nsm`` kernels walk a stack in groups of bounded size, and a lone
matrix runs each step (Jacobi, sort, left factor, Gram-Schmidt, pair pass)
once, as 2-D arrays and Python or numpy scalars, with the same bits as a
row of a stack.  The ``nsm`` pair pass of a matrix of more than 1024 rows (2^20
overlaps) splits its row blocks across the CPUs the process may use, one
block at a time per thread, each extra thread keeping about 1 MB of block
arrays live; the blocks' sums are added in block order, so the bytes do not
depend on the CPU count.  The split's worker threads are started and joined
within the call, and BLAS stays on the one thread it is pinned to.

Output bits are pinned per host, with BLAS on one thread.  A multi-threaded
BLAS may split matrix products differently, and numpy picks its ``power``
loop by the CPU features it finds, so ``power`` (``cwsm`` and the ``ns``
pair term) can round differently on another host.  The ``ns`` gradient
weights are the pair term divided by the overlap, one more correctly
rounded operation, so they call no ``power`` of their own.  ``sqrt`` is
correctly rounded everywhere, so the ``ns`` pair term at r = 1/2 takes it,
and the ``ns`` value and gradient there call no ``power`` at all.

The SVD is a deterministic, seed-free one-sided Jacobi rather than a library
call, so it does not depend on a LAPACK build and the nuclear-norm path
stays independent of the closed-form checks used in the tests.  Tall
matrices are first reduced to their square triangular factor by Householder
QR (Drmac and Veselic 2008), and each sweep rotates the disjoint column
pairs of one round-robin round at a time (Brent and Luk 1985) until a sweep
finds every pair orthogonal to a relative 1e-14.  A matrix and a stack run
one sweep loop and one Gram-Schmidt loop; only each step's arithmetic
forks, and both forks give the same bits.  A lone matrix rotates a round
in one row update with Python-float parameters, far fewer numpy calls than
a stack's vectorised round; a round of one pair (every round of 2 or 3
columns) takes one ``einsum`` over the two 1-D rows and ``c`` from
``np.power`` (Python's ``**`` rounds differently in the last bit), in
scratch arrays made per call, never per module, since several threads may
decompose matrices at once.  The public ``np.einsum`` is called, not the
C function behind it, whose module moved between numpy 1.x and 2.x.  No
LAPACK routine is called.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
import typing
from dataclasses import dataclass
from typing import NoReturn, Union

import numpy as np

LOSS_KINDS = ("ms", "bnm", "cwsm", "nsm")

EPSILON_AUTO = "auto"
_AUTO_EPSILON_VALUE = 1e-6

# BNM gradient is reported exact only when consecutive singular values are
# separated by more than this gap and none sits at (numerical) zero.
SV_DISTINCT_GAP = 1e-8
SV_ZERO_TOL = 1e-10

# Pairwise overlaps at or below this floor contribute nothing to the ns
# gradient; overlap^(r-1) would overflow float64 below it for small r.
_PAIR_GRAD_FLOOR = 1e-300

_JACOBI_TOL = 1e-14
# entries per working array when a stack is decomposed group by group
_CHUNK_FLOATS = 2**16
# overlaps per tile when the nsm pair pass runs a stack's matrices in groups
_PAIR_TILE = 2**13
# a matrix whose pair pass holds more overlaps than this (B > 1024) deals its row blocks to
# all the CPUs this process may use; below it, handing a block over costs more than it saves
_SPLIT_OVERLAPS = 2**20
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_DENOM_TOL = 1e-15


class ConvergenceError(RuntimeError):
    """The Jacobi sweep cap was reached before the off-diagonals vanished."""


# Python type of a number field -> the values it accepts
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real}


def _check_number(name: str, value, kind: type = float, finite: bool = False) -> None:
    """The number rule every config shares: ValueError naming ``name`` unless ``value`` is a non-boolean
    real number (``kind=float``) or integer (``kind=int``), and not NaN or infinite when ``finite``."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER_KINDS[kind]):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    # JSON gives NaN and Infinity as floats; an int is finite and may not fit a float
    if finite and not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@functools.cache
def _number_fields(cls: type) -> tuple[tuple[str, type], ...]:
    # the int and float fields of a dataclass, however they are annotated
    return tuple((name, hint) for name, hint in typing.get_type_hints(cls).items() if hint in _NUMBER_KINDS)


def _check_number_fields(config, finite: bool = False) -> None:
    """Apply the number rule to every int and float field of the dataclass instance ``config``."""
    for name, kind in _number_fields(type(config)):
        _check_number(name, getattr(config, name), kind, finite)


@dataclass(frozen=True)
class LossConfig:
    """Loss selector plus parameters.

    Parameters irrelevant to the chosen kind are recorded but ignored.
    ``epsilon`` may be the literal string "auto", which resolves to 0 when
    the matrix has more rows than columns and to 1e-6 otherwise.
    ``lam`` is the weight given to the loss when it is combined with a
    supervised objective (see the toyuda module).  Every number, a non-string
    ``epsilon`` included, passes the shared number rule (:func:`_check_number`) first.
    """

    kind: str
    r: float = 0.5
    alpha: float = 1.0
    epsilon: Union[float, str] = EPSILON_AUTO
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        _check_number_fields(self)
        if not isinstance(self.epsilon, str):
            _check_number("epsilon", self.epsilon)
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        # written so that NaN fails the range test too
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if isinstance(self.epsilon, str):
            if self.epsilon != EPSILON_AUTO:
                raise ValueError(f"epsilon must be a number or 'auto', got {self.epsilon!r}")
        elif not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.kind == "nsm" and self.r > 0.0 and self.alpha == 0.0:
            raise ValueError("nsm with r > 0 and alpha = 0 is ill-posed: the denominator may vanish")

    def resolved_epsilon(self, n_rows: int, n_cols: int) -> float:
        if self.epsilon == EPSILON_AUTO:
            return 0.0 if n_rows > n_cols else _AUTO_EPSILON_VALUE
        return float(self.epsilon)


@dataclass
class GradOutput:
    """Loss value plus the matrix of partials d(loss)/dP_ic.

    ``exact`` is False when only a valid subgradient could be returned
    (bnm with repeated or vanishing singular values).
    """

    value: float
    grad: np.ndarray
    exact: bool


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD


def _column_index(cols: tuple[int, ...]) -> Union[slice, np.ndarray]:
    """``cols`` as a slice when evenly spaced, so numpy indexes with a view."""
    step = cols[1] - cols[0] if len(cols) > 1 else 1
    if all(b - a == step for a, b in zip(cols, cols[1:])):
        stop = cols[-1] + step
        return slice(cols[0], stop if stop >= 0 else None, step)
    return np.array(cols)


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple, ...]:
    """Brent-Luk round-robin schedule: rounds of disjoint column pairs (i, j), i < j.

    Every unordered pair of the n columns occurs in exactly one round.  An
    odd n is padded with a dummy column whose pairs are dropped, so there
    are n - 1 rounds for even n and n rounds for odd n.  Each round is
    returned as (left, right, pairs, rows): left and right column indices,
    the (i, j) pairs as ints, and the left columns followed by the right.
    """
    size = n + n % 2
    players = list(range(size))
    rounds = []
    for _ in range(size - 1):
        half = zip(players[: size // 2], reversed(players[size // 2 :]))
        pairs = sorted((min(a, b), max(a, b)) for a, b in half if max(a, b) < n)
        if pairs:
            left, right = zip(*pairs)
            rounds.append((_column_index(left), _column_index(right), tuple(pairs), _column_index(left + right)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _rotate_lone_round(
    work: np.ndarray,
    m: int,
    norms: list[float],
    pairs: tuple,
    rows: Union[slice, np.ndarray],
    floor: float,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> bool:
    """One round of a lone matrix's sweep, all pairs at once, with the rotation parameters as Python floats.

    ``work`` is the matrix's (n, m + n) working array and ``norms`` its
    column norms, both updated in place.  Returns whether any pair needed a
    rotation.  Each step is the vectorised round's, so the bits are the
    same: float ``+ - * /``, ``sqrt``, ``abs`` and ``copysign`` round alike
    in Python and numpy, c x + (-s) y and c y + s x round as c x - s y and
    s x + c y, and ``c`` comes from numpy's power, which Python's ``**``
    misses in the last bit in about 6 % of cases.

    A round of one pair (every round of a matrix of 2 or 3 columns) takes
    its inner product with one ``einsum`` over the 1-D rows i and j, which
    gives the vectorised round's bits in fewer steps than its 3-D form.
    ``scratch`` holds arrays made once per :func:`_jacobi_orthogonalize`
    call for it: ``c`` is taken by ``np.power`` in place in a 1-entry
    buffer, [-s; s] is written into a 2 x 1 column, and the turned rows
    s [-y; x] into a 2 x (m + n) array; the rows, a view, are then rotated
    in place.  The arrays belong to the call, not to the module, because
    threads may decompose matrices at once.
    The public ``np.einsum`` is used, since the C function behind it moves
    between numpy's major versions.

    A round of several pairs reads its ``rows`` once for one ``einsum`` of
    the inner products and rotates them in one update with C = [c; c],
    S = [-s; s].  When one of its pairs needs a rotation, the others get the
    identity (c = 1, s = 0), as in the vectorised round, which keeps the
    signs of zero entries alike.
    """
    half = len(pairs)
    xy = work[rows]  # left rows over right rows: a view for a slice, a copy for an index array
    if half == 1:
        ab = [float(np.einsum("m,m->", xy[0, :m], xy[1, :m]))]
    else:
        ab = np.einsum("npm,npm->np", xy[None, :half, :m], xy[None, half:, :m])[0].tolist()
    ts = []
    rotated = False
    for (i, j), prod in zip(pairs, ab):
        aa, bb = norms[i], norms[j]
        # two comparisons rather than max(): a NaN threshold skips the pair, as np.maximum does
        if abs(prod) > floor and abs(prod) > _JACOBI_TOL * math.sqrt(aa * bb):
            rotated = True
            zeta = (bb - aa) / (2.0 * prod)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
            ts.append(t)
            t *= prod  # closed-form norm updates aa - t ab and bb + t ab, clamped as np.maximum clamps
            aa -= t
            bb += t
            norms[i] = 0.0 if aa <= 0.0 else aa
            norms[j] = 0.0 if bb <= 0.0 else bb
        else:
            ts.append(0.0)
    if not rotated:
        return False
    if half == 1:  # rows i and j, a view, rotated in place
        (t,) = ts
        buf, coef, turned = scratch
        buf[0] = 1.0 + t * t
        np.power(buf, -0.5, out=buf)
        coef[1, 0] = s = buf.item() * t
        coef[0, 0] = -s
        np.multiply(xy[::-1], coef, out=turned)
        xy *= buf
        xy += turned
    else:  # C = [c; c] from one power over [1 + t^2; 1 + t^2], and S = C [-t; t] = [-s; s]
        C = (np.array([1.0 + t * t for t in ts] * 2) ** -0.5).reshape(2, half, 1)
        S = C * np.array([-t for t in ts] + ts).reshape(2, half, 1)
        xy = xy.reshape(2, half, -1)
        work[rows] = (C * xy + S * xy[::-1]).reshape(2 * half, -1)
    return True


def _jacobi_orthogonalize(mats: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, int]:
    """Rotate the columns of an (m, n) matrix, or of each matrix in an (N, m, n) stack, until orthogonal.

    ``mats`` has m >= n and is modified in place; the accumulated right
    rotations, (n, n) or (N, n, n), and the number of sweeps are returned.
    A sweep runs the round-robin rounds in order, all pairs of a round at
    once, so the computation is deterministic.  Column norms are computed
    once per sweep and updated in closed form after each rotation, leaving
    one inner product per pair and round.  One sweep loop serves both
    inputs and only the round forks: a lone matrix, or a stack of one,
    works on a 2-D (n, m + n) array with Python-float parameters
    (:func:`_rotate_lone_round`), a larger stack with the vectorised round,
    to the same bits.  A matrix with fewer than two columns has no pair to
    rotate and returns after 0 sweeps.
    """
    m, n = mats.shape[-2:]
    rounds = _round_robin(n)
    lone = mats.ndim == 2 or len(mats) == 1
    # row j of a matrix's working array holds its column j followed by column j of the rotations
    work = np.zeros((n, m + n) if lone else (len(mats), n, m + n))
    cols = work[..., :m]
    cols[...] = mats.swapaxes(-1, -2)
    work.reshape(work.shape[:-2] + (n * (m + n),))[..., m :: m + n + 1] = 1.0  # the identity in work[..., m:]
    norms = np.einsum("...km,...km->...k", cols, cols)
    # Rotation-invariant scale, 1e-32 times the sum of the column norms; inner products below
    # this floor belong to numerically-zero columns and are skipped (also keeps zeta finite).
    floor = 1e-32 * norms.sum(axis=-1, keepdims=True)
    if lone:
        floor = floor.item()
        scratch = np.empty(1), np.empty((2, 1)), np.empty((2, m + n))
    for sweep in range(1 if rounds else 0, max_sweeps + 1):  # no column pair: done at sweep 0
        rotated = False
        lone_norms = norms.tolist() if lone else None
        for left, right, pairs, rows in rounds:
            if lone:
                rotated |= _rotate_lone_round(work, m, lone_norms, pairs, rows, floor, scratch)
                continue
            # a stack's round, vectorised over its matrices and pairs; its temporaries live until the
            # next round, so large groups reuse their pages instead of returning them after each round
            x = work[:, left]
            y = work[:, right]
            ab = np.einsum("npm,npm->np", x[:, :, :m], y[:, :, :m])
            aa = norms[:, left]
            bb = norms[:, right]
            need = np.abs(ab) > np.maximum(_JACOBI_TOL * np.sqrt(aa * bb), floor)
            if not need.any():
                continue
            rotated = True
            zeta = (bb - aa) / (2.0 * np.where(need, ab, 1.0))
            t = np.where(need, np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), 0.0)
            c = (1.0 + t * t) ** -0.5
            s = c * t
            t *= ab  # closed-form norm updates: aa - t ab and bb + t ab
            norms[:, left] = np.maximum(aa - t, 0.0)
            norms[:, right] = np.maximum(bb + t, 0.0)
            c = c[:, :, None]
            s = s[:, :, None]
            new_x = c * x - s * y  # x and y may be views into work
            work[:, right] = s * x + c * y
            work[:, left] = new_x
        if not rotated:
            mats[...] = cols.swapaxes(-1, -2)
            return work[..., m:].swapaxes(-1, -2).copy().reshape(mats.shape[:-2] + (n, n)), sweep
        norms = np.einsum("...km,...km->...k", cols, cols)
    raise ConvergenceError(f"Jacobi SVD did not converge within {max_sweeps} sweeps")


def _householder_r(mats: np.ndarray) -> np.ndarray:
    """Triangular factor R (..., n, n) of ``mats = Q @ R`` for an (m, n) matrix or each of a stack, m >= n.

    Plain Householder reflections, one column at a time; a column whose
    remaining part is already zero is left alone.
    """
    a = mats.copy()
    n = a.shape[-1]
    for k in range(n):
        x = a[..., k:, k]
        norm = np.sqrt(np.einsum("...m,...m->...", x, x))
        head = x[..., 0]
        # v = x - alpha e1 with alpha = -sign(x0) |x|, so v.v = 2 |x| (|x| + |x0|)
        v = x.copy()
        v[..., 0] += np.where(head >= 0.0, norm, -norm)
        vv = 2.0 * norm * (norm + np.abs(head))
        scale = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0.0)
        proj = np.matmul(v[..., None, :], a[..., k:, k:])[..., 0, :] * scale[..., None]
        a[..., k:, k:] -= v[..., :, None] * proj[..., None, :]
    return np.triu(a[..., :n, :])


def _project_off(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row vectors ``v`` (..., 1, m) projected off the columns of ``basis`` (..., m, idx), twice."""
    # v holds row vectors, so both products are plain matmuls
    for _ in range(2):
        v = v - np.matmul(np.matmul(v, basis), basis.swapaxes(-1, -2))
    return v


def _completion(basis: np.ndarray) -> np.ndarray:
    """Normalized residual off ``basis`` (m, idx) of the first standard basis
    vector whose residual keeps more than half its length."""
    m = basis.shape[0]
    for cand in range(m):
        v = _project_off(basis, np.eye(1, m, cand))[0]
        norm = np.linalg.norm(v)
        if norm > 0.5:
            return v / norm
    raise ConvergenceError("failed to complete an orthonormal basis")


def _orthonormalize_columns(q: np.ndarray) -> np.ndarray:
    """Re-orthonormalize the columns of an (m, k) matrix or of every matrix in an (N, m, k) stack, in order.

    One column loop serves both: a column is projected off the already-fixed
    columns twice (classical Gram-Schmidt, twice is enough), for all matrices
    at once.  A column that keeps no more than half its length, such as the
    zero column of a vanishing singular value, is replaced by the first
    standard basis vector whose residual keeps more than half its length.
    Only the norm, divide and completion fork: a matrix takes its norm as a
    Python float; the products are the same matmuls, so the bits are the same.
    """
    out = np.empty_like(q)
    for idx in range(q.shape[-1]):
        basis = out[..., :idx]
        v = _project_off(basis, q[..., None, :, idx]) if idx else q[..., None, :, 0]
        if q.ndim == 2:
            norm = math.sqrt(np.einsum("im,im->", v, v))
            if norm <= 0.5:
                out[:, idx] = _completion(basis)
            else:
                np.divide(v[0], norm, out=out[:, idx])
        else:
            norm = np.sqrt(np.einsum("nim,nim->n", v, v))
            redo = norm <= 0.5
            out[:, :, idx] = v[:, 0, :] / np.where(redo, 1.0, norm)[:, None]
            for mat in np.flatnonzero(redo):
                out[mat, :, idx] = _completion(basis[mat])
    return out


def _jacobi_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobi-rotate a (B, C) matrix or an (N, B, C) stack.

    Returns (oriented A (..., m, k) with m >= k, rotations V, unsorted
    singular values); wide matrices are transposed.  A tall A (m >= 2k,
    k >= 5) is first reduced to its k x k factor R, so the rotated matrices
    are R @ V instead of A @ V; either way their column norms are the
    singular values.
    """
    work = mats.swapaxes(-1, -2) if mats.shape[-2] < mats.shape[-1] else mats
    m, k = work.shape[-2:]
    rotated = _householder_r(work) if m >= 2 * k and k >= 5 else work.copy()
    rots, _ = _jacobi_orthogonalize(rotated, max_sweeps=100 * k)
    return work, rots, np.sqrt(np.einsum("...mk,...mk->...k", rotated, rotated))


def _groups(stack: np.ndarray, per_matrix: int, limit: int) -> list:
    """Consecutive slices of max(1, limit // per_matrix) matrices of an (N, B, C) stack, so working
    arrays of per_matrix entries each stay bounded; a lone (B, C) matrix is one group, ``...``."""
    if stack.ndim == 2:
        return [...]
    size = max(1, limit // max(1, per_matrix))
    return [slice(first, first + size) for first in range(0, stack.shape[0], size)]


def _sorted_factors(
    part: np.ndarray, rots: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the factors of one oriented matrix or group by descending singular value.

    Returns (sigma, rotations V, left factor A V / sigma) for the oriented
    matrix or group A.  Left columns whose singular value is at or below
    SV_ZERO_TOL * max(1, sigma_0) are zero.
    """
    # Both permutations leave each V column-major, so A V rounds the same
    # for a matrix and a stack; the left column of a near-zero sigma
    # magnifies that rounding by sigma_0 / sigma.
    if sigma.ndim == 1:
        # a matrix takes its fill flags as Python floats; max(1, NaN) is NaN, as np.maximum gives
        order = (-sigma).argsort(kind="stable")
        sigma = sigma.take(order)
        rots = rots.T.take(order, 0).T  # column-major, as rots[:, order] is
        desc = sigma.tolist()
        cut = SV_ZERO_TOL * (1.0 if not desc or desc[0] <= 1.0 else desc[0])
        fill = [value <= cut for value in desc]
        left = np.matmul(part, rots)
        left /= [1.0 if zero else value for zero, value in zip(fill, desc)]
        if True in fill:
            left[:, fill] = 0.0
        return sigma, rots, left
    order = np.argsort(-sigma, axis=1, kind="stable")
    sigma = np.take_along_axis(sigma, order, axis=1)
    rots = np.take_along_axis(rots.transpose(0, 2, 1), order[:, :, None], axis=1).transpose(0, 2, 1)
    fill = (sigma <= SV_ZERO_TOL * np.maximum(1.0, sigma[..., :1]))[..., None, :]
    left = np.where(fill, 0.0, np.matmul(part, rots) / np.where(fill, 1.0, sigma[..., None, :]))
    return sigma, rots, left


def svd(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic thin SVD ``P = u @ diag(s) @ v.T`` of a prediction matrix.

    Returns ``(u, s, v)``: ``u`` is (B, k) and ``v`` is (C, k) with
    orthonormal columns, k = min(B, C), and ``s`` is sorted descending.
    Sign convention: the largest-magnitude entry of each ``u`` column is
    non-negative.

    One-sided Jacobi on the narrow side, sweep cap 100 * min(B, C).  When
    the matrix is at least twice as long as it is narrow and the narrow side
    is 5 or more, it is first reduced to its square triangular factor R by
    Householder QR, Jacobi runs on R, and the long-side factor is recovered
    as A @ V / sigma.  Each sweep rotates the disjoint column pairs of one
    round-robin round at a time.  Satisfies, for entries in [0, 1] at desk
    scale: exact reconstruction to 1e-9 * max(1, s[0]), orthonormal factor
    columns to 1e-9, descending singular values.

    This is the full decomposition for callers that need U and V; no loss
    path uses it (``bnm``, its gradient and :func:`nuclear_norm` read what
    they need off the ``bnm`` kernel and the singular-value path).
    """
    arr = np.asarray(P, dtype=float)
    if arr.ndim != 2:
        raise ValueError("svd expects a 2-D matrix")
    sigma, rots, left = _sorted_factors(*_jacobi_factors(arr))
    left = _orthonormalize_columns(left)
    u, v = (rots, left) if arr.shape[0] < arr.shape[1] else (left, rots)
    for col in range(sigma.size):
        pivot = int(np.argmax(np.abs(u[:, col])))
        if u[pivot, col] < 0.0:
            u[:, col] = -u[:, col]
            v[:, col] = -v[:, col]
    return u, sigma, v


def _singular_values_stack(stack: np.ndarray) -> np.ndarray:
    """Descending singular values of a (B, C) matrix or of every matrix in an (N, B, C) stack,
    from one walk over :func:`_groups` of about _CHUNK_FLOATS entries."""
    sigma = np.empty(stack.shape[:-2] + (min(stack.shape[-2:]),))
    for mats in _groups(stack, stack.shape[-2] * stack.shape[-1], _CHUNK_FLOATS):
        sigma[mats] = _jacobi_factors(stack[mats])[2]
    return np.sort(sigma, axis=-1)[..., ::-1]


# ---------------------------------------------------------------------------
# loss kernels over stacks: one per loss, (values, gradients or None); bnm
# also returns its exact flags


def _squares_stack(stack: np.ndarray) -> np.ndarray:
    return np.einsum("...bc,...bc->...", stack, stack)


def _equity_stack(stack: np.ndarray) -> np.ndarray:
    """1 - sum_c |size_c / B - 1/C| of a (..., B, C) array."""
    n_rows, n_cols = stack.shape[-2:]
    share = stack.sum(axis=-2) / n_rows
    return 1.0 - np.abs(share - 1.0 / n_cols).sum(axis=-1)


def _divides_by_zero(loss: str, dim: str) -> NoReturn:
    raise ZeroDivisionError(f"{loss} divides by {dim} = 0")


def _ms(stack: np.ndarray, want_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    n_rows = stack.shape[-2] or _divides_by_zero("ms", "B")
    return -_squares_stack(stack) / n_rows, (-2.0 * stack / n_rows if want_grad else None)


def _bnm(stack: np.ndarray, want_grad: bool) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | bool | None]:
    """Negated nuclear norm per sample of a (B, C) matrix or an (N, B, C) stack
    and, when asked, its gradient and exact flags.

    The gradient is the polar factor -U V^T / B, read off the same Jacobi
    pass as the singular values: U = A V / sigma on the oriented matrix A,
    re-orthonormalized in descending sigma order, since its error grows as
    sigma_0 / sigma.  Columns of U for a vanishing singular value are
    completed to an orthonormal basis (a subgradient).  Singular values and
    polar factors come from one walk over :func:`_groups`, in which a lone
    matrix is one group of 2-D arrays; it then negates and scales its polar
    factor in place.  A matrix's flag is exact only when consecutive
    singular values are more than SV_DISTINCT_GAP apart and none is below
    SV_ZERO_TOL, vacuously so without columns; a matrix gets a bool, taken
    in Python floats, and a stack an array of them.
    """
    n_rows, n_cols = stack.shape[-2] or _divides_by_zero("bnm", "B"), stack.shape[-1]
    if not want_grad:
        return -_singular_values_stack(stack).sum(axis=-1) / n_rows, None, None
    sigma = np.empty(stack.shape[:-2] + (min(n_rows, n_cols),))
    polar = np.empty(stack.shape[:-2] + (max(n_rows, n_cols), min(n_rows, n_cols)))
    for mats in _groups(stack, n_rows * n_cols, _CHUNK_FLOATS):
        sigma[mats], rots, left = _sorted_factors(*_jacobi_factors(stack[mats]))
        polar[mats] = np.matmul(_orthonormalize_columns(left), rots.swapaxes(-1, -2))
    if stack.ndim == 2:
        np.negative(polar, out=polar)
        polar /= n_rows
        desc = sigma.tolist()
        exact = (not desc or desc[-1] > SV_ZERO_TOL) and all(a - b > SV_DISTINCT_GAP for a, b in zip(desc, desc[1:]))
        return -sigma.sum() / n_rows, (polar.T if n_rows < n_cols else polar), exact
    exact = np.all(-np.diff(sigma, axis=1) > SV_DISTINCT_GAP, axis=1) & np.all(sigma[:, -1:] > SV_ZERO_TOL, axis=1)
    values = -sigma.sum(axis=-1) / n_rows
    return values, -(polar.swapaxes(-1, -2) if n_rows < n_cols else polar) / n_rows, exact


def _cwsm(stack: np.ndarray, r: float, want_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Negated class weighted squares of a (..., B, C) array and, when asked, its gradient."""
    n_cols = stack.shape[-1] or _divides_by_zero("cwsm", "C")
    sq_mass = np.einsum("...bc,...bc->...c", stack, stack)
    size = stack.sum(axis=-2)
    # no empty class: plain ufuncs, same bits as the masked ones, in both halves
    full = size.size and size.min() > 0.0
    if full:
        pow_r = np.power(size, r)
        terms = sq_mass / pow_r
    else:
        pos = size > 0.0
        pow_r = np.power(size, r, where=pos, out=np.ones_like(size))
        terms = np.zeros_like(size)
        np.divide(sq_mass, pow_r, where=pos, out=terms)
    values = -terms.sum(axis=-1) / n_cols
    if not want_grad:
        return values, None
    # d cws / dP_ic = (2 P_ic / size_c^r - r * sq_mass_c / size_c^(r+1)) / C
    if full:
        coef_lin = 1.0 / pow_r
        coef_const = r * terms / size
    else:
        coef_lin = np.where(pos, 1.0 / pow_r, 0.0)
        coef_const = np.zeros_like(size)
        np.divide(r * terms, size, where=pos, out=coef_const)
    return values, -(2.0 * stack * coef_lin[..., None, :] - coef_const[..., None, :]) / n_cols


def _pair_blocks(part: np.ndarray, grad_rows: np.ndarray | None, r: float, block: int, starts: range) -> list:
    """(pair-term sum, diagonal sum) of each row block of the matrix or group ``part`` that begins at
    one of ``starts``; with ``grad_rows``, the block's rows of W @ P are written there, with
    W = term / overlap taken from the block's pair term, so a block holds two arrays at most."""
    trans = part.swapaxes(-1, -2)
    n_rows = part.shape[-2]
    sums = []
    for start in starts:
        overlap = np.matmul(part[..., start : start + block, :], trans)
        np.maximum(overlap, 0.0, out=overlap)
        # the pair term overwrites the overlaps unless the weights still divide by them
        out = overlap if grad_rows is None else None
        if r == 0.0:
            term = overlap > 0.0
        elif r == 0.5:
            # correctly rounded at half the cost of power; `overlap **= 0.5` takes this path too
            term = np.sqrt(overlap, out=out)
        else:
            term = np.power(overlap, r, out=out)
        # a strided view, so each matrix's diagonal is summed pairwise along its own row, as a
        # lone matrix's is; a fancy-indexed diagonal of a stack comes out transposed and is
        # summed in sequence, with other bits
        sums.append((term.sum(axis=(-2, -1)), term.diagonal(start, -2, -1).sum(axis=-1)))
        if grad_rows is not None:
            # W = overlap^(r-1) = term / overlap, written over the pair term
            if overlap.size and overlap.min() > _PAIR_GRAD_FLOOR:
                # no overlap to mask: plain divide, same bits as the masked one
                weights = np.divide(term, overlap, out=term)
            else:
                keep = overlap > _PAIR_GRAD_FLOOR
                weights = np.divide(term, overlap, where=keep, out=term)
                weights[~keep] = 0.0
            # W_ii for the block's rows i: every (n_rows + 1)-th entry of each matrix's flat weights
            weights.reshape(*weights.shape[:-2], -1)[..., start :: n_rows + 1] = 0.0
            np.matmul(weights, part, out=grad_rows[..., start : start + block, :])
    return sums


def _dealt(task, starts: range, lanes: int) -> list:
    """``task(starts)``; with several lanes, ``task(starts[k::lanes])`` on lane k, lane 0 on the
    calling thread and the others on worker threads joined before this returns, each in a copy of
    the caller's context (numpy's errstate lives there).  The results come back in block order."""
    if lanes == 1:
        return task(starts)
    from concurrent.futures import ThreadPoolExecutor

    sums = [None] * len(starts)
    # leaving the block joins the workers, so none can still write into the caller's arrays
    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="equimax-nsm") as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, starts[lane::lanes]) for lane in range(1, lanes)]
        sums[::lanes] = task(starts[::lanes])
    for lane, future in enumerate(futures, 1):
        sums[lane::lanes] = future.result()
    return sums


def _nsm(
    stack: np.ndarray, r: float, alpha: float, epsilon: float, want_grad: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Negated normalized squares of a (B, C) matrix or an (N, B, C) stack and, when asked, its gradient.

    The pair sum over ordered sample pairs i != j of overlap_ij^r has an
    O(BC) closed form at r = 1.  Otherwise one row-blocked pass over the
    overlaps adds it up together with the gradient rows 2r * W @ P, where
    W_ij = overlap_ij^(r-1) for i != j.  At r = 1/2 the pair term is taken
    with ``sqrt``, which is correctly rounded.  W is the pair term divided
    by the overlap, within about 1 eps of overlap^(r-1) for overlaps down to
    1e-299 (a ``power`` with exponent r - 1 loses up to 86 eps at r = 0.1,
    where r - 1 rounds), and costs no second ``power``.  A block whose
    overlaps all lie above _PAIR_GRAD_FLOOR gets W from a plain divide; only
    a block with an overlap at or below it takes the masked divide, which
    leaves those weights at 0.  Each block's W @ P lands in its rows of the
    gradient, which is scaled by 2r once after the loop.  A stack's pass
    walks :func:`_groups` of matrices, and each matrix gets a lone matrix's
    row blocks, so each row of a stack's result has a lone matrix's bits.
    A lone matrix runs its blocks directly and adds their sums in numpy
    scalar math, the operations a stack row's 0-d sums take.

    A matrix of more than 1024 rows (_SPLIT_OVERLAPS overlaps) on a host
    where the process may use several CPUs deals its blocks round-robin to
    the calling thread and up to _CPUS - 1 per-call threads (:func:`_dealt`); numpy
    releases the interpreter lock inside each block's matmul, ``power``,
    ``sqrt`` and divide.  Every block runs the same operations either way and its sums
    are added into the pair sum in block order, so the bytes do not depend
    on the CPU count.  Each extra worker keeps one block's overlaps and
    weights, about 1 MB, live; BLAS stays on one thread.
    """
    n_rows = stack.shape[-2]
    squares = _squares_stack(stack)
    d_pair = None
    if r == 1.0:
        # sum_{i != j} overlap_ij == sum_c size_c^2 - squares
        size = stack.sum(axis=-2)
        pair_sum = np.einsum("...c,...c->...", size, size) - squares
        if want_grad:
            d_pair = 2.0 * size[..., None, :] - 2.0 * stack
    else:
        # a matrix's row block holds at most _CHUNK_FLOATS overlaps (~512 KB), so per-element
        # cost is uniform in B; a group's tile holds at most _PAIR_TILE overlaps, or one
        # matrix's block if that is larger
        block = max(1, min(n_rows, _CHUNK_FLOATS // max(1, n_rows)))
        starts = range(0, n_rows, block)
        lanes = min(_CPUS, len(starts)) if n_rows * n_rows > _SPLIT_OVERLAPS else 1
        with_weights = want_grad and r > 0.0
        if want_grad:
            # every row is written below unless r == 0, where the pair term is flat;
            # C order keeps each block's rows a BLAS-ready matmul output for any input layout
            d_pair = np.empty_like(stack, order="C") if with_weights else np.zeros_like(stack, order="C")
        if stack.ndim == 2:
            # a numpy scalar sum, added up as the 0-d sums of a stack's row are, in numpy scalar math
            pair_sum = 0.0
            task = functools.partial(_pair_blocks, stack, d_pair if with_weights else None, r, block)
            for pair, diag in _dealt(task, starts, lanes):
                pair_sum = pair_sum + pair - diag
        else:
            pair_sum = np.zeros(stack.shape[:-2])
            for mats in _groups(stack, block * n_rows, _PAIR_TILE):
                task = functools.partial(_pair_blocks, stack[mats], d_pair[mats] if with_weights else None, r, block)
                part_sum = pair_sum[mats]  # a view: the sums below land in pair_sum
                for pair, diag in _dealt(task, starts, lanes):
                    part_sum += pair
                    part_sum -= diag
        if with_weights:
            d_pair *= 2.0 * r
    denom = pair_sum + alpha * squares
    if (denom < _DENOM_TOL).any():
        raise ZeroDivisionError(
            f"normalized-squares denominator {float(denom.min())!r} below {_DENOM_TOL}"
        )
    values = squares / denom + epsilon * squares
    if d_pair is None:
        return -values, None
    d_squares = 2.0 * stack
    d_pair += alpha * d_squares  # now d denom
    if stack.ndim > 2:  # each matrix's sums broadcast over its entries
        squares, denom = squares[..., None, None], denom[..., None, None]
    grads = d_squares * denom
    grads -= squares * d_pair
    grads /= denom * denom
    grads += epsilon * d_squares
    return -values, np.negative(grads, out=grads)


def _ns_stack(stack: np.ndarray, r: float, alpha: float, epsilon: float) -> np.ndarray:
    """Positive normalized-squares values of a (..., B, C) array."""
    return -_nsm(stack, r, alpha, epsilon, False)[0]


def _loss_stack(
    kind: str, stack: np.ndarray, r: float, alpha: float, epsilon: float, want_grad: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | bool | None]:
    """(values, gradients or None, exact flags) of a (B, C) matrix or an (N, B, C) stack; only bnm's flags vary."""
    if kind == "ms":
        return (*_ms(stack, want_grad), True)
    if kind == "cwsm":
        return (*_cwsm(stack, r, want_grad), True)
    if kind == "nsm":
        return (*_nsm(stack, r, alpha, epsilon, want_grad), True)
    if kind == "bnm":
        return _bnm(stack, want_grad)
    raise ValueError(f"unknown loss kind {kind!r}")


def _loss_values_stack(kind: str, stack: np.ndarray, r: float, alpha: float, epsilon: float) -> np.ndarray:
    """Loss values of a (B, C) matrix or an (N, B, C) stack."""
    return _loss_stack(kind, stack, r, alpha, epsilon, False)[0]


def _loss_grads_stack(
    kind: str, stack: np.ndarray, r: float, alpha: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Values and gradients of a matrix or a stack, from the loss's kernel."""
    return _loss_stack(kind, stack, r, alpha, epsilon, True)[:2]


# ---------------------------------------------------------------------------
# public single-matrix API


def _as_matrix(P: np.ndarray) -> np.ndarray:
    arr = np.asarray(P, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D prediction matrix")
    return arr


def ms(P: np.ndarray) -> float:
    """Mean negative squared confidence: -(1/B) sum_ic P_ic^2."""
    return float(_ms(_as_matrix(P), False)[0])


def bnm(P: np.ndarray) -> float:
    """Negative nuclear norm per sample: -(1/B) sum_i sigma_i."""
    return float(_bnm(_as_matrix(P), False)[0])


def nuclear_norm(P: np.ndarray) -> float:
    """Sum of singular values.  Equals sum_c sqrt(n_c) on one-hot matrices.

    Read from the singular-value path, as ``bnm`` is; :func:`svd` is not
    used.
    """
    return float(_singular_values_stack(_as_matrix(P)).sum())


def cws(P: np.ndarray, r: float) -> float:
    """Class weighted squares: (1/C) sum_c (column squared mass) / (soft size)^r.

    A class with zero soft size contributes 0.  ``r`` outside [0, 1] raises
    :class:`LossConfig`'s ValueError.
    """
    LossConfig("cwsm", r=r)
    return -float(_cwsm(_as_matrix(P), r, False)[0])


def ns(P: np.ndarray, r: float, alpha: float, epsilon: float) -> float:
    """Normalized squares.

    squares / (sum over ordered sample pairs of overlap^r + alpha * squares)
    plus epsilon * squares, with squares = sum_ic P_ic^2 and
    overlap_ij = sum_c P_ic P_jc.  Zero overlaps contribute 0 for every r.
    ``epsilon`` may be "auto", resolved as :class:`LossConfig` resolves it
    (0 when P has more rows than columns, 1e-6 otherwise).
    :class:`LossConfig`'s ValueError, naming the field, rejects r outside
    [0, 1], a negative or non-finite alpha or epsilon, and alpha = 0 with
    r > 0.  A denominator below 1e-15 (r = 0 with alpha = 0, or no rows)
    raises ZeroDivisionError.
    """
    cfg = LossConfig("nsm", r=r, alpha=alpha, epsilon=epsilon)
    arr = _as_matrix(P)
    return -float(_nsm(arr, r, alpha, cfg.resolved_epsilon(*arr.shape), False)[0])


def discriminability(P: np.ndarray) -> float:
    """Mean squared confidence, (1/B) sum_ic P_ic^2; 1 exactly on one-hot rows."""
    arr = _as_matrix(P)
    return float(_squares_stack(arr) / arr.shape[0])


def equity_metric(P: np.ndarray) -> float:
    """1 - sum_c |size_c / B - 1/C|: 1 iff all soft class sizes are equal."""
    return float(_equity_stack(_as_matrix(P)))


def loss_value(P: np.ndarray, cfg: LossConfig) -> float:
    """Evaluate the configured loss on ``P`` (auto epsilon resolved here)."""
    arr = _as_matrix(P)
    return float(_loss_stack(cfg.kind, arr, cfg.r, cfg.alpha, cfg.resolved_epsilon(*arr.shape), False)[0])


def gradient(P: np.ndarray, cfg: LossConfig) -> GradOutput:
    """Loss value and the matrix of partials d(loss)/dP_ic (auto epsilon resolved here).

    Analytic in closed form for ms/cwsm/nsm.  For bnm the polar factor
    -(u @ v.T)/B of the thin SVD is returned; it is the exact gradient
    when the singular values are separated by more than 1e-8 and none is
    numerically zero, and a valid subgradient (``exact=False``) otherwise.
    """
    arr = _as_matrix(P)
    value, grad, exact = _loss_stack(cfg.kind, arr, cfg.r, cfg.alpha, cfg.resolved_epsilon(*arr.shape), True)
    return GradOutput(value=float(value), grad=grad, exact=exact)
