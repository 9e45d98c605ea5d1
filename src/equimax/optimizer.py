"""Multi-start projected gradient ascent over row simplices, and 2x2 surfaces.

``maximize`` ascends the negated loss: each start draws rows from the flat
distribution on the simplex, moves along the analytic gradient, and
re-projects row by row.  A step is accepted when it lowers the objective
by at most 1e-10 (``ACCEPT_TOL``), so decreases that small are accepted
along with gains; a step that lowers it by more is retried with a halved
step.  The halving also absorbs non-ascent subgradient proposals from the
nuclear-norm loss.  A step makes one loss-kernel call: the full-step
candidates are scored together with their gradients, and a start that
takes its candidate keeps that gradient for its next step.  The halved
steps of the starts left over, depths 1 to ``MAX_HALVINGS``, are scored
as one stacked rung, each start taking its first acceptable depth, as a
one-depth-at-a-time ladder would.  The rung is scored a few starts at a
time, in parts of at most the larger of 2**16 and inits * B * C entries,
or one start's depths.  Every ``POLISH_EVERY`` steps each active
start is polished, and every start once more at the end: its rows snap to their
argmax corners, and a steepest single-row relabel search then climbs over
one-hot vertices, scoring each move by its class sizes alone.  The start
takes the vertex it ends on when that does not lower its value by more
than ``ACCEPT_TOL``.  A start retires for one of three reasons
(``RETIRE_REASONS``): it converged (projected-gradient norm below
``TOL_GRAD``), no step scale down to ``MAX_HALVINGS`` halvings improved
it or its accepted candidate equals it (a null move, not counted as a
step), or it reached the step cap.

``surface`` evaluates a negated loss on a uniform grid over the two-sample,
two-class family [[p1, 1-p1], [p2, 1-p2]], the smallest case in which the
balance-versus-confidence trade-off is visible.  Corners map to the
canonical 2x2 examples: (0,0)=P1, (1,0)=P2, (0,1)=P3, (1,1)=P4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import probmat
from .losses import LossConfig, _check_number, _check_number_fields, _loss_grads_stack, _loss_values_stack
from .probmat import one_hot_matrix, project_rows

ACCEPT_TOL = 1e-10
TOL_GRAD = 1e-7
MAX_HALVINGS = 60
POLISH_EVERY = 25
RETIRE_REASONS = ("converged", "no improving step", "step cap")
SURFACE_ARGMAX_TOL = 1e-6
# entries one part of the halving ladder's stacked rung may hold, at least; the
# rung is scored in parts of the larger of this and inits * B * C entries
_RUNG_FLOATS = 2**16


@dataclass(frozen=True)
class AscentConfig:
    """Multi-start ascent settings; the defaults suit desk-scale matrices.

    Every field passes the shared number rule (``losses._check_number``) first.
    """

    inits: int = 64
    steps: int = 2000
    step_size: float = 0.05
    seed: int = 0xE0517

    def __post_init__(self):
        _check_number_fields(self)
        if self.inits < 1 or self.steps < 1:
            raise ValueError("inits and steps must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")


@dataclass
class AscentResult:
    """Best iterate of a multi-start run plus the per-start trace.

    Values are of the negated loss (maximization orientation).
    ``halving_events`` counts proposals that needed at least one step
    halving before acceptance.  ``retire_reasons`` names, per start, the
    one of ``RETIRE_REASONS`` that ended it: converged, no improving step,
    or step cap.
    """

    best_matrix: np.ndarray
    best_value: float
    final_values: np.ndarray
    accepted_steps: np.ndarray
    halving_events: int
    retire_reasons: list[str]


def _check_shape(n_rows: int, n_cols: int) -> None:
    """The shape check of the ascent and of every statement: integers, n_rows >= 1 and n_cols >= 2."""
    _check_number("n_rows", n_rows, int)
    _check_number("n_cols", n_cols, int)
    if n_rows < 1 or n_cols < 2:
        raise ValueError(f"need n_rows >= 1 and n_cols >= 2, got {n_rows}, {n_cols}")


def maximize(
    loss_cfg: LossConfig,
    n_rows: int,
    n_cols: int,
    cfg: Optional[AscentConfig] = None,
) -> AscentResult:
    """Maximize the negated loss over the product of row simplices.

    Deterministic for a fixed seed.  All starts advance in lockstep as one
    (inits, B, C) stack.  A step scores its full-step candidates with their
    gradients in one kernel call (``_loss_grads_stack``), and a start that
    moves there keeps the gradient for its next step; a start without one
    (it moved to a polished vertex or along the halving ladder) gets it in
    one call for all such starts at the start of the next step.  Depths 1
    to ``MAX_HALVINGS`` of the ladder are scored for the starts still
    pending as one stacked rung (``_loss_values_stack``), in parts of at
    most max(inits * B * C, 2**16) entries, or one start's depths, and each
    start takes its first acceptable depth.  The kernels give a
    matrix the same value bits with and without gradients and whatever stack
    it is in, so the result equals that of one kernel call per depth.
    Every ``POLISH_EVERY`` steps the active starts get a value-guarded
    vertex polish, and so does every final iterate: rows
    snap to their argmax corner, single rows are relabelled while that
    raises the value (``_relabel_ascent``), and the vertex replaces the
    iterate when its value is not lower.  A start retires when

    * it converged: its projected-gradient norm at the nominal step size
      falls below ``TOL_GRAD``;
    * no step scale down to ``MAX_HALVINGS`` halvings improves its value,
      or the accepted candidate equals the iterate (a null move, not a step);
    * or it reached the step cap.

    The best final iterate is chosen by value, ties broken by lexicographic
    matrix order.  Raises ``ValueError`` unless integers n_rows >= 1 and n_cols >= 2.
    """
    _check_shape(n_rows, n_cols)
    cfg = cfg or AscentConfig()
    rng = np.random.default_rng(cfg.seed)
    eps = loss_cfg.resolved_epsilon(n_rows, n_cols)
    kind, r, alpha = loss_cfg.kind, loss_cfg.r, loss_cfg.alpha
    points = rng.dirichlet(np.ones(n_cols), size=(cfg.inits, n_rows))
    losses, grads = _loss_grads_stack(kind, points, r, alpha, eps)
    values = -losses
    uphill = -grads  # each start's ascent direction, valid where ``known``
    known = np.ones(cfg.inits, dtype=bool)
    active = np.ones(cfg.inits, dtype=bool)
    accepted = np.zeros(cfg.inits, dtype=int)
    reasons = np.full(cfg.inits, "step cap", dtype=object)
    halving_events = 0
    ladder = [cfg.step_size]
    for _ in range(MAX_HALVINGS):
        ladder.append(ladder[-1] / 2.0)
    ladder = np.array(ladder)
    per = max(1, max(cfg.inits * n_rows * n_cols, _RUNG_FLOATS) // (MAX_HALVINGS * n_rows * n_cols))

    def polish(rows_sel: np.ndarray) -> None:
        # Snap each row to its argmax corner, then relabel single rows while
        # that raises the value.  Iterates chased towards extreme points by
        # large gradients can otherwise stall a hair away from them, and two
        # rows parked at (1/2, 1/2) on the same classes snap into one class.
        labels = points[rows_sel].argmax(axis=2)
        _relabel_ascent(
            labels, n_cols, lambda sizes: _size_values(kind, sizes, r, alpha, eps)
        )
        vertices = one_hot_matrix(labels, n_cols)
        vertex_vals = -_loss_values_stack(kind, vertices, r, alpha, eps)
        keep = vertex_vals >= values[rows_sel] - ACCEPT_TOL
        points[rows_sel[keep]] = vertices[keep]
        values[rows_sel[keep]] = vertex_vals[keep]
        known[rows_sel[keep]] = False

    def retire(sel: np.ndarray, reason: str) -> None:
        active[sel] = False
        reasons[sel] = reason

    def settle(sel, current, ok, chosen, chosen_vals) -> np.ndarray:
        # The starts of ``sel`` marked ``ok`` move to their ``chosen``
        # candidate, unless it equals the iterate: a null move (no step is
        # left on the arc), which retires the start.  Returns the movers' mask.
        null = ok & (chosen == current).all(axis=(1, 2))
        if null.any():
            retire(sel[null], "no improving step")
        took = ok & ~null
        moving = sel[took]
        points[moving] = chosen[took]
        values[moving] = chosen_vals[took]
        accepted[moving] += 1
        return took

    for outer in range(cfg.steps):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        if outer and outer % POLISH_EVERY == 0:
            polish(idx)
        stale = idx[~known[idx]]
        if stale.size:
            uphill[stale] = -_loss_grads_stack(kind, points[stale], r, alpha, eps)[1]
            known[stale] = True
        current = points[idx]
        cur_vals = values[idx]
        direction = uphill[idx]
        candidate = project_rows(current + cfg.step_size * direction)
        moved = np.linalg.norm((candidate - current).reshape(idx.size, -1), axis=1)
        converged = moved / cfg.step_size < TOL_GRAD
        if converged.any():
            retire(idx[converged], "converged")
        # depth 0: the candidates' values and gradients from one kernel call;
        # a converged start's candidate is scored too and left unused
        losses, grads = _loss_grads_stack(kind, candidate, r, alpha, eps)
        cand_vals = -losses
        ok = (cand_vals >= cur_vals - ACCEPT_TOL) & ~converged
        took = settle(idx, current, ok, candidate, cand_vals)
        uphill[idx[took]] = -grads[took]
        pending = np.nonzero(~(ok | converged))[0]  # positions in idx
        halving_events += pending.size
        # depths 1..MAX_HALVINGS in one rung, a few starts at a time: a start
        # settles at its first acceptable depth, as a one-depth-at-a-time
        # ladder would, and one with none is at a local maximum of the
        # projection arc, so it is finished
        for first in range(0, pending.size, per):
            part = pending[first : first + per]
            cands = project_rows(current[part][:, None] + ladder[1:, None, None] * direction[part][:, None])
            flat = cands.reshape(-1, n_rows, n_cols)
            rung_vals = -_loss_values_stack(kind, flat, r, alpha, eps).reshape(part.size, -1)
            ok = rung_vals >= cur_vals[part][:, None] - ACCEPT_TOL
            hit = ok.any(axis=1)
            at = (np.arange(part.size), ok.argmax(axis=1))
            took = settle(idx[part], current[part], hit, cands[at], rung_vals[at])
            known[idx[part[took]]] = False
            retire(idx[part[~hit]], "no improving step")

    polish(np.arange(cfg.inits))

    order = sorted(
        range(cfg.inits), key=lambda i: (-values[i], tuple(points[i].ravel().tolist()))
    )
    best = order[0]
    return AscentResult(
        best_matrix=points[best].copy(),
        best_value=float(values[best]),
        final_values=values.copy(),
        accepted_steps=accepted,
        halving_events=halving_events,
        retire_reasons=reasons.tolist(),
    )


def _size_values(
    kind: str, sizes: np.ndarray, r: float, alpha: float, epsilon: float
) -> np.ndarray:
    """Negated loss of one-hot matrices with the given (N, C) class sizes.

    On one-hot matrices every loss depends only on the multiset of class
    sizes, so each distinct multiset is evaluated once by the loss kernel,
    on the one-hot matrix whose rows fill the classes in descending size
    order.  The distinct multisets come from a 1-D lexicographic sort of
    the descending size rows (first column primary), so they are scored in
    ascending lexicographic order.
    """
    canon = -np.sort(-sizes, axis=1)
    order = np.lexsort(canon.T[::-1])
    ranked = canon[order]
    first = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    bounds = np.cumsum(ranked[first], axis=1)
    labels = (np.arange(bounds[0, -1])[None, :, None] >= bounds[:, None, :]).sum(axis=2)
    one_hot = one_hot_matrix(labels, sizes.shape[1])
    return -_loss_values_stack(kind, one_hot, r, alpha, epsilon)[inverse]


def _relabel_ascent(labels: np.ndarray, n_cols: int, score) -> None:
    """Steepest single-row relabel ascent over one-hot vertices, in place.

    ``labels`` is an (S, B) stack of row labels and ``score`` maps (N, C)
    class sizes to values.  A round scores every move of one row from class
    a to class b by its size vector and applies each start's best move on a
    strict gain: the first best in (a, b) order, on the last row labelled a.
    The search ends when no start gains.
    """
    n_rows = labels.shape[1]
    src, dst = np.nonzero(~np.eye(n_cols, dtype=bool))
    delta = np.eye(n_cols, dtype=int)[dst] - np.eye(n_cols, dtype=int)[src]
    live = np.arange(labels.shape[0])
    while live.size:
        sizes = (labels[live][:, :, None] == np.arange(n_cols)).sum(axis=1)
        movable = sizes[:, src] > 0
        moved = sizes[:, None, :] + delta * movable[:, :, None]
        scores = score(np.concatenate([sizes, moved.reshape(-1, n_cols)]))
        after = np.where(movable, scores[live.size :].reshape(movable.shape), -np.inf)
        best = after.argmax(axis=1)
        ahead = after[np.arange(live.size), best] > scores[: live.size]
        live, best = live[ahead], best[ahead]
        last = n_rows - 1 - (labels[live, ::-1] == src[best][:, None]).argmax(axis=1)
        labels[live, last] = dst[best]


@dataclass
class SurfaceGrid:
    """Negated-loss values on the G x G grid over (p1, p2) in [0, 1]^2.

    ``p1`` parameterizes the first row [p1, 1-p1] and ``p2`` the second;
    points are stored row-major with p1 varying slowest.  ``argmax`` lists
    every grid point within 1e-6 of the grid maximum.
    """

    config: LossConfig
    grid: int
    p1: np.ndarray
    p2: np.ndarray
    values: np.ndarray
    argmax: list[tuple[float, float]]
    max_value: float


def surface(loss_cfg: LossConfig, grid: int = 201) -> SurfaceGrid:
    _check_number("grid", grid, int)
    if not 2 <= grid <= 2001:
        raise ValueError(f"grid must be in [2, 2001], got {grid}")
    ticks = np.linspace(0.0, 1.0, grid)
    p1, p2 = np.meshgrid(ticks, ticks, indexing="ij")
    p1 = p1.ravel()
    p2 = p2.ravel()
    stack = np.empty((grid * grid, 2, 2))
    stack[:, 0, 0] = p1
    stack[:, 0, 1] = 1.0 - p1
    stack[:, 1, 0] = p2
    stack[:, 1, 1] = 1.0 - p2
    eps = loss_cfg.resolved_epsilon(2, 2)
    values = -_loss_values_stack(loss_cfg.kind, stack, loss_cfg.r, loss_cfg.alpha, eps)
    top = float(values.max())
    hit = np.nonzero(values >= top - SURFACE_ARGMAX_TOL)[0]
    argmax = [(float(p1[i]), float(p2[i])) for i in hit]
    return SurfaceGrid(
        config=loss_cfg, grid=grid, p1=p1, p2=p2, values=values, argmax=argmax, max_value=top
    )


def gradient_profile(loss_cfg: LossConfig) -> np.ndarray:
    """Gradient magnitudes near the maximally uncertain 2x2 point.

    Returns (offset, Frobenius norm of the loss gradient) rows along the
    path p1 = 0.5 + offset, p2 = 0.5 - offset, at the offsets 0, 0.01,
    0.02, 0.05, 0.1 and 0.2.  Inspection aid for how
    sharply each loss reacts around uncertain predictions; no verdict is
    attached.  The six matrices are scored as one stack, whose rows have
    the bits of lone calls.
    """
    d = np.array([0.0, 0.01, 0.02, 0.05, 0.1, 0.2])
    mats = np.stack((0.5 + d, 0.5 - d, 0.5 - d, 0.5 + d), axis=1).reshape(-1, 2, 2)
    _, grads = _loss_grads_stack(loss_cfg.kind, mats, loss_cfg.r, loss_cfg.alpha, loss_cfg.resolved_epsilon(2, 2))
    return np.array([(float(x), float(np.linalg.norm(g))) for x, g in zip(d, grads)])


def write_surface_csv(surf: SurfaceGrid, target: str) -> str:
    """Write the grid as CSV ("# p1,p2,value") to the path ``target`` plus a JSON argmax sidecar.

    The sidecar lands at ``<target>.argmax.json``; its path is returned.
    """
    probmat.write_matrix_csv(target, np.column_stack((surf.p1, surf.p2, surf.values)), header="# p1,p2,value")
    sidecar = {
        "loss": surf.config.kind,
        "r": surf.config.r,
        "alpha": surf.config.alpha,
        "epsilon": surf.config.resolved_epsilon(2, 2),
        "grid": surf.grid,
        "max_value": surf.max_value,
        "argmax": [[a, b] for a, b in surf.argmax],
    }
    sidecar_path = str(target) + ".argmax.json"
    probmat.write_json(sidecar_path, sidecar)
    return sidecar_path
