"""Multi-start projected gradient ascent over row simplices, and 2x2 surfaces.

``maximize`` ascends the negated loss: each start draws rows from the flat
distribution on the simplex, moves along the analytic gradient, and
re-projects row by row.  A step is accepted when it lowers the objective
by at most 1e-10 (``ACCEPT_TOL``), so decreases that small are accepted
along with gains; a step that lowers it by more is retried with a halved
step.  The halving also absorbs non-ascent subgradient proposals from the
nuclear-norm loss.  A start retires for one of four reasons
(``RETIRE_REASONS``): it converged (projected-gradient norm below
``tol_grad``), it stalled (its value gained at most 1e-12, ``STALL_GAIN``,
between two vertex polishes), no step scale improved it, or it reached the
step cap.

``surface`` evaluates a negated loss on a uniform grid over the two-sample,
two-class family [[p1, 1-p1], [p2, 1-p2]], the smallest case in which the
balance-versus-confidence trade-off is visible.  Corners map to the
canonical 2x2 examples: (0,0)=P1, (1,0)=P2, (0,1)=P3, (1,1)=P4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .losses import LossConfig, _loss_grads_stack, _loss_values_stack
from .probmat import project_rows, read_array_csv

ACCEPT_TOL = 1e-10
STALL_GAIN = 1e-12
RETIRE_REASONS = ("converged", "stalled", "no improving step", "step cap")
SURFACE_ARGMAX_TOL = 1e-6


@dataclass(frozen=True)
class AscentConfig:
    """Multi-start ascent settings; the defaults suit desk-scale matrices."""

    inits: int = 64
    steps: int = 2000
    step_size: float = 0.05
    tol_grad: float = 1e-7
    seed: int = 0xE0517
    max_halvings: int = 60
    polish_every: int = 25

    def __post_init__(self):
        if self.inits < 1 or self.steps < 1 or self.max_halvings < 1 or self.polish_every < 1:
            raise ValueError("inits, steps, max_halvings, and polish_every must be positive")
        if self.step_size <= 0.0 or self.tol_grad <= 0.0:
            raise ValueError("step_size and tol_grad must be positive")


@dataclass
class AscentResult:
    """Best iterate of a multi-start run plus the per-start trace.

    Values are of the negated loss (maximization orientation).
    ``halving_events`` counts proposals that needed at least one step
    halving before acceptance.  ``retire_reasons`` names, per start, the
    one of ``RETIRE_REASONS`` that ended it: converged, stalled (at most
    ``STALL_GAIN`` gained between two vertex polishes), no improving step,
    or step cap.
    """

    best_matrix: np.ndarray
    best_value: float
    final_values: np.ndarray
    final_matrices: np.ndarray
    accepted_steps: np.ndarray
    halving_events: int
    retire_reasons: list[str]
    histories: Optional[list] = None


def maximize(
    loss_cfg: LossConfig,
    n_rows: int,
    n_cols: int,
    cfg: Optional[AscentConfig] = None,
    record_history: bool = False,
) -> AscentResult:
    """Maximize the negated loss over the product of row simplices.

    Deterministic for a fixed seed.  All starts advance in lockstep as one
    (inits, B, C) stack.  Every ``polish_every`` steps the active starts get
    a value-guarded vertex polish (rows snapped to their argmax corner when
    that does not lower the value), and so does every final iterate.  A
    start retires when

    * it converged: its projected-gradient norm at the nominal step size
      falls below ``tol_grad``;
    * it stalled: at a polish, its value gained at most ``STALL_GAIN``
      since the previous polish;
    * no step scale down to ``max_halvings`` halvings improves its value;
    * or it reached the step cap.

    The best final iterate is chosen by value, ties broken by lexicographic
    matrix order.
    """
    cfg = cfg or AscentConfig()
    rng = np.random.default_rng(cfg.seed)
    eps = loss_cfg.resolved_epsilon(n_rows, n_cols)
    kind, r, alpha = loss_cfg.kind, loss_cfg.r, loss_cfg.alpha
    points = rng.dirichlet(np.ones(n_cols), size=(cfg.inits, n_rows))
    values = -_loss_values_stack(kind, points, r, alpha, eps)
    active = np.ones(cfg.inits, dtype=bool)
    accepted = np.zeros(cfg.inits, dtype=int)
    reasons = np.full(cfg.inits, "step cap", dtype=object)
    checkpoint = values.copy()
    halving_events = 0
    histories = [[float(v)] for v in values] if record_history else None

    def polish(rows_sel: np.ndarray) -> None:
        # Snap each row to its argmax corner when that does not lower the
        # value.  Iterates chased towards extreme points by large gradients
        # can otherwise stall a hair away from them: re-projection keeps
        # leaking mass back into zeroed columns.
        if rows_sel.size == 0:
            return
        snapped = np.zeros((rows_sel.size, n_rows, n_cols))
        labels = points[rows_sel].argmax(axis=2)
        snapped[
            np.arange(rows_sel.size)[:, None], np.arange(n_rows)[None, :], labels
        ] = 1.0
        snap_vals = -_loss_values_stack(kind, snapped, r, alpha, eps)
        keep = snap_vals >= values[rows_sel] - ACCEPT_TOL
        points[rows_sel[keep]] = snapped[keep]
        values[rows_sel[keep]] = snap_vals[keep]

    def retire(sel: np.ndarray, reason: str) -> None:
        active[sel] = False
        reasons[sel] = reason

    for outer in range(cfg.steps):
        if outer and outer % cfg.polish_every == 0:
            idx = np.nonzero(active)[0]
            polish(idx)
            # a start that keeps accepting steps of (almost) no gain would
            # otherwise spin, halving all the way down, to the step cap
            retire(idx[values[idx] - checkpoint[idx] <= STALL_GAIN], "stalled")
            checkpoint = values.copy()
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        current = points[idx]
        cur_vals = values[idx]
        _, grads = _loss_grads_stack(kind, current, r, alpha, eps)
        direction = -grads
        candidate = project_rows(current + cfg.step_size * direction)
        moved = np.linalg.norm((candidate - current).reshape(idx.size, -1), axis=1)
        converged = moved / cfg.step_size < cfg.tol_grad
        retire(idx[converged], "converged")
        cand_vals = -_loss_values_stack(kind, candidate, r, alpha, eps)
        pending = ~converged
        step = np.full(idx.size, cfg.step_size)
        halved = np.zeros(idx.size, dtype=bool)
        for depth in range(cfg.max_halvings + 1):
            if not pending.any():
                break
            ok = pending & (cand_vals >= cur_vals - ACCEPT_TOL)
            if ok.any():
                sel = idx[ok]
                points[sel] = candidate[ok]
                values[sel] = cand_vals[ok]
                accepted[sel] += 1
                pending &= ~ok
            if not pending.any():
                break
            if depth == cfg.max_halvings:
                # no improving step at any scale: a local maximum of the
                # projection arc, so this start is finished
                retire(idx[pending], "no improving step")
                break
            halved |= pending
            step[pending] /= 2.0
            candidate[pending] = project_rows(
                current[pending] + step[pending][:, None, None] * direction[pending]
            )
            cand_vals[pending] = -_loss_values_stack(
                kind, candidate[pending], r, alpha, eps
            )
        halving_events += int(halved.sum())
        if record_history:
            for i in idx:
                histories[i].append(float(values[i]))

    polish(np.arange(cfg.inits))

    order = sorted(
        range(cfg.inits), key=lambda i: (-values[i], tuple(points[i].ravel().tolist()))
    )
    best = order[0]
    return AscentResult(
        best_matrix=points[best].copy(),
        best_value=float(values[best]),
        final_values=values.copy(),
        final_matrices=points.copy(),
        accepted_steps=accepted,
        halving_events=halving_events,
        retire_reasons=reasons.tolist(),
        histories=histories,
    )


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


def gradient_profile(loss_cfg: LossConfig, offsets=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2)) -> np.ndarray:
    """Gradient magnitudes near the maximally uncertain 2x2 point.

    Returns (offset, Frobenius norm of the loss gradient) rows along the
    path p1 = 0.5 + offset, p2 = 0.5 - offset.  Inspection aid for how
    sharply each loss reacts around uncertain predictions; no verdict is
    attached.
    """
    rows = []
    eps = loss_cfg.resolved_epsilon(2, 2)
    for d in offsets:
        mat = np.array([[0.5 + d, 0.5 - d], [0.5 - d, 0.5 + d]])
        _, grads = _loss_grads_stack(loss_cfg.kind, mat[None], loss_cfg.r, loss_cfg.alpha, eps)
        rows.append((float(d), float(np.linalg.norm(grads[0]))))
    return np.array(rows)


def write_surface_csv(surf: SurfaceGrid, target: str | IO[str]) -> str | None:
    """Write the grid as CSV ("# p1,p2,value") plus a JSON argmax sidecar.

    When ``target`` is a path the sidecar lands at ``<target>.argmax.json``
    and its path is returned; for streams only the CSV is written.
    """
    lines = ["# p1,p2,value"]
    for a, b, v in zip(surf.p1, surf.p2, surf.values):
        lines.append(f"{float(a)!r},{float(b)!r},{float(v)!r}")
    text = "\n".join(lines) + "\n"
    sidecar = {
        "loss": surf.config.kind,
        "r": surf.config.r,
        "alpha": surf.config.alpha,
        "epsilon": surf.config.resolved_epsilon(2, 2),
        "grid": surf.grid,
        "max_value": surf.max_value,
        "argmax": [[a, b] for a, b in surf.argmax],
    }
    if hasattr(target, "write"):
        target.write(text)
        return None
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sidecar_path = str(target) + ".argmax.json"
    with open(sidecar_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=2))
    return sidecar_path


def read_surface_csv(source: str | IO[str]) -> np.ndarray:
    """Read back a surface CSV as an (N, 3) array of (p1, p2, value) rows."""
    return read_array_csv(source)
