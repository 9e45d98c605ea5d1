"""Reference ascent: ``optimizer.maximize`` with its one-depth-at-a-time halving ladder.

Each step takes the gradient at every active iterate in one kernel call,
scores the candidates in another, and halves the step of each start that
found no acceptable candidate, one depth per kernel call, up to
``MAX_HALVINGS``.  ``maximize`` must return the same ``AscentResult``
bytes; ``compare`` checks that on a grid of cases.

    PYTHONPATH=src python tests/ascent_reference.py

runs two seeded grids, the wide one (every kind, r from 0 to 1, B and C up
to 8, plus 12 x 10 and 32 x 12) and the large-step one (step sizes 0.5 and
2.0, B up to 6 and C up to 6, plus 12 x 10), prints each one's case count
and mismatch count, and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from equimax import optimizer
from equimax.losses import LOSS_KINDS, LossConfig, _loss_grads_stack, _loss_values_stack
from equimax.optimizer import ACCEPT_TOL, MAX_HALVINGS, POLISH_EVERY, TOL_GRAD, AscentConfig, AscentResult
from equimax.probmat import one_hot_matrix, project_rows


def sequential_maximize(
    loss_cfg: LossConfig, n_rows: int, n_cols: int, cfg: Optional[AscentConfig] = None
) -> tuple[AscentResult, dict]:
    """The reference result plus counts of the paths it took: ``null_moves``
    (starts retired on a null move) and ``ladder_ends`` (starts retired
    after ``MAX_HALVINGS`` halvings)."""
    cfg = cfg or AscentConfig()
    rng = np.random.default_rng(cfg.seed)
    eps = loss_cfg.resolved_epsilon(n_rows, n_cols)
    kind, r, alpha = loss_cfg.kind, loss_cfg.r, loss_cfg.alpha
    points = rng.dirichlet(np.ones(n_cols), size=(cfg.inits, n_rows))
    values = -_loss_values_stack(kind, points, r, alpha, eps)
    active = np.ones(cfg.inits, dtype=bool)
    accepted = np.zeros(cfg.inits, dtype=int)
    reasons = np.full(cfg.inits, "step cap", dtype=object)
    halving_events = 0
    paths = {"null_moves": 0, "ladder_ends": 0}

    def polish(rows_sel):
        if rows_sel.size == 0:
            return
        labels = points[rows_sel].argmax(axis=2)
        optimizer._relabel_ascent(
            labels, n_cols, lambda sizes: optimizer._size_values(kind, sizes, r, alpha, eps)
        )
        vertices = one_hot_matrix(labels, n_cols)
        vertex_vals = -_loss_values_stack(kind, vertices, r, alpha, eps)
        keep = vertex_vals >= values[rows_sel] - ACCEPT_TOL
        points[rows_sel[keep]] = vertices[keep]
        values[rows_sel[keep]] = vertex_vals[keep]

    def retire(sel, reason):
        active[sel] = False
        reasons[sel] = reason

    for outer in range(cfg.steps):
        if outer and outer % POLISH_EVERY == 0:
            polish(np.nonzero(active)[0])
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        current = points[idx]
        cur_vals = values[idx]
        _, grads = _loss_grads_stack(kind, current, r, alpha, eps)
        direction = -grads
        candidate = project_rows(current + cfg.step_size * direction)
        moved = np.linalg.norm((candidate - current).reshape(idx.size, -1), axis=1)
        converged = moved / cfg.step_size < TOL_GRAD
        retire(idx[converged], "converged")
        cand_vals = -_loss_values_stack(kind, candidate, r, alpha, eps)
        pending = ~converged
        step = np.full(idx.size, cfg.step_size)
        halved = np.zeros(idx.size, dtype=bool)
        for depth in range(MAX_HALVINGS + 1):
            if not pending.any():
                break
            ok = pending & (cand_vals >= cur_vals - ACCEPT_TOL)
            null = ok & (candidate == current).all(axis=(1, 2))
            retire(idx[null], "no improving step")
            paths["null_moves"] += int(null.sum())
            ok &= ~null
            pending &= ~null
            if ok.any():
                sel = idx[ok]
                points[sel] = candidate[ok]
                values[sel] = cand_vals[ok]
                accepted[sel] += 1
                pending &= ~ok
            if not pending.any():
                break
            if depth == MAX_HALVINGS:
                retire(idx[pending], "no improving step")
                paths["ladder_ends"] += int(pending.sum())
                break
            halved |= pending
            step[pending] /= 2.0
            candidate[pending] = project_rows(
                current[pending] + step[pending][:, None, None] * direction[pending]
            )
            cand_vals[pending] = -_loss_values_stack(kind, candidate[pending], r, alpha, eps)
        halving_events += int(halved.sum())

    polish(np.arange(cfg.inits))

    order = sorted(range(cfg.inits), key=lambda i: (-values[i], tuple(points[i].ravel().tolist())))
    best = order[0]
    result = AscentResult(
        best_matrix=points[best].copy(),
        best_value=float(values[best]),
        final_values=values.copy(),
        accepted_steps=accepted,
        halving_events=halving_events,
        retire_reasons=reasons.tolist(),
    )
    return result, paths


def result_bytes(res: AscentResult) -> tuple:
    """Every field of an ``AscentResult``, as bytes where it is an array or a float."""
    return (
        res.best_matrix.dtype.str,
        res.best_matrix.shape,
        res.best_matrix.tobytes(),
        np.float64(res.best_value).tobytes(),
        res.final_values.dtype.str,
        res.final_values.tobytes(),
        res.accepted_steps.dtype.str,
        res.accepted_steps.tobytes(),
        res.halving_events,
        res.retire_reasons,
    )


def compare(cases) -> tuple[int, list, dict]:
    """Run ``maximize`` and the reference on each (LossConfig, B, C, AscentConfig) case.

    Returns the case count, the mismatching cases and the summed path counts.
    """
    count, mismatches = 0, []
    paths = {"null_moves": 0, "ladder_ends": 0}
    for loss_cfg, n_rows, n_cols, cfg in cases:
        want, taken = sequential_maximize(loss_cfg, n_rows, n_cols, cfg)
        got = optimizer.maximize(loss_cfg, n_rows, n_cols, cfg)
        count += 1
        for key in paths:
            paths[key] += taken[key]
        if result_bytes(got) != result_bytes(want):
            mismatches.append((loss_cfg, n_rows, n_cols, cfg))
    return count, mismatches, paths


def wide_grid():
    """Every kind at r in {0, 0.25, 0.5, 0.75, 1} (one r for ms and bnm, which ignore it),
    B and C up to 8 with one seed per shape, plus 12 x 10 and 32 x 12."""
    seeds = np.random.default_rng(20290).integers(0, 2**31, size=4096).tolist()
    for kind in LOSS_KINDS:
        for r in (0.0, 0.25, 0.5, 0.75, 1.0) if kind in ("cwsm", "nsm") else (0.5,):
            loss_cfg = LossConfig(kind, r=r)
            shapes = [(b, c) for b in range(1, 9) for c in range(2, 9)] + [(12, 10), (32, 12)]
            for n_rows, n_cols in shapes:
                yield loss_cfg, n_rows, n_cols, AscentConfig(inits=8, steps=200, seed=seeds.pop())


def large_step_grid():
    """Step sizes 0.5 and 2.0, which send many more starts down the halving ladder and
    to its end: every kind at r in {0.25, 0.5, 1} (one r for ms and bnm), B 1-6 and
    C 2-6 with one seed per shape, plus 12 x 10."""
    seeds = np.random.default_rng(20330).integers(0, 2**31, size=4096).tolist()
    for step_size in (0.5, 2.0):
        for kind in LOSS_KINDS:
            for r in (0.25, 0.5, 1.0) if kind in ("cwsm", "nsm") else (0.5,):
                loss_cfg = LossConfig(kind, r=r)
                shapes = [(b, c) for b in range(1, 7) for c in range(2, 7)] + [(12, 10)]
                for n_rows, n_cols in shapes:
                    cfg = AscentConfig(inits=8, steps=200, step_size=step_size, seed=seeds.pop())
                    yield loss_cfg, n_rows, n_cols, cfg


if __name__ == "__main__":
    failed = False
    for name, grid in (("wide", wide_grid()), ("large-step", large_step_grid())):
        count, mismatches, paths = compare(grid)
        print(f"{name} grid: {count} cases, {len(mismatches)} mismatches; reference took "
              f"{paths['null_moves']} null moves and {paths['ladder_ends']} full ladders")
        for case in mismatches:
            print("mismatch:", case)
        failed = failed or bool(mismatches)
    sys.exit(1 if failed else 0)
