"""Brute-force verification of the optimality claims behind the losses.

Six machine-checkable statements are covered:

1. the nuclear norm over one-hot matrices is maximized exactly at balanced
   class sizes;
2. class weighted squares (0 < r < 1) is maximized at one-hot rows
   (diagonal-Hessian convexity evidence plus multi-start ascent);
3. class weighted squares (0 < r < 1) over one-hot matrices is maximized at
   balanced class sizes;
4./5. normalized squares at r = 1 is maximized at one-hot rows with
   balanced class sizes (composition search plus ascent evidence);
6. normalized squares with B <= C, 0 < r < 1, epsilon > 0 attains its upper
   bound 1/alpha + epsilon*B exactly on matrices whose rows occupy pairwise
   distinct classes.

Statements 1, 3 and 4/5 search class-size compositions through
``_size_report``, the one place that chooses the searched size vectors and
builds the report: on one-hot matrices every loss depends only on the
multiset of class sizes (a property the test suite verifies by full
enumeration), which turns a search over C^B matrices into one over
compositions of B into C parts.  Statement 1 also cross-checks the dense
SVD against the closed form on fully enumerated one-hot matrices.

Every report is reproducible: fixed seeds, deterministic enumeration order,
ties listed in full and sorted.  A report's ``seed`` is the one its ascent
ran with; an ``ascent`` config at another seed raises ValueError.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .losses import EPSILON_AUTO, LossConfig, _check_number, _ns_stack, _singular_values_stack
from .optimizer import AscentConfig, _check_shape, maximize
from .probmat import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    class_sizes,
    enumerate_size_compositions,
    is_one_hot_rows,
    one_hot_matrix,
)

DEFAULT_SEED = 0xE0517
VALUE_TOL = 1e-9
ONE_HOT_TOL = 1e-3
BOUND_TOL = 1e-12
ASCENT_BOUND_TOL = 1e-6
CROSSCHECK_ROWS_LIMIT = 6


def balanced_sizes(n_rows: int, n_cols: int) -> tuple[int, ...]:
    """The balanced class sizes for B samples over C classes, ascending.

    B mod C classes get ceil(B/C) samples and the rest get floor(B/C).
    """
    _check_shape(n_rows, n_cols)
    size, extra = divmod(n_rows, n_cols)
    return (size,) * (n_cols - extra) + (size + 1,) * extra


def hessian_diag(a, b, x, r):
    """Diagonal entry of the single-row curvature of class weighted squares.

    For one class: f(x) = (b + x^2) / (a + x)^r with a the column mass and
    b the column squared mass contributed by the other rows.  Requires
    a + x > 0; strictly positive for 0 < r < 1, which makes the row-wise
    restriction of the loss strictly convex.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    num = (1.0 - r) * (2.0 - r) * x * x + 4.0 * (1.0 - r) * a * x + 2.0 * a * a + r * (1.0 + r) * b
    out = num / np.power(a + x, r + 2.0)
    return float(out) if out.ndim == 0 else out


@dataclasses.dataclass
class TheoremReport:
    """Machine-checkable verdict of one statement check.

    ``argmax`` lists every optimal size multiset (or row-label assignment
    for statement 6) found by the search, sorted; ``predicted`` is what the
    statement says it should be.  ``verdict`` is "pass", "fail",
    "descriptive" (regimes the statements do not cover), or "skipped".
    """

    theorem: int
    params: dict
    argmax: list
    optimum: Optional[float]
    predicted: object
    verdict: str
    tolerance: Optional[float]
    seed: Optional[int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _size_report(theorem: int, n_rows: int, n_cols: int, score, tol: float, **params) -> TheoremReport:
    """The report of statement ``theorem``: the balanced class sizes alone maximize ``score``.

    ``score`` maps an (N, C) float array of all compositions of B into C
    parts to N values.  ``argmax`` lists the size multisets (each ascending)
    within ``tol`` of the best, sorted; the verdict is "pass" iff that is the
    balanced multiset alone.  ``params`` name the ``budget`` and follow B, C.
    """
    predicted = list(balanced_sizes(n_rows, n_cols))  # the shape check, before the enumeration
    comps = np.array(list(enumerate_size_compositions(n_rows, n_cols, params["budget"])), dtype=float)
    values = score(comps)
    best = float(values.max())
    hit = np.nonzero(np.abs(values - best) <= tol)[0]
    argmax = [list(t) for t in sorted({tuple(sorted(int(v) for v in comps[i])) for i in hit})]
    return TheoremReport(
        theorem=theorem, params={"b": n_rows, "c": n_cols, **params}, argmax=argmax, optimum=best,
        predicted=predicted, verdict="pass" if argmax == [predicted] else "fail", tolerance=tol, seed=None,
    )


def _ascent_config(seed: int, ascent: Optional[AscentConfig]) -> AscentConfig:
    """``ascent``, or the default ascent at ``seed`` when it is None; ValueError when it runs at another seed."""
    if ascent is not None and ascent.seed != seed:
        raise ValueError(f"ascent seed {ascent.seed} differs from seed {seed}, which the report would name")
    return ascent if ascent is not None else AscentConfig(seed=seed)


def _one_hot_label_stack(n_rows: int, n_cols: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """All one-hot matrices as an (N, B, C) stack plus their (N, B) labels, lexicographic."""
    _check_number("budget", budget, int)
    count = n_cols**n_rows
    if count > budget:
        raise BudgetError(f"{n_cols}^{n_rows} = {count} one-hot matrices exceeds budget {budget}")
    labels = np.indices((n_cols,) * n_rows).reshape(n_rows, count).T
    return one_hot_matrix(labels, n_cols), labels


def verify_theorem_1(n_rows: int, n_cols: int, budget: int = DEFAULT_ENUM_BUDGET) -> TheoremReport:
    """Maximize sum_c sqrt(size_c) over size compositions; expect balance.

    For n_rows <= CROSSCHECK_ROWS_LIMIT (6), additionally checks on every
    one-hot matrix that the dense-SVD nuclear norm matches the closed form
    within 1e-9, which justifies the composition-level search.
    """
    report = _size_report(1, n_rows, n_cols, lambda comps: np.sqrt(comps).sum(axis=1), VALUE_TOL, budget=budget)
    if n_rows <= CROSSCHECK_ROWS_LIMIT:
        stack, _ = _one_hot_label_stack(n_rows, n_cols, budget)
        dense = _singular_values_stack(stack).sum(axis=1)
        formula = np.sqrt(stack.sum(axis=1)).sum(axis=1)
        max_err = float(np.abs(dense - formula).max())
        report.params["svd_crosscheck_matrices"] = int(stack.shape[0])
        report.params["svd_crosscheck_max_err"] = max_err
        if not max_err <= VALUE_TOL:  # written so that NaN fails too
            report.verdict = "fail"
    return report


def _check_theorem_2_params(r: float, trials: int) -> None:
    _check_number("r", r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"statement 2 covers 0 < r < 1 only, got r={r}")
    _check_number("trials", trials, int)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def verify_theorem_2(
    n_rows: int,
    n_cols: int,
    r: float,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    ascent: Optional[AscentConfig] = None,
) -> TheoremReport:
    """Evidence that class weighted squares peaks at one-hot rows.

    (a) ``trials`` random draws of the diagonal curvature must all be
    strictly positive; (b) the best multi-start ascent iterate must have
    one-hot rows within 1e-3.  Labeled evidence, not proof: the continuous
    space cannot be enumerated.
    """
    _check_shape(n_rows, n_cols)
    _check_theorem_2_params(r, trials)
    cfg = _ascent_config(seed, ascent)
    rng = np.random.default_rng(seed)
    u = rng.random((trials, 4))
    a = np.where(u[:, 0] < 0.1, 0.0, u[:, 1] * max(n_rows - 1, 1))
    b = np.where(a > 0.0, u[:, 2] * a, 0.0)
    x = np.where(a > 0.0, u[:, 3], 1e-9 + u[:, 3] * (1.0 - 1e-9))
    hess = hessian_diag(a, b, x, r)
    min_hess = float(hess.min())
    result = maximize(LossConfig("cwsm", r=r), n_rows, n_cols, cfg)
    one_hot = is_one_hot_rows(result.best_matrix, ONE_HOT_TOL)
    rounded = tuple(sorted(int(round(s)) for s in class_sizes(result.best_matrix)))
    ok = min_hess > 0.0 and one_hot
    return TheoremReport(
        theorem=2,
        params={
            "b": n_rows,
            "c": n_cols,
            "r": r,
            "trials": trials,
            "min_hessian_diag": min_hess,
            "ascent_value": result.best_value,
            "ascent_one_hot": bool(one_hot),
            "evidence": True,
        },
        argmax=[list(rounded)],
        optimum=result.best_value,
        predicted="one-hot rows",
        verdict="pass" if ok else "fail",
        tolerance=ONE_HOT_TOL,
        seed=seed,
    )


def verify_theorem_3(
    n_rows: int, n_cols: int, r: float, budget: int = DEFAULT_ENUM_BUDGET
) -> TheoremReport:
    """Maximize sum_c size_c^(1-r) over size compositions; expect balance.

    Covers 0 < r < 1.  At r = 1 the one-hot value degenerates to
    (number of non-empty classes)/C, so every labeling using min(B, C)
    classes is optimal; that regime is reported descriptively with no
    pass/fail verdict.
    """
    _check_number("r", r)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"statement 3 covers 0 < r < 1 (r = 1 descriptive), got r={r}")
    # an empty class scores 0, also at r = 1, where 0 ** 0 would score it 1
    report = _size_report(
        3, n_rows, n_cols, lambda comps: np.where(comps > 0, np.power(comps, 1.0 - r), 0.0).sum(axis=1), VALUE_TOL,
        r=r, budget=budget,
    )
    if r == 1.0:
        report.predicted, report.verdict = None, "descriptive"
    return report


def _check_theorem_4_5_params(alpha: float, epsilon: float) -> None:
    _check_number("alpha", alpha)
    _check_number("epsilon", epsilon)
    if not 0.0 < alpha < math.inf:  # written so that NaN fails too
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


def verify_theorem_4_5(
    n_rows: int,
    n_cols: int,
    alpha: float,
    epsilon: float,
    seed: int = DEFAULT_SEED,
    ascent: Optional[AscentConfig] = None,
    run_ascent: bool = True,
    budget: int = DEFAULT_ENUM_BUDGET,
    theorem_id: int = 5,
) -> TheoremReport:
    """Normalized squares at r = 1: balanced sizes minimize sum_c size_c^2.

    (a) exhaustive composition search for the argmin of the squared-size
    sum; (b) optionally, multi-start ascent evidence that the continuous
    optimum has one-hot rows (the statement-4 side).  ``theorem_id`` labels
    the report 4 or 5; the computation is shared.  ``seed`` and ``ascent`` are
    checked whether or not the ascent runs.
    """
    _check_theorem_4_5_params(alpha, epsilon)
    _check_number("theorem_id", theorem_id, int)
    if theorem_id not in (4, 5):
        raise ValueError(f"theorem_id must be 4 or 5, got {theorem_id}")
    cfg = _ascent_config(seed, ascent)
    # the largest -sum_c size_c^2, which is exactly minus the smallest sum, since negation is exact
    report = _size_report(
        theorem_id, n_rows, n_cols, lambda comps: -np.einsum("nc,nc->n", comps, comps), 0.0,
        alpha=alpha, epsilon=epsilon, budget=budget, run_ascent=bool(run_ascent), evidence=bool(run_ascent),
    )
    report.optimum = float(n_rows / (-report.optimum + (alpha - 1.0) * n_rows) + epsilon * n_rows)
    if run_ascent:
        result = maximize(LossConfig("nsm", r=1.0, alpha=alpha, epsilon=epsilon), n_rows, n_cols, cfg)
        one_hot = is_one_hot_rows(result.best_matrix, ONE_HOT_TOL)
        report.params["ascent_value"] = result.best_value
        report.params["ascent_one_hot"] = bool(one_hot)
        if not one_hot:
            report.verdict = "fail"
        report.tolerance, report.seed = ONE_HOT_TOL, seed
    return report


def verify_theorem_6(
    n_rows: int,
    n_cols: int,
    r: float,
    alpha: float,
    epsilon: float,
    seed: int = DEFAULT_SEED,
    ascent: Optional[AscentConfig] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> TheoremReport:
    """Normalized squares with B <= C: the bound 1/alpha + epsilon*B is tight.

    Enumerates all one-hot matrices and passes iff (a) exactly those whose
    rows occupy pairwise distinct classes attain the bound within 1e-12,
    (b) every other one-hot matrix falls strictly below it, and
    (c) multi-start continuous ascent reaches the bound within 1e-6.
    """
    _check_shape(n_rows, n_cols)
    _check_number("r", r)
    _check_number("epsilon", epsilon)  # alpha's is in _check_theorem_4_5_params, before its range check
    if n_rows > n_cols:
        raise ValueError(f"statement 6 requires B <= C, got B={n_rows} > C={n_cols}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"statement 6 covers 0 < r < 1, got r={r}")
    if not 0.0 < epsilon < math.inf:  # written so that NaN fails too
        raise ValueError(f"statement 6 requires epsilon > 0, got {epsilon}")
    _check_theorem_4_5_params(alpha, epsilon)  # alpha; epsilon > 0 already passes its check
    cfg = _ascent_config(seed, ascent)
    stack, labels = _one_hot_label_stack(n_rows, n_cols, budget)
    values = _ns_stack(stack, r, alpha, epsilon)
    bound = 1.0 / alpha + epsilon * n_rows
    injective = np.all(np.diff(np.sort(labels, axis=1), axis=1) > 0, axis=1)
    at_bound = np.abs(values - bound) <= BOUND_TOL
    attain_ok = bool(np.array_equal(at_bound, injective))
    below_ok = bool(np.all(values[~injective] < bound))
    result = maximize(LossConfig("nsm", r=r, alpha=alpha, epsilon=epsilon), n_rows, n_cols, cfg)
    ascent_ok = result.best_value >= bound - ASCENT_BOUND_TOL
    argmax = [[int(v) for v in lab] for lab in labels[injective]]
    ok = attain_ok and below_ok and ascent_ok
    return TheoremReport(
        theorem=6,
        params={
            "b": n_rows,
            "c": n_cols,
            "r": r,
            "alpha": alpha,
            "epsilon": epsilon,
            "attainers": int(injective.sum()),
            "attain_exact": attain_ok,
            "others_strictly_below": below_ok,
            "ascent_value": result.best_value,
            "ascent_reaches_bound": bool(ascent_ok),
        },
        argmax=argmax,
        optimum=float(values.max()),
        predicted=bound,
        verdict="pass" if ok else "fail",
        tolerance=BOUND_TOL,
        seed=seed,
    )


def verify_all(
    n_rows: int,
    n_cols: int,
    r: float = 0.5,
    alpha: float = 1.0,
    epsilon: float | str = EPSILON_AUTO,
    seed: int = DEFAULT_SEED,
    trials: int = 1000,
    ascent: Optional[AscentConfig] = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[TheoremReport]:
    """Run every statement check at one (B, C) and parameter set.

    ``epsilon`` is a number or "auto", resolved as :class:`LossConfig`
    resolves it: 0 when B > C, else 1e-6.  Statement 6 is emitted as
    "skipped", with the reason in ``params``, when B > C or when
    epsilon = 0, since it requires epsilon > 0; statements 4 and 5 still
    run at epsilon = 0.  Every parameter, and an ``ascent`` config's seed
    against ``seed``, is checked before statement 1 runs.
    """
    balanced_sizes(n_rows, n_cols)  # the shape check, then statement 2's and 4/5's, in the order they run
    _check_theorem_2_params(r, trials)
    epsilon = LossConfig("nsm", epsilon=epsilon).resolved_epsilon(n_rows, n_cols)
    _check_theorem_4_5_params(alpha, epsilon)
    ascent = _ascent_config(seed, ascent)
    reports = [
        verify_theorem_1(n_rows, n_cols, budget),
        verify_theorem_2(n_rows, n_cols, r, trials=trials, seed=seed, ascent=ascent),
        verify_theorem_3(n_rows, n_cols, r, budget),
    ]
    five = verify_theorem_4_5(
        n_rows, n_cols, alpha, epsilon, seed=seed, ascent=ascent, budget=budget, theorem_id=5
    )
    reports += [dataclasses.replace(five, theorem=4), five]
    if n_rows <= n_cols and epsilon > 0.0:
        reports.append(
            verify_theorem_6(n_rows, n_cols, r, alpha, epsilon, seed=seed, ascent=ascent, budget=budget)
        )
    else:
        reports.append(
            TheoremReport(
                theorem=6,
                params={
                    "b": n_rows,
                    "c": n_cols,
                    "reason": "requires B <= C" if n_rows > n_cols else "requires epsilon > 0",
                },
                argmax=[],
                optimum=None,
                predicted=None,
                verdict="skipped",
                tolerance=None,
                seed=None,
            )
        )
    return reports
