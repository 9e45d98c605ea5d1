"""Reference values the benchmark checks equimax outputs against.

Each reference is independent of the code under test: singular values and
factors come from LAPACK (``np.linalg.svd``, a reference only), the other
losses from their defining formulas written out directly in numpy, and the
theorem verdicts from the statements in the paper (balanced class sizes,
C!/(C-B)! attainers of the distinct-class bound).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Pairwise overlaps are formed this many rows at a time so the reference for a
# 4096-row matrix stays small next to the program's own peak memory.
_BLOCK = 256


def close_at_6_digits(printed: float, ref: float) -> bool:
    """True iff ``printed`` is ``ref`` rounded to 6 significant digits (half an ulp of slack)."""
    if ref == 0.0:
        return abs(printed) <= 1e-300
    ulp = 10.0 ** (math.floor(math.log10(abs(ref))) - 5)
    return abs(printed - ref) <= 0.5 * ulp * (1.0 + 1e-9) + 1e-12 * abs(ref)


def auto_epsilon(n_rows: int, n_cols: int) -> float:
    return 0.0 if n_rows > n_cols else 1e-6


def _overlap_blocks(P: np.ndarray):
    for start in range(0, P.shape[0], _BLOCK):
        block = np.maximum(P[start : start + _BLOCK] @ P.T, 0.0)
        rows = np.arange(start, min(start + _BLOCK, P.shape[0]))
        yield start, rows, block


def eval_values(P: np.ndarray, r: float, alpha: float) -> dict[str, float]:
    """Every value ``equimax eval`` prints, from the defining formulas."""
    n_rows, n_cols = P.shape
    sv = np.linalg.svd(P, compute_uv=False)
    squares = float(np.sum(P * P))
    size = P.sum(axis=0)
    sq_mass = np.sum(P * P, axis=0)
    cws = float(sum(m / s**r for m, s in zip(sq_mass, size) if s > 0.0) / n_cols)
    pair = 0.0
    for _, rows, block in _overlap_blocks(P):
        powered = block**r  # the workloads use 0 < r < 1, where 0^r = 0
        powered[rows - rows[0], rows] = 0.0
        pair += float(powered.sum())
    eps = auto_epsilon(n_rows, n_cols)
    ns = squares / (pair + alpha * squares) + eps * squares
    return {
        "ms": -squares / n_rows,
        "bnm": -float(sv.sum()) / n_rows,
        "cws": cws,
        "cwsm": -cws,
        "ns": ns,
        "nsm": -ns,
        "nuclear_norm": float(sv.sum()),
        "discriminability": squares / n_rows,
        "equity": float(1.0 - np.abs(size / n_rows - 1.0 / n_cols).sum()),
    }


def gradient(P: np.ndarray, kind: str, r: float, alpha: float) -> np.ndarray:
    """d(loss)/dP: LAPACK -U V^T / B for bnm, closed forms for the others."""
    n_rows, n_cols = P.shape
    if kind == "ms":
        return -2.0 * P / n_rows
    if kind == "bnm":
        u, _, vt = np.linalg.svd(P, full_matrices=False)
        return -(u @ vt) / n_rows
    if kind == "cwsm":
        size = P.sum(axis=0)
        sq_mass = np.sum(P * P, axis=0)
        safe = np.where(size > 0.0, size, 1.0)
        d = 2.0 * P / safe**r - r * sq_mass / safe ** (r + 1.0)
        return -np.where(size > 0.0, d, 0.0) / n_cols
    if kind == "nsm":
        squares = float(np.sum(P * P))
        pair = 0.0
        d_pair = np.empty_like(P)
        for start, rows, block in _overlap_blocks(P):
            pos = block > 0.0
            powered = block**r
            weights = np.where(block > 1e-300, np.where(pos, block, 1.0) ** (r - 1.0), 0.0)
            powered[rows - start, rows] = 0.0
            weights[rows - start, rows] = 0.0
            pair += float(powered.sum())
            d_pair[rows] = 2.0 * r * (weights @ P)
        denom = pair + alpha * squares
        eps = auto_epsilon(n_rows, n_cols)
        d_denom = d_pair + 2.0 * alpha * P
        return -((2.0 * P * denom - squares * d_denom) / denom**2 + 2.0 * eps * P)
    raise ValueError(kind)


def balanced(n_rows: int, n_cols: int) -> list[int]:
    """Class sizes that differ by at most one, ascending: the paper's optimum."""
    low, extra = divmod(n_rows, n_cols)
    return sorted([low] * (n_cols - extra) + [low + 1] * extra)


def distinct_class_labelings(n_rows: int, n_cols: int) -> list[list[int]]:
    """All row labelings with pairwise distinct classes, lexicographic; C!/(C-B)! of them."""
    return sorted(list(p) for p in itertools.permutations(range(n_cols), n_rows))


def surface_argmax(kind: str) -> set[tuple[float, float]]:
    """Grid argmax corners of the 2x2 case-study surfaces (paper's case study)."""
    if kind == "ms":
        return {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
    return {(1.0, 0.0), (0.0, 1.0)}
