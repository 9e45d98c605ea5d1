"""Row-stochastic prediction matrices: validation, structure queries, size compositions.

A prediction matrix holds one probability row per sample and one column per
class.  This module owns that contract for the whole package: finite entries
in [0, 1], every row summing to 1, at least one row and two columns.  All
downstream code (losses, theorem checks, optimizers) assumes its inputs went
through :func:`validate` and never re-checks.

Matrices are plain float64 ``numpy`` arrays, returned read-only so validated
values can be shared freely between threads.

File I/O lives here as well: :func:`read_array_csv` is the one CSV parser,
and every file the package writes comes from :func:`write_matrix_csv` or
:func:`write_json`, as UTF-8 with '\\n' line ends.  The parser hands the
data lines to numpy's C text reader and parses what that reader refuses
token by token with ``float``: the same bits and the same errors either
way.  The CSV writer gives each cell the shortest round-trip ``repr`` of
its float64 value, the same bytes as ``repr(float(x))`` per cell,
formatting each distinct bit pattern once when cells repeat; neither CSV
function loops in Python over cells.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterator

import numpy as np

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-9
DEFAULT_ENUM_BUDGET = 10**7


class DimensionError(ValueError):
    """Input is ragged or has too few rows/columns to be a prediction matrix."""


class DomainError(ValueError):
    """Entries or row sums violate the probability-matrix contract."""


class BudgetError(RuntimeError):
    """An enumeration would produce more items than the configured budget."""


def validate(raw) -> np.ndarray:
    """Check ``raw`` against the prediction-matrix contract and return it.

    Values are preserved exactly; nothing is renormalized.  Use
    :func:`renormalize_rows` first if the input needs fixing.

    Raises
    ------
    DimensionError
        If the input is ragged, not 2-D, or smaller than 1 x 2.
    DomainError
        Naming the first offending row, if an entry leaves [0, 1] by more
        than 1e-9, a row sum deviates from 1 by more than 1e-9, or any
        entry is not finite.
    """
    try:
        mat = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"input is not a rectangular numeric matrix: {exc}") from None
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {mat.ndim} dimension(s)")
    n_rows, n_cols = mat.shape
    if n_rows < 1 or n_cols < 2:
        raise DimensionError(f"need at least 1 row and 2 columns, got {n_rows} x {n_cols}")
    finite = np.isfinite(mat)
    outside = (mat < -ENTRY_TOL) | (mat > 1.0 + ENTRY_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = mat.sum(axis=1)
    # per row: non-finite first, then an entry outside [0, 1], then the sum
    bad = ~finite.all(axis=1) | outside.any(axis=1) | (np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i].all():
            raise DomainError(f"row {i} contains a non-finite entry")
        if outside[i].any():
            j = int(np.argmax(outside[i]))
            raise DomainError(f"row {i} entry {j} is {mat[i, j]!r}, outside [0, 1]")
        raise DomainError(f"row {i} sums to {float(sums[i])!r}, expected 1 within {ROW_SUM_TOL}")
    mat.setflags(write=False)
    return mat


def renormalize_rows(raw) -> np.ndarray:
    """Divide each row by its sum.  Rows with non-positive sums raise."""
    mat = np.array(raw, dtype=float)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {mat.ndim} dimension(s)")
    sums = mat.sum(axis=1, keepdims=True)
    if np.any(sums <= 0) or not np.all(np.isfinite(sums)):
        i = int(np.argmax((sums <= 0) | ~np.isfinite(sums)))
        raise DomainError(f"row {i} sums to {float(sums[i, 0])!r}, cannot renormalize")
    return mat / sums


def class_sizes(P: np.ndarray) -> np.ndarray:
    """Soft class sizes: the column sums of the prediction matrix.

    Row-stochasticity forces the sizes to add up to the number of rows.
    """
    return np.asarray(P, dtype=float).sum(axis=0)


def is_one_hot_rows(P: np.ndarray, tol: float = 0.0) -> bool:
    """True iff every row has one entry within ``tol`` of 1 and the rest within ``tol`` of 0."""
    if not 0.0 <= tol < 0.5:
        raise ValueError(f"tol must be in [0, 0.5), got {tol}")
    P = np.asarray(P, dtype=float)
    near_one = np.abs(P - 1.0) <= tol
    near_zero = np.abs(P) <= tol
    return bool(np.all(near_one.sum(axis=1) == 1) and np.all(near_one | near_zero))


def one_hot_matrix(labels, n_cols: int) -> np.ndarray:
    """Build one-hot rows: row i is hot in column ``labels[..., i]``.

    ``labels`` may have any leading shape: a (B,) vector gives one (B, C)
    matrix, an (S, B) stack of label rows the (S, B, C) stack of matrices.
    """
    labels = np.asarray(labels, dtype=int)
    mat = np.zeros(labels.shape + (n_cols,))
    mat.reshape(-1, n_cols)[np.arange(labels.size), labels.ravel()] = 1.0
    return mat


def enumerate_size_compositions(
    total: int, parts: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield all ``parts``-tuples of non-negative integers summing to ``total``.

    Lexicographic ascending order, e.g. (0, 2), (1, 1), (2, 0) for 2 into 2.
    """
    count = math.comb(total + parts - 1, parts - 1)
    if count > budget:
        raise BudgetError(f"{count} compositions of {total} into {parts} parts exceeds budget {budget}")

    def rec(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for tail in rec(remaining - head, slots - 1):
                yield (head,) + tail

    return rec(total, parts)


def project_rows(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of ``rows`` (shape (..., C)) onto the simplex.

    Exact sort-and-threshold method: per row, find the shift tau with
    sum(max(v - tau, 0)) = 1 and clip.  Idempotent on feasible points.
    """
    rows = np.asarray(rows, dtype=float)
    shape = rows.shape
    flat = rows.reshape(-1, shape[-1])
    n = shape[-1]
    u = np.sort(flat, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    idx = np.arange(1, n + 1)
    cond = u * idx > css
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(flat.shape[0]), rho] / (rho + 1.0)
    out = np.maximum(flat - tau[:, None], 0.0)
    return out.reshape(shape)


def _frozen(rows) -> np.ndarray:
    mat = np.array(rows, dtype=float)
    mat.setflags(write=False)
    return mat


# Canonical example matrices used throughout the docs, demos, and tests.
# The 4 x 2 family shares maximal confidence but differs in class balance;
# the 2 x 2 family is the full set of one-hot extreme points.
EXAMPLES_4X2 = {
    "P1": _frozen([[1, 0], [1, 0], [1, 0], [1, 0]]),
    "P2": _frozen([[1, 0], [1, 0], [1, 0], [0, 1]]),
    "P3": _frozen([[1, 0], [1, 0], [0, 1], [0, 1]]),
}

EXAMPLES_2X2 = {
    "P1": _frozen([[0, 1], [0, 1]]),
    "P2": _frozen([[1, 0], [0, 1]]),
    "P3": _frozen([[0, 1], [1, 0]]),
    "P4": _frozen([[1, 0], [1, 0]]),
}


def read_array_csv(source: str | IO[str]) -> np.ndarray:
    """Read a rectangular numeric CSV; the one parser behind every CSV reader.

    One row per line, comma-separated decimal numbers with '.' as the
    decimal separator.  Lines are split as ``str.splitlines`` splits them.
    Blank lines are skipped, and so are lines starting with '#' (after
    leading whitespace) before the first data row.  ``source`` is a path or
    an open text stream.  No probability validation: gradients and surfaces
    are read with it too.

    The lines after that header go to numpy's C text reader, which parses
    each token with the same correctly rounded conversion as Python's
    ``float``.  Input it refuses (``1_0``, Unicode digits, whitespace-only
    lines, or an error) is parsed token by token with ``float`` instead, so
    the result is always the array, and the error the one, that a per-token
    ``float`` parse gives.

    Raises
    ------
    DimensionError
        For an unparseable line (a '#' line after the data included),
        ragged rows, or input without data rows.  An unparseable line is
        reported before ragged rows.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].strip()[:1] in ("", "#"):
        start += 1
    lines = lines[start:]
    if lines:
        # the first line holds data, so the C reader finds rows or raises, and never warns
        try:
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    return _read_array_per_token(lines)


def _read_array_per_token(lines: list[str]) -> np.ndarray:
    """Parse data ``lines`` with Python's ``float`` per token, naming the first unparseable line."""
    lines = [line for line in map(str.strip, lines) if line]
    if not lines:
        raise DimensionError("CSV input contains no data rows")
    tokens = ",".join(lines).split(",")
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        # the joined tokens are the lines' tokens in order, so some line fails here
        for line in lines:
            try:
                list(map(float, line.split(",")))
            except ValueError as exc:
                raise DimensionError(f"unparseable CSV line {line!r}: {exc}") from None
        raise
    widths = {line.count(",") + 1 for line in lines}
    if len(widths) != 1:
        raise DimensionError(f"ragged CSV input, row widths {sorted(widths)}")
    return values.reshape(len(lines), -1)


def read_matrix_csv(source: str | IO[str]) -> np.ndarray:
    """Read a prediction matrix with :func:`read_array_csv` and validate it."""
    return validate(read_array_csv(source))


def write_matrix_csv(target: str | IO[str], mat: np.ndarray, header: str | None = None) -> None:
    """Write a 2-D array as CSV, one row per line; the one CSV writer.

    Each cell is the shortest round-trip ``repr`` of its float64 value, so
    :func:`read_array_csv` gives the same bits back.  Lines end in '\\n'.
    A ``header`` is split into lines as ``str.splitlines`` splits them, the
    way the reader splits a file, and each line not starting with '#' gets
    a "# " prefix, so the reader skips every header line.

    When at most half of the cells are distinct, as on a surface grid,
    ``repr`` runs once per distinct float64 bit pattern (so ``-0.0`` and
    ``0.0`` stay apart) instead of once per cell.  One sort of the bits
    decides, and the bytes are the same either way.

    Raises
    ------
    DimensionError
        If ``mat`` is not 2-D.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {mat.ndim} dimension(s)")
    n_rows, n_cols = mat.shape
    # the header is split as the reader splits lines, so each of its lines reads as a header line
    lines = [
        (line if line.startswith("#") else "# " + line).replace("%", "%%")
        for line in (header or "").splitlines()
    ]
    # '%s' of a float is its repr; one %-format over all cells gives the whole text
    lines += [",".join(["%s"] * n_cols)] * n_rows
    _write_text(target, ("\n".join(lines) + "\n") % _csv_cells(mat))


def write_json(target: str | IO[str], obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)``, no trailing newline; the one JSON writer."""
    _write_text(target, json.dumps(obj, sort_keys=True, indent=2))


def _write_text(target: str | IO[str], text: str) -> None:
    """Write ``text`` to an open text stream, or to a path as UTF-8 with '\\n' line ends."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_cells(mat: np.ndarray) -> tuple:
    """The cells of ``mat`` in row order, as floats or as their ``repr`` strings.

    When at most half of the cells are distinct, each distinct float64 bit
    pattern is formatted once and the cells share those strings.
    """
    # keyed on the bits, so -0.0 and 0.0 stay apart and NaNs never compare equal
    bits = mat.view(np.int64).ravel()
    # sorted neighbours differ exactly where their difference, wrapped or not, is nonzero
    if 2 * (1 + np.count_nonzero(np.diff(np.sort(bits)))) > bits.size:
        return tuple(mat.ravel().tolist())
    distinct, inverse = _distinct_inverse(bits)
    strings = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return tuple(strings[inverse].tolist())


def _distinct_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for a 1-D array.

    Same result in the same time, with at most three arrays the size of
    ``values`` alive at once instead of six; this step sets the peak memory
    of a surface write.
    """
    order = np.argsort(values)
    ordered = values[order]
    first = np.empty(values.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    np.cumsum(first, out=ordered)
    ordered -= 1  # now each sorted value's index into distinct
    inverse = np.empty_like(order)
    inverse[order] = ordered
    return distinct, inverse
