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
way; a leading byte-order mark is dropped.  The CSV writer gives each cell
the shortest round-trip ``repr`` of its float64 value, the same bytes as
``repr(float(x))`` per cell.  Above a small-matrix cutoff a numpy kernel
renders them (Schubfach's shortest digits, then ``repr``'s layout), in
chunks of whole rows, formatting each distinct bit pattern once when
cells repeat; only NaN, the infinities and subnormals go through ``repr``
there.  Neither CSV function loops in Python over cells.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .losses import _check_number

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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing or nan sum is reported below
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
    _check_number("tol", tol)
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
    Every label must be a class index 0..C-1; a negative one does not wrap.
    """
    _check_number("n_cols", n_cols, int)
    if n_cols < 1:
        raise ValueError(f"n_cols must be >= 1, got {n_cols}")
    labels = np.asarray(labels, dtype=int)
    if labels.size and not 0 <= labels.min() <= labels.max() < n_cols:
        raise ValueError(f"labels must lie in 0..{n_cols - 1}, got {labels.min()}..{labels.max()}")
    mat = np.zeros(labels.shape + (n_cols,))
    mat.reshape(-1, n_cols)[np.arange(labels.size), labels.ravel()] = 1.0
    return mat


def enumerate_size_compositions(
    total: int, parts: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield all ``parts``-tuples of non-negative integers summing to ``total``.

    Lexicographic ascending order, e.g. (0, 2), (1, 1), (2, 0) for 2 into 2.
    A stars-and-bars walk: ``itertools.combinations_with_replacement`` places
    the ``parts - 1`` bars by the stars before each, in the same order, and a
    part is the stars between two bars.  No frame is kept per part.  A
    negative ``total`` has no composition, and ``parts`` must be >= 1.
    """
    _check_number("total", total, int)
    _check_number("parts", parts, int)
    _check_number("budget", budget, int)
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    count = math.comb(total + parts - 1, parts - 1) if total >= 0 else 0
    if count > budget:
        raise BudgetError(f"{count} compositions of {total} into {parts} parts exceeds budget {budget}")
    cuts = itertools.combinations_with_replacement(range(total + 1), parts - 1) if count else ()
    return (tuple(map(operator.sub, (*cut, total), (0, *cut))) for cut in cuts)


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
    an open text stream.  A leading byte-order mark (U+FEFF, as spreadsheet
    "CSV UTF-8" exports write) is dropped.  No probability validation:
    gradients and surfaces are read with it too.

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
        text = source.read().removeprefix("\ufeff")
    else:
        with open(source, "r", encoding="utf-8-sig") as fh:
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

    Each cell is the shortest round-trip ``repr`` of its float64 value, the
    same bytes as ``repr(float(x))``, so :func:`read_array_csv` gives the
    same bits back.  Lines end in '\\n'.  A ``header`` is split into lines
    as ``str.splitlines`` splits them, the way the reader splits a file, and
    each line not starting with '#' gets a "# " prefix, so the reader skips
    every header line.  Header text is written as given.

    Below 320 cells each cell goes through ``repr``.  Larger arrays go
    through a numpy kernel, in chunks of whole rows, that gives ``repr``'s
    digits and layout; only NaN, the infinities and subnormals go through
    ``repr`` there.  When at most half of the cells are distinct, as on a
    surface grid, the kernel formats each distinct float64 bit pattern once
    (so ``-0.0`` and ``0.0`` stay apart) and the cells copy its characters;
    one sort of the bits decides, and the bytes are the same either way.

    Raises
    ------
    DimensionError
        If ``mat`` is not 2-D.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {mat.ndim} dimension(s)")
    # the header is split as the reader splits lines, so each of its lines reads as a header line
    head = "".join((line if line.startswith("#") else "# " + line) + "\n" for line in (header or "").splitlines())
    _write_text(target, _csv_parts(head, mat))


def write_json(target: str | IO[str], obj) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)``, no trailing newline; the one JSON writer."""
    _write_text(target, [json.dumps(obj, sort_keys=True, indent=2)])


def _write_text(target: str | IO[str], parts: Iterable[str]) -> None:
    """Write ``parts`` in order to an open text stream, or to a path as UTF-8 with '\\n' line ends."""
    if hasattr(target, "write"):
        for part in parts:
            target.write(part)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            for part in parts:
                fh.write(part)


# Cells per formatting pass, rounded down to whole rows: each pass's arrays
# stay in L2 cache, and they bound the writer's memory beyond its input.
_CHUNK_FLOATS = 4096
# Below this many cells, one %-format of every cell's repr beats the
# kernel's fixed cost of about 150 numpy calls (crossover near 300 cells on
# a 2-vCPU x86-64 host; a 40 x 6 trajectory and a 12 x 12 gradient stay below).
_SMALL_FLOATS = 320


def _csv_parts(head: str, mat: np.ndarray) -> Iterator[str]:
    """``head``, then the rows of a 2-D float64 array: cells joined by ',', each row ended by '\\n'."""
    n_rows, n_cols = mat.shape
    cells = mat.ravel()
    if cells.size < _SMALL_FLOATS:
        # '%s' of a float is its repr; a file without header and rows still holds one line end
        yield head + ((",".join(["%s"] * n_cols) + "\n") * n_rows) % tuple(cells.tolist()) or "\n"
        return
    yield head
    # keyed on the bits, so -0.0 and 0.0 stay apart and NaNs never compare equal
    bits = cells.view(np.int64)
    # sorted neighbours differ exactly where their difference, wrapped or not, is nonzero
    repeats = 2 * (1 + np.count_nonzero(np.diff(np.sort(bits)))) <= bits.size
    if repeats:
        distinct, inverse = _distinct_inverse(bits)
        distinct_chars = np.empty((distinct.size, _CELL_BYTES), dtype=np.uint8)
        distinct_keep = np.empty((distinct.size, _CELL_BYTES), dtype=bool)
        for start in range(0, distinct.size, _CHUNK_FLOATS):
            chunk = slice(start, start + _CHUNK_FLOATS)
            distinct_chars[chunk], distinct_keep[chunk] = _repr_cells(distinct[chunk].view(float))
    step = n_cols * max(1, _CHUNK_FLOATS // n_cols)  # whole rows
    for start in range(0, cells.size, step):
        chunk = slice(start, start + step)
        if repeats:
            chars, keep = distinct_chars.take(inverse[chunk], axis=0), distinct_keep.take(inverse[chunk], axis=0)
        else:
            chars, keep = _repr_cells(cells[chunk])
        chars[n_cols - 1 :: n_cols, _SEP_COLUMN] = ord("\n")
        yield np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")


# The kernel writes each cell into a row of _CELL_BYTES characters that
# holds, in output order, every character some layout of repr needs:
#
#   0       '-'
#   1..5    '0', '.', '0', '0', '0'       the "0.000" of 0.0001 <= |x| < 1
#   6..39   D0 '.' D1 '.' ... D16 '.'     17 digits, each followed by a '.' slot
#   40..44  'e', the exponent's sign, three exponent digits
#   45      the separator, ','
#
# A cell's layout (sign, significant digits, form) picks a boolean mask over
# the row, and the masked characters are the cell's repr and separator.  A
# cell left to repr has that string at 8..31, under a mask of its length.
_CELL_BYTES = 48
_SEP_COLUMN = 45
# sign x significant digits x form: the point after digit -3..16, or an exponent of 2 or 3 digits
_LAYOUTS = 2 * 17 * 22
_U64 = np.uint64
_LOW32 = _U64(2**32 - 1)
_LOW63 = _U64(2**63 - 1)


def _repr_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Render a 1-D float64 array as ``repr`` does, as characters and a mask.

    Returns ``chars`` (uint8) and ``keep`` (bool), both of shape
    (len(values), _CELL_BYTES), where ``chars[i][keep[i]]`` is the ASCII of
    ``repr(float(values[i]))`` followed by ','.  The digits come from
    :func:`_shortest_digits`.  The layout follows ``repr``: exponent form iff
    the decimal point position is <= -4 or > 16, a signed exponent of at
    least two digits, and ".0" on integral values.  +-0.0 take the layout
    too; NaN, the infinities and subnormals take ``repr`` cell by cell.
    """
    tables = _repr_tables()
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.view(_U64)
    zero = (bits << _U64(1)) == _U64(0)
    exponent = bits & _U64(0x7FF << 52)
    by_repr = (exponent == _U64(0x7FF << 52)) | ((exponent == _U64(0)) & ~zero)
    # computed as 1.0, then overwritten
    digits, point = _shortest_digits(np.where(zero | by_repr, _U64(0x3FF << 52), bits & _LOW63))
    digits[zero] = 0
    point[zero] = 1  # 0.D0D1... x 10^1 with all digits 0 is written "0.0"
    chars, n_digits = _digit_chars(digits)
    chars.view(_U64)[:, 5] = tables.exponents[point + 323]
    form = np.where((point > 16) | (point < -3), 20, point + 3)
    form[(point > 100) | (point < -98)] = 21
    layout = ((bits >> _U64(63)).astype(np.intp) * 17 + n_digits - 1) * 22 + form
    if by_repr.any():
        where = np.flatnonzero(by_repr)
        strings = [repr(x).encode() for x in values[where].tolist()]
        chars[where, 8:32] = np.frombuffer(b"".join(x.ljust(24) for x in strings), dtype=np.uint8).reshape(-1, 24)
        layout[where] = [_LAYOUTS + len(x) for x in strings]
    return chars, tables.masks.take(layout, axis=0)


def _digit_chars(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's rows up to the exponent for 17-digit ``digits``, and the significant digit counts."""
    tables = _repr_tables()
    chars = np.empty((digits.size, _CELL_BYTES), dtype=np.uint8)
    words = chars.view(_U64)
    words[:, 0] = np.frombuffer(b"-0.000\0.", dtype=_U64)[0]
    lead, rest = np.divmod(digits, _U64(10**16))
    chars[:, 6] = lead + _U64(ord("0"))
    # the zeros that end D1..D16: the least over the four-digit groups i of 12 - 4 i plus the
    # zeros that end group i, where an all-zero group counts 16
    trailing = np.uint8(16)
    for i, group in enumerate(g for half in np.divmod(rest, _U64(10**8)) for g in np.divmod(half, _U64(10**4))):
        words[:, 1 + i] = tables.digits4[group]
        trailing = np.minimum(trailing, tables.zeros4[group] + np.uint8(12 - 4 * i))
    return chars, 17 - trailing.astype(np.intp)


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal digits that ``repr`` gives positive normal float64s, from their bits.

    Returns the digits as a 17-digit ``uint64`` padded with zeros, and the
    decimal point position (int64): the value is 0.D0D1...D16 x 10^point.
    This is the Schubfach algorithm (Giulietti 2020, "The Schubfach way to
    render doubles", as in JDK 19+ ``Double.toString``): the shortest
    decimal in the value's rounding interval, the closer one of two such,
    ties to an even last digit, which is the rule of the dtoa mode 0 behind
    ``repr``.  Its 64 x 64 -> 128-bit products are built from 32-bit limbs,
    and every integer operand is ``uint64``.
    """
    tables = _repr_tables()
    fraction = bits & _U64(2**52 - 1)
    # a power of two above the smallest normal has a closer neighbour below than above
    narrow = (fraction == _U64(0)) & (bits >= _U64(1 << 53))
    row = (bits >> _U64(52)).astype(np.intp)
    row[narrow] += 2048
    limbs = tuple(limb[row] for limb in tables.limbs)
    shift = tables.shift[row]
    # 4 x the significand, then the rounding interval's ends, each in units of 2^(q - 2) and
    # scaled by 10^-k; an odd significand's interval excludes its ends
    cb = (fraction | _U64(2**52)) << _U64(2)
    odd = (fraction & _U64(1)) == _U64(1)
    vb = _round_to_odd(limbs, cb << shift)
    vbl = _round_to_odd(limbs, (cb - _U64(2) + narrow) << shift) + odd
    vbr = _round_to_odd(limbs, (cb + _U64(2)) << shift) - odd
    s = vb >> _U64(2)
    # a multiple of ten in the interval is the one shortest decimal there
    s10 = (s // _U64(10)) * _U64(10)
    in_low10 = vbl <= s10 << _U64(2)
    in_high10 = (s10 + _U64(10)) << _U64(2) <= vbr
    # otherwise s or s + 1: the one in the interval, or the closer, ties to even
    in_low = vbl <= s << _U64(2)
    in_high = (s + _U64(1)) << _U64(2) <= vbr
    halfway = (s << _U64(2)) + _U64(2)
    closer_low = (vb < halfway) | ((vb == halfway) & ((s & _U64(1)) == _U64(0)))
    digits = np.where(
        in_low10 != in_high10,
        np.where(in_low10, s10, s10 + _U64(10)),
        np.where(np.where(in_low != in_high, in_low, closer_low), s, s + _U64(1)),
    )
    # s is at least 2^52, so the digits number 16 or 17
    short = digits < _U64(10**16)
    return np.where(short, digits * _U64(10), digits), tables.k[row] + 17 - short


def _round_to_odd(limbs: tuple, cp: np.ndarray) -> np.ndarray:
    """Schubfach's ``rop``: floor(cp g / 2^127), with its lowest bit set if bits of the product remain.

    ``g = g1 2^63 + g0`` is the 126-bit power of ten, and ``limbs`` holds
    the 32-bit limbs of g1 and g0, low first.  ``cp`` is below 2^63.
    """
    cp_low, cp_high = cp & _LOW32, cp >> _U64(32)
    x1 = _mul_wide(limbs[2], limbs[3], cp_low, cp_high)[0]
    y1, y0 = _mul_wide(limbs[0], limbs[1], cp_low, cp_high)
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _LOW63) + _LOW63) >> _U64(63))


def _mul_wide(a_low, a_high, b_low, b_high) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 64 bits of a product of two factors below 2^63, from their 32-bit limbs."""
    low = a_low * b_low
    cross = a_low * b_high + a_high * b_low
    high = a_high * b_high + (cross >> _U64(32)) + (((low >> _U64(32)) + (cross & _LOW32)) >> _U64(32))
    return high, low + (cross << _U64(32))  # the low word wraps


class _ReprTables(NamedTuple):
    limbs: tuple  # the 32-bit limbs of g1 and g0, low first, per row
    shift: np.ndarray  # Schubfach's h per row
    k: np.ndarray  # the decimal exponent per row
    digits4: np.ndarray  # "d.d.d.d." per four-digit group, as uint64
    zeros4: np.ndarray  # the zeros that end each four-digit group; 16 for 0000
    exponents: np.ndarray  # "e+ddd," padded to 8 bytes per exponent -324..308, as uint64
    masks: np.ndarray  # one row mask per layout, then per length of a repr string


@functools.cache
def _repr_tables() -> _ReprTables:
    """The kernel's lookup tables, built on first use from Python ints.

    A row is a biased exponent, plus 2048 for a power of two's narrower
    interval below.  Its g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1,
    as g1 2^63 + g0, is one of the 617 for float64's decimal exponents k.
    """
    # g1 and g0 as 32-bit limbs, low first, for k = -324..292
    powers = []
    for k in range(-324, 293):
        f = (-k * 913_124_641_741) >> 38  # floor(log2(10^-k))
        if k > 0:
            g = (1 << (125 - f)) // 10**k + 1
        else:
            g = (10**-k << (125 - f) if f <= 125 else 10**-k >> (f - 125)) + 1
        powers.append(((g >> 63) & (2**32 - 1), g >> 95, g & (2**32 - 1), (g >> 32) & (2**31 - 1)))
    powers = np.array(powers, dtype=_U64)
    rows = np.concatenate((np.arange(1, 2047), np.arange(2050, 4095)))
    q = rows % 2048 - 1075
    k = (q * 661_971_961_083 - 274_743_187_321 * (rows > 2047)) >> 41  # floor(log10((3/4)^narrow 2^q))
    limbs = tuple(np.zeros(4096, dtype=_U64) for _ in range(4))
    for i, limb in enumerate(limbs):
        limb[rows] = powers[k + 324, i]
    shift = np.zeros(4096, dtype=_U64)
    shift[rows] = q + ((-k * 913_124_641_741) >> 38) + 2
    dec = np.zeros(4096, dtype=np.int64)
    dec[rows] = k
    group = np.arange(10000)
    chars4 = np.full((10000, 8), ord("."), dtype=np.uint8)
    for i in range(4):
        chars4[:, 2 * i] = group // 10 ** (3 - i) % 10 + ord("0")
    digits4 = chars4.view(_U64).ravel()
    zeros4 = sum((group % 10**i == 0).astype(np.uint8) for i in (1, 2, 3))
    zeros4[0] = 16
    exponents = np.frombuffer("".join("e%+04d,\0\0" % e for e in range(-324, 309)).encode(), dtype=_U64)
    masks = np.zeros((_LAYOUTS + 25, _CELL_BYTES), dtype=bool)
    for negative in (0, 1):
        for n in range(1, 18):
            for form in range(22):
                on = [0] * negative
                if form >= 20:
                    on += [6] + [7] * (n > 1) + list(range(8, 6 + 2 * n, 2)) + [40, 41] + [42] * (form == 21) + [43, 44]
                elif form <= 3:  # "0." and 3 - form zeros before the digits
                    on += list(range(1, 6 - form)) + list(range(6, 6 + 2 * n, 2))
                else:  # the point after D(form - 4); zero digits run through the one after it
                    on += list(range(6, 6 + 2 * max(n, form - 2), 2)) + [2 * form - 1]
                masks[(negative * 17 + n - 1) * 22 + form, on + [_SEP_COLUMN]] = True
    for length in range(25):
        masks[_LAYOUTS + length, list(range(8, 8 + length)) + [_SEP_COLUMN]] = True
    return _ReprTables(limbs, shift, dec, digits4, zeros4, exponents, masks)


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
