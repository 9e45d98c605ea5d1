import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

from equimax import probmat
from equimax.losses import LossConfig
from equimax.optimizer import surface, write_surface_csv
from equimax.oracle import _one_hot_label_stack
from equimax.probmat import (
    BudgetError,
    DEFAULT_ENUM_BUDGET,
    DimensionError,
    DomainError,
    EXAMPLES_2X2,
    EXAMPLES_4X2,
    class_sizes,
    enumerate_size_compositions,
    is_one_hot_rows,
    one_hot_matrix,
    project_rows,
    read_matrix_csv,
    renormalize_rows,
    validate,
    write_matrix_csv,
)

from conftest import random_matrix


class TestValidate:
    def test_accepts_one_hot(self):
        mat = validate([[1, 0], [0, 1]])
        assert mat.shape == (2, 2)
        assert not mat.flags.writeable

    def test_accepts_exact_row_sums(self):
        mat = validate([[0.5, 0.5], [0.3, 0.7]])
        assert np.array_equal(mat, [[0.5, 0.5], [0.3, 0.7]])

    def test_rejects_bad_row_sum_naming_row(self):
        with pytest.raises(DomainError, match="row 0 sums to 1.2"):
            validate([[0.6, 0.6], [0.5, 0.5]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(DomainError, match="row 1"):
            validate([[0.5, 0.5], [1.5, -0.5]])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError, match="row 0"):
            validate([[np.nan, 1.0], [0.5, 0.5]])

    def test_rejects_ragged(self):
        with pytest.raises(DimensionError):
            validate([[0.5, 0.5], [1.0]])

    def test_rejects_single_column(self):
        with pytest.raises(DimensionError):
            validate([[1.0], [1.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            validate(np.zeros((0, 2)))

    def test_values_preserved_exactly(self):
        raw = [[0.3000000001, 0.6999999999], [0.25, 0.75]]
        mat = validate(raw)
        assert mat[0, 0] == 0.3000000001

    def test_tolerates_1e10_slack(self):
        mat = validate([[0.5 + 1e-10, 0.5], [0.5, 0.5]])
        assert mat.shape == (2, 2)

    def test_random_matrices_validate(self, rng):
        for _ in range(50):
            n_rows = int(rng.integers(1, 9))
            n_cols = int(rng.integers(2, 7))
            validate(random_matrix(rng, n_rows, n_cols))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([[0.6, 0.6], [np.nan, 1.0]], "row 0 sums to 1.2"),
            ([[0.5, 0.5], [1.5, 0.2]], "row 1 entry 0 is"),
            ([[0.5, 0.5], [np.nan, -0.5]], "row 1 contains a non-finite entry"),
            ([[0.5, 0.5], [0.2, np.inf], [0.6, 0.6]], "row 1 contains a non-finite entry"),
        ],
    )
    def test_first_offending_row_and_check_order(self, raw, message):
        with pytest.raises(DomainError, match=message) as info:
            validate(raw)
        assert str(info.value) == _loop_validate_message(np.array(raw, dtype=float))

    def test_messages_match_row_loop(self, rng):
        for _ in range(200):
            mat = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)))
            for _ in range(int(rng.integers(1, 4))):
                i, j = int(rng.integers(mat.shape[0])), int(rng.integers(mat.shape[1]))
                mat[i, j] = rng.choice([np.nan, np.inf, -0.3, 1.4, mat[i, j] + 0.01])
            with pytest.raises(DomainError) as info:
                validate(mat)
            assert str(info.value) == _loop_validate_message(mat)


def _loop_validate_message(mat: np.ndarray) -> str:
    """The row-by-row reference: the message of the first failing check."""
    for i, row in enumerate(mat):
        if not np.all(np.isfinite(row)):
            return f"row {i} contains a non-finite entry"
        if np.any(row < -probmat.ENTRY_TOL) or np.any(row > 1.0 + probmat.ENTRY_TOL):
            j = int(np.argmax((row < -probmat.ENTRY_TOL) | (row > 1.0 + probmat.ENTRY_TOL)))
            return f"row {i} entry {j} is {row[j]!r}, outside [0, 1]"
        s = float(row.sum())
        if abs(s - 1.0) > probmat.ROW_SUM_TOL:
            return f"row {i} sums to {s!r}, expected 1 within {probmat.ROW_SUM_TOL}"
    raise AssertionError("the reference loop found no offending row")


def test_renormalize_rows():
    fixed = renormalize_rows([[0.6, 0.6], [2.0, 2.0]])
    assert np.allclose(fixed, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(DomainError):
        renormalize_rows([[0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "row, total", [([math.inf, -math.inf], "nan"), ([1e308, 1e308], "inf")], ids=["inf_minus_inf", "overflow"]
)
def test_renormalize_rows_reports_a_non_finite_sum_without_a_warning(row, total):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^row 1 sums to {total}, cannot renormalize$"):
            renormalize_rows([[0.5, 0.5], row])


class TestClassSizes:
    def test_examples(self):
        assert np.array_equal(class_sizes(EXAMPLES_4X2["P1"]), [4, 0])
        assert np.array_equal(class_sizes(EXAMPLES_4X2["P2"]), [3, 1])
        assert np.array_equal(class_sizes(np.full((4, 2), 0.5)), [2, 2])

    def test_total_equals_row_count(self, rng):
        for _ in range(30):
            mat = random_matrix(rng, int(rng.integers(1, 10)), int(rng.integers(2, 6)))
            assert abs(class_sizes(mat).sum() - mat.shape[0]) < 1e-6


class TestOneHot:
    def test_examples(self):
        assert is_one_hot_rows(EXAMPLES_4X2["P3"])
        assert not is_one_hot_rows(np.full((2, 2), 0.5))
        assert is_one_hot_rows([[0.999999, 1e-6], [0, 1]], tol=1e-5)
        assert not is_one_hot_rows([[0.999999, 1e-6], [0, 1]], tol=1e-7)

    def test_tol_range(self):
        with pytest.raises(ValueError):
            is_one_hot_rows(EXAMPLES_4X2["P1"], tol=0.5)

    @pytest.mark.parametrize("tol", ["0.1", None])
    def test_non_number_tol_rejected_naming_it(self, tol):
        # before, the range check ended in a TypeError
        with pytest.raises(ValueError, match=f"^tol must be a number, got {re.escape(repr(tol))}$"):
            is_one_hot_rows(EXAMPLES_4X2["P1"], tol)

    def test_one_hot_matrix_builder(self):
        mat = one_hot_matrix([2, 0], 3)
        assert np.array_equal(mat, [[0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("labels, n_cols", [([0], True), ([0], "2"), ([0, 1], 2.5)])
    def test_non_integer_n_cols_rejected_naming_it(self, labels, n_cols):
        # before, numpy ended these in a TypeError
        with pytest.raises(ValueError, match=f"^n_cols must be an integer, got {re.escape(repr(n_cols))}$"):
            one_hot_matrix(labels, n_cols)

    def test_label_stack_matches_rows(self, rng):
        labels = rng.integers(0, 4, size=(50, 6))
        stack = one_hot_matrix(labels, 4)
        assert stack.shape == (50, 6, 4)
        for mat, row in zip(stack, labels):
            assert np.array_equal(mat, one_hot_matrix(row, 4))


class TestEnumerateOneHot:
    # the one-hot enumeration lives in the oracle, as _one_hot_label_stack
    def test_2x2_is_the_extreme_point_family(self):
        mats = list(_one_hot_label_stack(2, 2, DEFAULT_ENUM_BUDGET)[0])
        assert len(mats) == 4
        expect = {tuple(np.asarray(m).ravel()) for m in EXAMPLES_2X2.values()}
        assert {tuple(m.ravel()) for m in mats} == expect

    @pytest.mark.parametrize("n_rows,n_cols,count", [(1, 3, 3), (3, 2, 8), (2, 4, 16)])
    def test_counts(self, n_rows, n_cols, count):
        mats = list(_one_hot_label_stack(n_rows, n_cols, DEFAULT_ENUM_BUDGET)[0])
        assert len(mats) == count
        assert len({m.tobytes() for m in mats}) == count
        for m in mats:
            assert is_one_hot_rows(m)
            assert np.all(class_sizes(m) == class_sizes(m).astype(int))

    def test_lexicographic_order(self):
        labels = [tuple(np.argmax(m, axis=1)) for m in _one_hot_label_stack(3, 2, DEFAULT_ENUM_BUDGET)[0]]
        assert labels == sorted(labels)
        assert labels[0] == (0, 0, 0)

    def test_budget(self):
        with pytest.raises(BudgetError, match="4\\^12"):
            _one_hot_label_stack(12, 4, budget=1000)


def _recursive_compositions(total, parts):
    """The recursive generator the stars-and-bars walk replaced, kept as its reference."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


class TestCompositions:
    def test_2_into_2(self):
        assert list(enumerate_size_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_counts(self):
        assert len(list(enumerate_size_compositions(4, 2))) == 5
        got = list(enumerate_size_compositions(4, 3))
        assert len(got) == 15 == math.comb(4 + 2, 2)
        assert all(sum(t) == 4 for t in got)
        assert got == sorted(got)

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(enumerate_size_compositions(100, 8, budget=100))
        # every count is at least 1, so a budget below 1 is exceeded, as before
        for budget in (0, -5):
            with pytest.raises(BudgetError, match=f"exceeds budget {budget}$"):
                enumerate_size_compositions(2, 2, budget)
            with pytest.raises(BudgetError, match=f"exceeds budget {budget}$"):
                _one_hot_label_stack(2, 2, budget)

    def test_walk_matches_the_recursive_reference(self):
        for total in range(11):
            for parts in range(1, 9):
                assert list(enumerate_size_compositions(total, parts)) == list(_recursive_compositions(total, parts))
        # a negative total has no composition once its count is defined, and none is yielded
        for total, parts in [(-1, 2), (-1, 8), (-3, 4), (-7, 8)]:
            assert list(enumerate_size_compositions(total, parts)) == list(_recursive_compositions(total, parts)) == []

    def test_one_into_many_parts_keeps_no_frame_per_part(self):
        # before, the recursion kept one frame per part and raised RecursionError here
        got = list(enumerate_size_compositions(1, 1200))
        assert len(got) == 1200
        assert got[0] == (0,) * 1199 + (1,)
        assert got[-1] == (1,) + (0,) * 1199
        assert got == sorted(got)

    @pytest.mark.parametrize(
        "total, parts, name, value",
        [(True, 2, "total", True), ("3", 2, "total", "3"), (3, 2.0, "parts", 2.0), (3, None, "parts", None)],
    )
    def test_non_integer_total_or_parts_rejected_naming_it(self, total, parts, name, value):
        # before, a total of True was read as 1, and 2.0 or None for parts ended in a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            enumerate_size_compositions(total, parts)

    @pytest.mark.parametrize("budget", [2.5, True, "10", None])
    def test_non_integer_budget_rejected_naming_it(self, budget):
        # before, 2.5 and True were compared with the count and "10" and None ended in a TypeError
        message = f"^budget must be an integer, got {re.escape(repr(budget))}$"
        with pytest.raises(ValueError, match=message):
            enumerate_size_compositions(3, 3, budget)
        with pytest.raises(ValueError, match=message):
            _one_hot_label_stack(2, 2, budget)


class TestSimplexProjection:
    def test_feasible_unchanged(self):
        assert np.allclose(project_rows([0.2, 0.8]), [0.2, 0.8], atol=1e-15)

    def test_outside_point(self):
        # brute-force oracle: dense grid search over the 2-simplex
        grid = np.linspace(0, 1, 2001)
        cand = np.stack([grid, 1 - grid], axis=1)
        target = np.array([2.0, 0.0])
        best = cand[np.argmin(((cand - target) ** 2).sum(axis=1))]
        got = project_rows(target)
        assert np.allclose(got, best, atol=1e-3)
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)

    def test_symmetric_point(self):
        assert np.allclose(project_rows([0.5, 0.5, 0.5]), [1 / 3] * 3, atol=1e-15)

    def test_idempotent(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            vec = rng.normal(size=n) * rng.uniform(0.1, 5)
            once = project_rows(vec)
            assert abs(once.sum() - 1.0) < 1e-12
            assert np.all(once >= 0)
            assert np.max(np.abs(project_rows(once) - once)) < 1e-12

    def test_matches_rowwise_batch(self, rng):
        block = rng.normal(size=(6, 4))
        batch = project_rows(block)
        for i in range(6):
            assert np.allclose(batch[i], project_rows(block[i]), atol=1e-14)

    def test_brute_force_3d(self, rng):
        # compare against dense enumeration on the 3-simplex
        ticks = np.linspace(0, 1, 201)
        pts = [(a, b, 1 - a - b) for a in ticks for b in ticks if a + b <= 1 + 1e-12]
        pts = np.array(pts)
        for _ in range(5):
            v = rng.normal(size=3)
            best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
            assert np.linalg.norm(project_rows(v) - best) < 2e-2


class TestCanonicalExamples:
    def test_all_one_hot_binary(self):
        for fam in (EXAMPLES_4X2, EXAMPLES_2X2):
            for mat in fam.values():
                assert is_one_hot_rows(mat)
                assert set(np.unique(mat)) <= {0.0, 1.0}

    def test_2x2_family_complete(self):
        assert set(EXAMPLES_2X2) == {"P1", "P2", "P3", "P4"}
        assert np.array_equal(EXAMPLES_2X2["P2"], np.eye(2))


class TestCsv:
    @pytest.mark.parametrize("header", ["five by three", "run 1\nseed 7", "# run 1\rseed 7\x85"])
    def test_round_trip(self, header, rng, tmp_path):
        mat = random_matrix(rng, 5, 3)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat, header=header)
        back = read_matrix_csv(path)
        assert np.array_equal(back, mat)

    def test_header_and_blank_lines(self):
        text = "# header\n1,0\n\n0,1\n"
        mat = read_matrix_csv(io.StringIO(text))
        assert np.array_equal(mat, np.eye(2))

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError, match="ragged"):
            read_matrix_csv(io.StringIO("1,0\n0,1,0\n"))

    def test_garbage_rejected(self):
        with pytest.raises(DimensionError):
            read_matrix_csv(io.StringIO("a,b\n"))

    def test_invalid_matrix_rejected(self):
        with pytest.raises(DomainError):
            read_matrix_csv(io.StringIO("0.6,0.6\n0.5,0.5\n"))

    @pytest.mark.parametrize("n_cols", range(1, 13))
    @pytest.mark.parametrize(
        "header", [None, "plain header", "# hashed header", "100% of %s, %r", "run 1\nseed 7", "# run 1\r\n% seed 7\n"]
    )
    def test_writer_bytes_match_per_cell_repr_loop(self, n_cols, header, rng, tmp_path):
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e16, 0.1, 1.0 / 3.0])
        mats = [
            np.empty((0, n_cols)),
            rng.dirichlet(np.ones(n_cols), size=7),
            rng.standard_normal((5, n_cols)) * 10.0 ** rng.integers(-300, 300, size=(5, n_cols)),
            one_hot_matrix(rng.integers(0, n_cols, size=6), n_cols),
            np.resize(special, (4, n_cols)),
        ]
        for mat in mats:
            want = _per_cell_csv_text(mat, header)
            buf = io.StringIO()
            write_matrix_csv(buf, mat, header=header)
            assert buf.getvalue() == want
            path = tmp_path / "m.csv"
            write_matrix_csv(path, mat, header=header)
            assert path.read_bytes() == want.encode("utf-8")

    def test_zero_rows_write_only_the_header(self):
        buf = io.StringIO()
        write_matrix_csv(buf, np.empty((0, 3)), header="# empty")
        assert buf.getvalue() == "# empty\n"

    @pytest.mark.parametrize("kind", ["ms", "bnm", "cwsm", "nsm"])
    def test_default_surface_bytes_with_distinct_values_formatted_once(self, kind, monkeypatch, tmp_path):
        surf = surface(LossConfig(kind))
        path = tmp_path / "s.csv"
        with _kernel_calls(monkeypatch) as calls:
            write_surface_csv(surf, str(path))
        mat = np.column_stack((surf.p1, surf.p2, surf.values))
        # each distinct bit pattern goes through the kernel once, in chunks
        assert sum(calls) == np.unique(mat.view(np.int64)).size < mat.size / 2
        assert max(calls) <= probmat._CHUNK_FLOATS
        assert path.read_bytes() == _per_cell_csv_text(mat, "# p1,p2,value").encode("utf-8")

    def test_repeated_special_values_keep_their_own_repr(self, rng, monkeypatch):
        mat = rng.choice(_SPECIAL_VALUES, size=(60, 7))
        mat[0, :4] = [0.0, -0.0, -0.0, 0.0]
        mat[1, :2] = [-0.0, 0.0]
        want = _per_cell_csv_text(mat)
        assert "0.0,-0.0,-0.0,0.0," in want and "nan" in want and "-inf" in want and "5e-324" in want
        buf = io.StringIO()
        with _kernel_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat)
        assert mat.size >= probmat._SMALL_FLOATS
        assert calls == [np.unique(mat.view(np.int64)).size]
        assert buf.getvalue() == want

    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated", "distinct"])
    def test_non_contiguous_inputs(self, repeated, rng):
        if repeated:
            base = rng.choice(_SPECIAL_VALUES, size=(40, 9))
        else:
            base = rng.standard_normal((40, 9))
        base[::3, 1] = -0.0
        views = [base.T, base[:, ::2], base[:, 3:7], base[::-2, ::-3], np.asfortranarray(base)]
        for mat in views:
            buf = io.StringIO()
            write_matrix_csv(buf, mat)
            assert buf.getvalue() == _per_cell_csv_text(mat)

    @pytest.mark.parametrize("n_distinct, formats_once", [(20, True), (21, False)])
    def test_either_side_of_the_half_distinct_threshold(self, n_distinct, formats_once, monkeypatch):
        # 40 cells, with no small-matrix cutoff: at most 20 distinct values are formatted once
        # each, 21 cell by cell
        monkeypatch.setattr(probmat, "_SMALL_FLOATS", 0)
        values = np.concatenate(([-0.0, 0.0], np.arange(1, n_distinct - 1) / 7.0))
        mat = np.resize(values, (10, 4))
        assert np.unique(mat.view(np.int64)).size == n_distinct
        buf = io.StringIO()
        with _kernel_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat)
        assert calls == [n_distinct if formats_once else 40]
        assert buf.getvalue() == _per_cell_csv_text(mat)

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
    @pytest.mark.parametrize("n_cols", [1, 3])
    @pytest.mark.parametrize("repeated", [False, True], ids=["dense", "repeated"])
    def test_bytes_across_a_chunk_boundary(self, offset, n_cols, repeated, monkeypatch, rng):
        # one chunk is _CHUNK_FLOATS cells rounded down to whole rows
        n_rows = probmat._CHUNK_FLOATS // n_cols + offset
        if repeated:
            mat = rng.choice(np.concatenate((_SPECIAL_VALUES, [0.25, -3.5e-7, 1e22])), size=(n_rows, n_cols))
        else:
            mat = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-320, 300, size=(n_rows, n_cols))
        buf = io.StringIO()
        with _kernel_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat)
        assert buf.getvalue() == _per_cell_csv_text(mat)
        if repeated:
            assert calls == [np.unique(mat.view(np.int64)).size]
        else:
            step = n_cols * (probmat._CHUNK_FLOATS // n_cols)
            assert calls == [min(step, mat.size - start) for start in range(0, mat.size, step)]

    @pytest.mark.parametrize("n_cells", [probmat._SMALL_FLOATS - 1, probmat._SMALL_FLOATS], ids=["below", "at"])
    @pytest.mark.parametrize("header", [None, "100% of %s"])
    def test_either_side_of_the_small_matrix_cutoff(self, n_cells, header, monkeypatch, rng):
        mat = (rng.standard_normal(n_cells) * 10.0 ** rng.integers(-30, 30, size=n_cells)).reshape(-1, 1)
        mat[:3, 0] = [-0.0, np.nan, 5e-324]
        buf = io.StringIO()
        with _kernel_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat, header=header)
        assert calls == ([] if n_cells < probmat._SMALL_FLOATS else [n_cells])
        assert buf.getvalue() == _per_cell_csv_text(mat, header)

    @pytest.mark.parametrize("header", ["", "# h\n"], ids=["no_header", "header"])
    @pytest.mark.parametrize("kind", ["path", "stream"])
    def test_reader_drops_a_byte_order_mark(self, header, kind, tmp_path):
        text = header + "0.5,0.5\n0.25,0.75\n"
        if kind == "path":
            path = tmp_path / "bom.csv"
            path.write_bytes(("\ufeff" + text).encode("utf-8"))
            got = read_matrix_csv(str(path))
        else:
            got = read_matrix_csv(io.StringIO("\ufeff" + text))
        assert got.tobytes() == read_matrix_csv(io.StringIO(text)).tobytes()

    def test_distinct_step_matches_np_unique(self, rng):
        for values in (
            rng.choice(_SPECIAL_VALUES, size=500),
            rng.integers(0, 3, size=64).astype(float) - 1.0,
            np.full(5, -0.0),
            np.array([np.nan]),
            rng.standard_normal(300),
        ):
            bits = values.view(np.int64)
            distinct, inverse = probmat._distinct_inverse(bits)
            want_distinct, want_inverse = np.unique(bits, return_inverse=True)
            assert np.array_equal(distinct, want_distinct) and np.array_equal(inverse, want_inverse)

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)], ids=["0d", "1d", "3d"])
    def test_writer_rejects_non_2d(self, shape):
        message = rf"^expected a 2-D matrix, got {len(shape)} dimension\(s\)$"
        with pytest.raises(DimensionError, match=message):
            write_matrix_csv(io.StringIO(), np.full(shape, 0.5))


class TestReprKernel:
    """The writer's kernel against ``repr``, cell for cell."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2020).integers(0, 2**64, size=250_000, dtype=np.uint64, endpoint=False)
        _assert_kernel_matches_repr(bits.view(float))

    def test_powers_of_two_and_their_neighbours(self):
        # a power of two has a rounding interval twice as wide above as below
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert powers.size == 2098
        _assert_kernel_matches_repr(_with_neighbours(powers))

    def test_powers_of_ten_and_their_neighbours(self):
        _assert_kernel_matches_repr(_with_neighbours(np.array([float(f"1e{e}") for e in range(-323, 309)])))

    def test_integers_around_two_to_the_53(self):
        ints = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(float)
        _assert_kernel_matches_repr(np.concatenate((ints, -ints, np.arange(1.0, 3000.0))))

    def test_notation_switches(self):
        # fixed notation runs from 1e-4 to below 1e16; exponents of three digits
        switches = np.array(
            [1e-4, 1e-5, 1.5e-4, 9.99e-5, 1e16, 1e17, 9999999999999998.0, 1234567890123456.8, 1e15, 123456789012345.67]
            + [1e100, 1e-100, 1.5e-99, 9.5e99, 2.5e-300, 1.7976931348623157e308, 2.2250738585072014e-308]
        )
        _assert_kernel_matches_repr(_with_neighbours(switches))

    def test_zeros_subnormals_and_non_finite(self, rng):
        subnormals = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(float)
        _assert_kernel_matches_repr(np.concatenate((_SPECIAL_VALUES, -_SPECIAL_VALUES, subnormals, -subnormals)))


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    """``values``, their neighbours one ulp either side, and all of those negated."""
    with np.errstate(over="ignore"):
        near = np.concatenate((values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)))
    return np.concatenate((near, -near))


def _assert_kernel_matches_repr(values: np.ndarray) -> None:
    for start in range(0, values.size, 50_000):
        part = values[start : start + 50_000]
        chars, keep = probmat._repr_cells(part)
        got = np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")
        want = "".join(repr(x) + "," for x in part.tolist())
        if got != want:
            cells = got.split(",")
            bad = next(i for i, x in enumerate(part.tolist()) if cells[i] != repr(x))
            raise AssertionError(f"bits {part[bad:bad + 1].view(np.uint64)[0]:#018x}: {cells[bad]!r} != {part[bad]!r}")


# float64 values whose repr is easy to get wrong: signed zeros, NaNs with the
# sign bit set and with payloads, infinities, subnormals
_SPECIAL_VALUES = np.concatenate(
    (
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, 0.1],
        np.array([0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float),
    )
)


@contextlib.contextmanager
def _kernel_calls(monkeypatch):
    """Record the number of values of each call of the writer's formatting kernel."""
    calls = []
    kernel = probmat._repr_cells
    with monkeypatch.context() as patch:
        patch.setattr(probmat, "_repr_cells", lambda values: calls.append(values.size) or kernel(values))
        yield calls


def _per_cell_csv_text(mat, header=None) -> str:
    """CSV text from the per-cell ``repr(float(x))`` loop, the byte reference for the writer."""
    lines = [line if line.startswith("#") else "# " + line for line in (header or "").splitlines()]
    for row in np.asarray(mat, dtype=float):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
