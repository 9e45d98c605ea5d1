import contextlib
import io
import math

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

    def test_one_hot_matrix_builder(self):
        mat = one_hot_matrix([2, 0], 3)
        assert np.array_equal(mat, [[0, 0, 1], [1, 0, 0]])

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
    def test_default_surface_bytes_with_distinct_values_formatted_once(self, kind, monkeypatch):
        surf = surface(LossConfig(kind))
        buf = io.StringIO()
        with _distinct_calls(monkeypatch) as calls:
            write_surface_csv(surf, buf)
        assert calls == [1]
        mat = np.column_stack((surf.p1, surf.p2, surf.values))
        assert buf.getvalue() == _per_cell_csv_text(mat, "# p1,p2,value")

    def test_repeated_special_values_keep_their_own_repr(self, rng, monkeypatch):
        mat = rng.choice(_SPECIAL_VALUES, size=(60, 7))
        mat[0, :4] = [0.0, -0.0, -0.0, 0.0]
        mat[1, :2] = [-0.0, 0.0]
        want = _per_cell_csv_text(mat)
        assert "0.0,-0.0,-0.0,0.0," in want and "nan" in want and "-inf" in want and "5e-324" in want
        buf = io.StringIO()
        with _distinct_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat)
        assert calls == [1]
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
        # 40 cells: at most 20 distinct values are formatted once each, 21 cell by cell
        values = np.concatenate(([-0.0, 0.0], np.arange(1, n_distinct - 1) / 7.0))
        mat = np.resize(values, (10, 4))
        assert np.unique(mat.view(np.int64)).size == n_distinct
        buf = io.StringIO()
        with _distinct_calls(monkeypatch) as calls:
            write_matrix_csv(buf, mat)
        assert bool(calls) == formats_once
        assert buf.getvalue() == _per_cell_csv_text(mat)

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


# float64 values whose repr is easy to get wrong: signed zeros, NaNs with the
# sign bit set and with payloads, infinities, subnormals
_SPECIAL_VALUES = np.concatenate(
    (
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, 0.1],
        np.array([0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float),
    )
)


@contextlib.contextmanager
def _distinct_calls(monkeypatch):
    """Record each call of the writer's distinct-value step, which it skips when most cells are distinct."""
    calls = []
    step = probmat._distinct_inverse
    with monkeypatch.context() as patch:
        patch.setattr(probmat, "_distinct_inverse", lambda *a: calls.append(1) or step(*a))
        yield calls


def _per_cell_csv_text(mat, header=None) -> str:
    """CSV text from the per-cell ``repr(float(x))`` loop, the byte reference for the writer."""
    lines = [line if line.startswith("#") else "# " + line for line in (header or "").splitlines()]
    for row in np.asarray(mat, dtype=float):
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
