import ast
import concurrent.futures
import hashlib
import inspect
import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from equimax import losses
from equimax.losses import (
    ConvergenceError,
    LossConfig,
    bnm,
    cws,
    discriminability,
    equity_metric,
    loss_value,
    ms,
    ns,
    nuclear_norm,
    svd,
)
from equimax.oracle import _one_hot_label_stack
from equimax.probmat import DEFAULT_ENUM_BUDGET, EXAMPLES_2X2, EXAMPLES_4X2, class_sizes

from conftest import random_matrix

P1 = np.asarray(EXAMPLES_4X2["P1"])
P2 = np.asarray(EXAMPLES_4X2["P2"])
P3 = np.asarray(EXAMPLES_4X2["P3"])


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig("nsm")
        assert cfg.epsilon == "auto"
        assert cfg.resolved_epsilon(4, 2) == 0.0
        assert cfg.resolved_epsilon(2, 3) == 1e-6
        assert cfg.resolved_epsilon(3, 3) == 1e-6

    def test_explicit_epsilon(self):
        assert LossConfig("nsm", epsilon=0.25).resolved_epsilon(2, 5) == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus"},
            {"kind": "cwsm", "r": 1.5},
            {"kind": "cwsm", "r": -0.1},
            {"kind": "nsm", "alpha": -1.0},
            {"kind": "nsm", "epsilon": -1e-9},
            {"kind": "ms", "lam": -0.5},
            {"kind": "nsm", "r": 0.5, "alpha": 0.0},
            {"kind": "nsm", "r": 1.0, "alpha": 0.0},
            {"kind": "nsm", "epsilon": "bogus"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)

    @pytest.mark.parametrize("name", ["alpha", "epsilon", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.nan])
    def test_rejects_non_finite_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got "):
            LossConfig("nsm", **{name: value})

    def test_nsm_r0_alpha0_allowed(self):
        LossConfig("nsm", r=0.0, alpha=0.0)

    def test_irrelevant_params_recorded(self):
        cfg = LossConfig("ms", r=0.7, alpha=3.0)
        assert cfg.r == 0.7 and cfg.alpha == 3.0


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(2))
        assert np.allclose(s, [1, 1])

    def test_uniform_rank_one(self):
        _, s, _ = svd(np.full((4, 2), 0.5))
        assert np.allclose(s, [math.sqrt(2), 0], atol=1e-12)

    def test_wide_matrix(self):
        u, s, v = svd(np.full((1, 3), 1 / 3))
        assert u.shape == (1, 1) and v.shape == (3, 1)
        assert np.allclose(s, [1 / math.sqrt(3)])

    def test_invariants_random(self, rng):
        for _ in range(100):
            n_rows = int(rng.integers(1, 9))
            n_cols = int(rng.integers(2, 9))
            mat = random_matrix(rng, n_rows, n_cols)
            u, s, v = svd(mat)
            top = max(1.0, s[0])
            rec = u @ np.diag(s) @ v.T
            assert np.max(np.abs(rec - mat)) <= 1e-9 * top
            assert np.max(np.abs(u.T @ u - np.eye(s.size))) <= 1e-9
            assert np.max(np.abs(v.T @ v - np.eye(s.size))) <= 1e-9
            assert np.all(np.diff(s) <= 1e-15)
            assert np.all(s >= 0)

    def test_sign_convention(self, rng):
        for _ in range(20):
            u, s, _ = svd(random_matrix(rng, 5, 3))
            for col in range(s.size):
                pivot = np.argmax(np.abs(u[:, col]))
                assert u[pivot, col] >= 0

    def test_matches_lapack_singular_values(self, rng):
        # independent oracle: numpy's LAPACK-backed SVD
        for _ in range(60):
            mat = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(2, 8)))
            expect = np.linalg.svd(mat, compute_uv=False)
            assert np.allclose(svd(mat)[1], expect, atol=1e-10)

    def test_deterministic(self, rng):
        mat = random_matrix(rng, 6, 4)
        a, b = svd(mat), svd(mat)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_degenerate_spectra(self):
        for mat in (P1, np.full((2, 2), 0.5), np.eye(2), np.full((3, 3), 1 / 3)):
            u, s, v = svd(np.asarray(mat, dtype=float))
            top = max(1.0, s[0])
            assert np.max(np.abs(u @ np.diag(s) @ v.T - mat)) <= 1e-9 * top
            assert np.max(np.abs(u.T @ u - np.eye(s.size))) <= 1e-9
            assert np.max(np.abs(v.T @ v - np.eye(s.size))) <= 1e-9


def _svd_checks(mat, u, s, v):
    """LAPACK singular values to 1e-12 * max(1, s0); reconstruction and orthonormality to 1e-9."""
    expect = np.linalg.svd(mat, compute_uv=False)
    top = max(1.0, expect[0])
    assert np.max(np.abs(s - expect)) <= 1e-12 * top
    assert np.max(np.abs(u @ np.diag(s) @ v.T - mat)) <= 1e-9 * top
    assert np.max(np.abs(u.T @ u - np.eye(s.size))) <= 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(s.size))) <= 1e-9


def _duplicate_columns(rng, n_rows, n_cols):
    mat = random_matrix(rng, n_rows, n_cols - 1)
    mat = np.concatenate((mat, mat[:, :1]), axis=1)
    return mat / mat.sum(axis=1, keepdims=True)


def _zero_column(rng, n_rows, n_cols):
    mat = random_matrix(rng, n_rows, n_cols)
    mat[:, 0] = 0.0
    return mat / mat.sum(axis=1, keepdims=True)


def _one_hot_empty_class(rng, n_rows, n_cols):
    labels = np.arange(n_rows) % (n_cols - 1)  # the last class is never used
    return np.eye(n_cols)[labels]


def _rank_one(rng, n_rows, n_cols):
    return np.tile(random_matrix(rng, 1, n_cols), (n_rows, 1))


# near-singular but full-rank matrices: smallest singular value about 1e-9,
# above SV_ZERO_TOL, so no column of U is filled in


def _near_duplicate_column(rng, n_rows, n_cols):
    mat = random_matrix(rng, n_rows, n_cols)
    mat[:, -1] = mat[:, 0] + 1e-8 * rng.uniform(size=n_rows)
    return mat / mat.sum(axis=1, keepdims=True)


def _near_duplicate_row(rng, n_rows, n_cols):
    mat = random_matrix(rng, n_rows, n_cols)
    mat[-1] = mat[0] + 1e-8 * rng.uniform(size=n_cols)
    return mat / mat.sum(axis=1, keepdims=True)


def _scaled_column(rng, n_rows, n_cols):
    mat = random_matrix(rng, n_rows, n_cols)
    mat[:, -1] *= 1e-8
    return mat / mat.sum(axis=1, keepdims=True)


class TestJacobiEngine:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_round_robin_covers_each_pair_once(self, n):
        rounds = losses._round_robin(n)
        assert len(rounds) == (n - 1 if n % 2 == 0 else n) * (n > 1)
        seen = []
        for left, right, _, _ in rounds:
            left, right = np.arange(n)[left], np.arange(n)[right]
            assert left.size == right.size >= 1
            assert np.all(left < right)
            assert len(set(left) | set(right)) == 2 * left.size  # disjoint within the round
            seen += list(zip(left.tolist(), right.tolist()))
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize(
        "shape, reduced",
        [((9, 5), False), ((10, 5), True), ((40, 20), True), ((256, 32), True),
         ((1024, 100), True), ((8, 4), False), ((5, 10), True), ((39, 20), False)],
    )
    def test_matches_lapack_on_both_paths(self, rng, monkeypatch, shape, reduced):
        calls = []
        householder = losses._householder_r
        monkeypatch.setattr(losses, "_householder_r", lambda s: calls.append(s.shape) or householder(s))
        mat = random_matrix(rng, *shape)
        _svd_checks(mat, *svd(mat))
        assert bool(calls) == reduced

    @pytest.mark.parametrize("shape", [(8, 6), (12, 6), (30, 10)])
    @pytest.mark.parametrize("make", [_duplicate_columns, _zero_column, _one_hot_empty_class])
    def test_rank_deficient(self, rng, shape, make):
        mat = make(rng, *shape)
        u, s, v = svd(mat)
        _svd_checks(mat, u, s, v)
        assert s[-1] <= 1e-12

    @pytest.mark.parametrize("shape", [(6, 4), (12, 6), (256, 32), (4, 40)])
    def test_repeat_calls_bit_identical(self, rng, shape):
        mat = random_matrix(rng, *shape)
        a, b = svd(mat), svd(mat)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_round_table_rows_are_left_then_right_columns(self, n):
        seen = []
        for left, right, pairs, rows in losses._round_robin(n):
            i, j = zip(*pairs)
            assert np.arange(n)[left].tolist() == list(i) and np.arange(n)[right].tolist() == list(j)
            assert np.arange(n)[rows].tolist() == list(i + j)
            steps = set(np.diff(i + j).tolist())
            assert isinstance(rows, slice) == (len(steps) == 1)  # a view wherever the rows allow one
            seen += pairs
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]  # each pair once a sweep

    @pytest.mark.parametrize(
        "shape",
        [(30, 2), (30, 3), (100, 3), (3, 30), (30, 4), (30, 9), (4, 10), (12, 10), (40, 12), (64, 20), (33, 31)],
        ids=lambda s: "%dx%d" % s,
    )
    @pytest.mark.parametrize("make", [random_matrix, _zero_column, _duplicate_columns, _rank_one])
    def test_lone_rounds_match_stack_rounds_bit_for_bit(self, rng, monkeypatch, shape, make):
        # a lone matrix rotates each round with Python-float parameters, a
        # stack with the vectorised rounds; a round's rows are a slice for one
        # pair (n <= 3) and in one round each at n = 4 and n = 5, and an index
        # array in every round from n = 6 up to the 16 pairs of 33x31
        lone_rounds = []
        lone_round = losses._rotate_lone_round
        monkeypatch.setattr(losses, "_rotate_lone_round", lambda *a: lone_rounds.append(1) or lone_round(*a))
        mat = make(rng, *shape)
        oriented = mat if shape[0] >= shape[1] else mat.T
        n = oriented.shape[1]
        alone = oriented[None].copy()
        rots, sweeps = losses._jacobi_orthogonalize(alone, max_sweeps=100 * n)
        assert len(lone_rounds) == sweeps * len(losses._round_robin(n))  # every round of every sweep
        lone_rounds.clear()
        pair = np.stack([oriented, oriented])
        pair_rots, pair_sweeps = losses._jacobi_orthogonalize(pair, max_sweeps=100 * n)
        assert not lone_rounds
        assert sweeps == pair_sweeps
        assert rots.tobytes() == pair_rots[:1].tobytes()
        assert alone.tobytes() == pair[:1].tobytes()

    def test_lone_rounds_rotate_skipped_pairs_by_the_identity(self):
        # column 0 is orthogonal to every other column, so its pair is skipped
        # in each round; the vectorised round still rotates it by c = 1, s = 0,
        # which turns its -0.0 into 0.0 beside the -1.0 of column 3, and the
        # lone round must do the same
        mat = np.array([[-0.0, 0.3, 0.5, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.2, 0.7, 0.1],
                        [0.0, 0.4, 0.2, 0.3], [0.0, 0.1, 0.9, 0.2], [0.0, 0.5, 0.3, 0.6]])
        alone, pair = mat[None].copy(), np.stack([mat, mat])
        rots, sweeps = losses._jacobi_orthogonalize(alone, max_sweeps=400)
        pair_rots, pair_sweeps = losses._jacobi_orthogonalize(pair, max_sweeps=400)
        assert sweeps == pair_sweeps and rots.tobytes() == pair_rots[:1].tobytes()
        assert alone.tobytes() == pair[:1].tobytes()
        assert math.copysign(1.0, alone[0, 0, 0]) == 1.0

    @pytest.mark.parametrize("make", [random_matrix, _zero_column, _duplicate_columns, _rank_one])
    def test_lone_gram_schmidt_matches_stack_bit_for_bit(self, rng, monkeypatch, make):
        completions = []
        completion = losses._completion
        monkeypatch.setattr(losses, "_completion", lambda basis: completions.append(1) or completion(basis))
        mat = make(rng, 30, 3)
        left = losses._sorted_factors(*losses._jacobi_factors(mat[None]))[2][0]  # (30, 3) left factor
        alone = losses._orthonormalize_columns(left)
        # each vanishing singular value leaves a zero column, which is completed
        assert len(completions) == 3 - np.linalg.matrix_rank(mat)
        stack = losses._orthonormalize_columns(np.stack([left, left]))
        assert alone.tobytes() == stack[:1].tobytes() == stack[1:].tobytes()

    def test_stack_chunks_match_lapack(self, rng, monkeypatch):
        stack = np.stack([random_matrix(rng, 20, 8) for _ in range(40)])
        whole = losses._singular_values_stack(stack)
        whole_bnm = losses._bnm(stack, True)
        whole_nsm = losses._nsm(stack, 0.5, 1.0, 1e-6, True)
        monkeypatch.setattr(losses, "_CHUNK_FLOATS", 3 * 20 * 8)  # 14 chunks, the last one short
        # 14 groups of the nsm pair pass too; each matrix keeps its one 20-row block (480 // 20 > 20)
        monkeypatch.setattr(losses, "_PAIR_TILE", 3 * 20 * 20)
        counts = []
        groups = losses._groups
        monkeypatch.setattr(losses, "_groups", lambda *args: counts.append(len(groups(*args))) or groups(*args))
        chunked = losses._singular_values_stack(stack)
        chunked_bnm = losses._bnm(stack, True)
        chunked_nsm = losses._nsm(stack, 0.5, 1.0, 1e-6, True)
        assert counts == [14, 14, 14]
        assert chunked.tobytes() == whole.tobytes()
        assert [part.tobytes() for part in chunked_bnm] == [part.tobytes() for part in whole_bnm]
        assert [part.tobytes() for part in chunked_nsm] == [part.tobytes() for part in whole_nsm]
        expect = np.linalg.svd(stack, compute_uv=False)
        assert np.max(np.abs(whole - expect)) <= 1e-12 and np.max(np.abs(chunked - expect)) <= 1e-12

    def test_result_path_uses_no_lapack_factorisation(self, rng, monkeypatch):
        # static: losses.py names no np.linalg function other than norm
        source = inspect.getsource(losses)
        used = {node.attr for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"}
        assert used <= {"norm"}, used
        assert "import numpy.linalg" not in source and "from numpy.linalg" not in source

        # dynamic: every factorisation raises, and the SVD-backed results still come out
        def forbidden(*a, **k):
            raise AssertionError("LAPACK factorisation called")

        for name in ("svd", "qr", "eig", "eigh", "eigvals", "eigvalsh", "lstsq"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for shape in ((30, 3), (64, 12), (5, 9)):
            mat = random_matrix(rng, *shape)
            svd(mat)
            bnm(mat)
            nuclear_norm(mat)
            loss_value(mat, LossConfig("bnm"))
            losses.gradient(mat, LossConfig("bnm"))
            losses._singular_values_stack(mat[None])


def _one_hot_rows(rng, n_rows, n_cols):
    return np.eye(n_cols)[rng.integers(0, n_cols, n_rows)]


def _signed_zeros(rng, n_rows, n_cols):
    """One-hot rows with -0.0 for every zero, and a random row."""
    mat = np.where(_one_hot_rows(rng, n_rows, n_cols) == 1.0, 1.0, -0.0)
    mat[-1] = random_matrix(rng, 1, n_cols)
    return mat


ONE_PAIR_MAKERS = [random_matrix, _rank_one, _zero_column, _one_hot_rows, _signed_zeros]


class TestLoneOnePairRounds:
    """A lone matrix of 2 or 3 columns: every round holds one pair, rotated with the 1-D einsum."""

    @pytest.mark.parametrize("n_rows", [2, 10, 30, 60])
    @pytest.mark.parametrize("n_cols", [2, 3])
    @pytest.mark.parametrize("make", ONE_PAIR_MAKERS)
    def test_rounds_match_stack_rounds(self, rng, monkeypatch, n_rows, n_cols, make):
        pairs_seen = []
        lone_round = losses._rotate_lone_round
        monkeypatch.setattr(
            losses, "_rotate_lone_round", lambda *a: pairs_seen.append(len(a[3])) or lone_round(*a)
        )
        mat = make(rng, n_rows, n_cols)
        oriented = mat if n_rows >= n_cols else mat.T
        n = oriented.shape[1]
        alone = oriented.copy()
        rots, sweeps = losses._jacobi_orthogonalize(alone, max_sweeps=100 * n)
        assert pairs_seen == [1] * (sweeps * len(losses._round_robin(n)))
        pair = np.stack([oriented, oriented])
        pair_rots, pair_sweeps = losses._jacobi_orthogonalize(pair, max_sweeps=100 * n)
        assert sweeps == pair_sweeps
        assert rots.shape == (n, n) and rots.tobytes() == pair_rots[0].tobytes()
        assert alone.tobytes() == pair[0].tobytes()

    @pytest.mark.parametrize("n_rows", [2, 10, 30, 60])
    @pytest.mark.parametrize("n_cols", [2, 3])
    @pytest.mark.parametrize("make", ONE_PAIR_MAKERS)
    def test_bnm_matches_stack_rows(self, rng, n_rows, n_cols, make):
        mat = make(rng, n_rows, n_cols)
        value, grad, exact = losses._bnm(mat, True)
        values, grads, flags = losses._bnm(np.stack([mat, mat]), True)
        assert value.tobytes() == values[0].tobytes()
        assert grad.shape == mat.shape and grad.tobytes() == grads[0].tobytes()
        assert exact is bool(flags[0])
        assert losses._bnm(mat, False)[0].tobytes() == value.tobytes()

    @pytest.mark.parametrize("n_cols", [2, 3])
    @pytest.mark.parametrize("case", ["overflow", "nan"])
    def test_a_pair_with_a_nan_threshold_is_skipped_alike(self, monkeypatch, n_cols, case):
        # overflow: column 0's squared norm is inf and column 1's underflows to 0, so the
        # threshold of their pair is sqrt(inf * 0) = NaN; nan: a NaN entry makes the norms,
        # the floor and the inner products NaN.  No pair is rotated either way.
        turned = []
        lone_round = losses._rotate_lone_round
        monkeypatch.setattr(losses, "_rotate_lone_round", lambda *a: turned.append(lone_round(*a)) or turned[-1])
        mat = np.array([[1e300, 1e-200, 0.5], [1e300, 0.0, 0.25], [1e300, 0.0, 0.125], [1e300, 0.0, 1.0]])[:, :n_cols]
        if case == "nan":
            mat[0, 0] = math.nan
        with np.errstate(over="ignore", invalid="ignore"):
            alone = mat.copy()
            rots, sweeps = losses._jacobi_orthogonalize(alone, max_sweeps=100 * n_cols)
            pair = np.stack([mat, mat])
            pair_rots, pair_sweeps = losses._jacobi_orthogonalize(pair, max_sweeps=100 * n_cols)
        assert turned == [False] * len(losses._round_robin(n_cols)) and sweeps == pair_sweeps == 1
        assert rots.tobytes() == pair_rots[0].tobytes() == np.eye(n_cols).tobytes()
        assert alone.tobytes() == pair[0].tobytes() == mat.tobytes()

    def test_threads_each_get_their_own_bits(self, rng):
        # the scratch arrays of a call are its own: four threads, more than the cores of a small
        # host, decompose matrices of different shapes at once with a short switch interval
        mats = [random_matrix(rng, *shape) for shape in ((30, 3), (10, 3), (60, 2), (2, 3))]
        want = [losses._bnm(mat, True) for mat in mats]
        got = [[] for _ in mats]
        barrier = threading.Barrier(len(mats))

        def work(k):
            barrier.wait(timeout=10)
            for _ in range(150):
                got[k].append(losses._bnm(mats[k], True))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(mats))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results, (value, grad, exact) in zip(got, want):
            assert len(results) == 150
            for got_value, got_grad, got_exact in results:
                assert got_value.tobytes() == value.tobytes() and got_grad.tobytes() == grad.tobytes()
                assert got_exact is exact


class TestNuclearNorm:
    def test_golden_values(self):
        assert abs(nuclear_norm(P1) - 2.0) <= 1e-9
        assert abs(nuclear_norm(P2) - (1 + math.sqrt(3))) <= 1e-9
        assert abs(nuclear_norm(P3) - 2 * math.sqrt(2)) <= 1e-9

    def test_p2_partial_sums(self):
        _, s, _ = svd(P2)
        assert abs(s.sum() - 2.7321) <= 5e-5

    def test_one_hot_closed_form(self):
        for n_rows, n_cols in [(1, 2), (3, 2), (4, 3), (5, 2), (6, 4)]:
            for mat in _one_hot_label_stack(n_rows, n_cols, DEFAULT_ENUM_BUDGET)[0]:
                expect = np.sqrt(class_sizes(mat)).sum()
                assert abs(nuclear_norm(mat) - expect) <= 1e-9


class TestMs:
    def test_one_hot_is_minus_one(self):
        for mat in (P1, P2, P3, np.eye(2)):
            assert ms(np.asarray(mat, dtype=float)) == -1.0

    def test_uniform(self):
        assert abs(ms(np.full((5, 4), 0.25)) - (-0.25)) <= 1e-15

    def test_direct_sum(self):
        assert abs(ms(np.array([[0.5, 0.5], [0.3, 0.7]])) - (-0.54)) <= 1e-15


class TestBnm:
    def test_examples(self):
        assert abs(bnm(P1) - (-0.5)) <= 1e-9
        assert abs(bnm(P3) - (-math.sqrt(2) / 2)) <= 1e-9
        assert abs(bnm(np.eye(2)) - (-1.0)) <= 1e-12


def _bnm_reference(P):
    """Per-matrix bnm gradient from the full SVD, and its exact rule."""
    u, s, v = svd(P)
    grad = -(u @ v.T) / P.shape[0]
    gaps_ok = bool(np.all(-np.diff(s) > losses.SV_DISTINCT_GAP))
    return grad, gaps_ok and bool(s[-1] > losses.SV_ZERO_TOL)


def _bnm_stacks():
    rng = np.random.default_rng(11)
    rank_deficient = [_duplicate_columns, _zero_column, _one_hot_empty_class]
    near_singular = [_near_duplicate_column, _near_duplicate_row, _scaled_column]
    stacks = {
        f"{kind} {b}x{c}": np.stack([random_matrix(rng, b, c) for _ in range(6)]
                                    + [make(rng, b, c) for make in rank_deficient + near_singular])
        for kind, b, c in [("wide", 3, 7), ("wide", 5, 12), ("square", 4, 4), ("square", 6, 6),
                           ("tall", 9, 5), ("householder", 10, 5), ("householder", 40, 8)]
    }
    stacks["eye(2)"] = np.eye(2)[None]
    stacks["full((4, 2), 0.5)"] = np.full((1, 4, 2), 0.5)
    stacks["one-hot rows 3x2"] = _one_hot_label_stack(3, 2, DEFAULT_ENUM_BUDGET)[0]
    stacks["one-hot rows 4x3"] = _one_hot_label_stack(4, 3, DEFAULT_ENUM_BUDGET)[0]
    # more entries than _CHUNK_FLOATS, with rank-deficient matrices in every chunk
    big = np.stack([random_matrix(rng, 12, 6) for _ in range(1200)])
    big[::97] = _zero_column(rng, 12, 6)
    big[5::101] = np.eye(6)[np.arange(12) % 6]
    stacks["chunked 1200x12x6"] = big
    return stacks


BNM_STACKS = _bnm_stacks()


class TestBnmKernel:
    @pytest.mark.parametrize("name", list(BNM_STACKS))
    def test_matches_per_matrix_svd(self, name):
        stack = BNM_STACKS[name]
        n_rows = stack.shape[1]
        values, grads, exact = losses._bnm(stack, True)
        assert np.array_equal(values, -losses._singular_values_stack(stack).sum(axis=1) / n_rows)
        assert np.array_equal(losses._bnm(stack, False)[0], values)
        assert grads.shape == stack.shape and exact.shape == (stack.shape[0],)
        picks = range(len(stack))
        if name == "chunked 1200x12x6":
            assert stack.size > losses._CHUNK_FLOATS
            # every inexact matrix, plus every 25th, keeps the reference loop short
            picks = sorted(set(np.flatnonzero(~exact)) | set(range(0, len(stack), 25)))
            assert len(picks) < len(stack) and np.flatnonzero(~exact).max() > len(stack) // 2
        for idx in picks:
            ref_grad, ref_exact = _bnm_reference(stack[idx])
            assert np.max(np.abs(grads[idx] - ref_grad)) <= 1e-12 * max(1.0, np.abs(ref_grad).max())
            assert exact[idx] == ref_exact

    def test_stacks_hold_near_singular_exact_matrices(self):
        # U = A V / sigma alone is off by about eps * sigma_0 / sigma_min here;
        # the reference orthonormalizes U, so these matrices check that the
        # kernel does too
        for name, stack in BNM_STACKS.items():
            if name.split()[0] in ("wide", "square", "tall", "householder"):
                smallest = losses._singular_values_stack(stack[-3:])[:, -1]
                near = (smallest > losses.SV_ZERO_TOL) & (smallest < 1e-7)
                assert (near & losses._bnm(stack[-3:], True)[2]).any(), name

    def test_exact_gradient_is_lapack_polar_factor(self):
        rng = np.random.default_rng(3)
        for shape in ((3, 7), (4, 4), (9, 5), (40, 8)):
            stack = np.stack([random_matrix(rng, *shape) for _ in range(5)])
            _, grads, exact = losses._bnm(stack, True)
            assert exact.all()
            for mat, grad in zip(stack, grads):
                u, _, vt = np.linalg.svd(mat, full_matrices=False)
                assert np.max(np.abs(grad + u @ vt / shape[0])) <= 1e-10

    def test_public_functions_share_the_kernel(self):
        mat = np.asarray(EXAMPLES_4X2["P2"])
        values, grads, exact = losses._bnm(mat[None], True)
        out = losses.gradient(mat, LossConfig("bnm"))
        assert out.value == values[0] == bnm(mat) == loss_value(mat, LossConfig("bnm"))
        assert np.array_equal(out.grad, grads[0]) and out.exact == exact[0]
        stack_values, stack_grads = losses._loss_grads_stack("bnm", mat[None], 0.5, 1.0, 0.0)
        assert np.array_equal(stack_values, values) and np.array_equal(stack_grads, grads)

    @pytest.mark.parametrize(
        "shape", [(30, 3), (100, 3), (3, 30), (6, 6), (40, 6), (30, 10)], ids=lambda s: "%dx%d" % s
    )
    @pytest.mark.parametrize("make", [random_matrix, _zero_column, _rank_one, _duplicate_columns])
    def test_matrix_matches_row_of_a_stack_bit_for_bit(self, rng, monkeypatch, shape, make):
        # a single matrix goes through the chain as 2-D arrays, a stack as
        # 3-D ones; 40x6 and 30x10 take the Householder reduction, 30x10
        # then Jacobi rounds of five pairs
        householder = []
        householder_r = losses._householder_r
        monkeypatch.setattr(losses, "_householder_r", lambda a: householder.append(a.ndim) or householder_r(a))
        mat = make(rng, *shape)
        stack = np.stack([mat, random_matrix(rng, *shape)])
        values, grads, exact = losses._bnm(stack, True)
        stack_values = losses._bnm(stack, False)[0]
        out = losses.gradient(mat, LossConfig("bnm"))
        assert np.float64(bnm(mat)).tobytes() == stack_values[0].tobytes()
        assert np.float64(loss_value(mat, LossConfig("bnm"))).tobytes() == stack_values[0].tobytes()
        assert np.float64(out.value).tobytes() == values[0].tobytes()
        assert out.grad.shape == shape and out.grad.tobytes() == grads[0].tobytes()
        assert out.exact is bool(exact[0])
        assert householder == ([3, 3, 2, 2, 2] if shape in ((40, 6), (30, 10)) else [])


class TestCws:
    def test_golden_values(self):
        assert abs(cws(P1, 0.5) - 1.0) <= 1e-9
        assert abs(cws(P2, 0.5) - (1 + math.sqrt(3)) / 2) <= 1e-9
        assert abs(cws(P3, 0.5) - math.sqrt(2)) <= 1e-9

    def test_uniform_closed_form(self, rng):
        # uniform matrix value is rows^(1-r) * cols^(r-2)
        assert abs(cws(np.full((4, 2), 0.5), 0.5) - 4**0.5 * 2**-1.5) <= 1e-12
        for _ in range(10):
            n_rows = int(rng.integers(1, 9))
            n_cols = int(rng.integers(2, 7))
            r = float(rng.uniform(0, 1))
            got = cws(np.full((n_rows, n_cols), 1 / n_cols), r)
            assert abs(got - n_rows ** (1 - r) * n_cols ** (r - 2)) <= 1e-12

    def test_r_zero_is_scaled_squares(self, rng):
        for _ in range(25):
            mat = random_matrix(rng, int(rng.integers(1, 8)), int(rng.integers(2, 6)))
            assert abs(cws(mat, 0.0) - (mat**2).sum() / mat.shape[1]) <= 1e-12

    def test_zero_mass_class_contributes_nothing(self):
        mat = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for r in (0.0, 0.3, 1.0):
            expect = (2 ** (1 - r) + 1) / 3
            assert abs(cws(mat, r) - expect) <= 1e-12

    def test_kernel_bits_match_masked_formula(self, rng):
        # the kernel skips the empty-class masks in its value and gradient
        # halves when every class has mass, and cws hands it a matrix rather
        # than a stack; every route must give the bits of the masked ufuncs on
        # the stack, for a stack with empty classes, one without, and each of
        # their matrices alone
        def masked(stack, r):
            size = stack.sum(axis=1)
            pos = size > 0.0
            pow_r = np.power(size, r, where=pos, out=np.ones_like(size))
            terms = np.zeros_like(size)
            np.divide(np.einsum("nbc,nbc->nc", stack, stack), pow_r, where=pos, out=terms)
            coef_const = np.zeros_like(size)
            np.divide(r * terms, size, where=pos, out=coef_const)
            grads = 2.0 * stack * np.where(pos, 1.0 / pow_r, 0.0)[:, None, :] - coef_const[:, None, :]
            return -terms.sum(axis=1) / stack.shape[2], -grads / stack.shape[2]

        stacks = [np.stack([P1, P2, P3]), np.eye(3)[[[0, 0, 1], [2, 2, 2]]], np.zeros((1, 0, 3))]
        for n_rows, n_cols in ((1, 1), (3, 5), (40, 3), (256, 32)):
            stacks.append(random_matrix(rng, n_rows, n_cols)[None])
            stacks.append(rng.random((2, n_rows, n_cols)) * 10.0 ** rng.uniform(-6, 6))
        stacks.append(np.asfortranarray(random_matrix(rng, 30, 5))[None])
        # one matrix with an empty class (a -0.0 column) and one without, stacked
        mixed = rng.dirichlet(np.ones(4), size=(2, 6))
        mixed[1, :, 2] = -0.0
        stacks.append(mixed / mixed.sum(axis=2, keepdims=True))
        for stack in stacks:
            for r in (0.0, 0.3, 0.5, 1.0):
                values, grads = losses._cwsm(stack, r, True)
                expect_values, expect_grads = masked(stack, r)
                assert values.tobytes() == expect_values.tobytes(), (stack.shape, r)
                assert grads.tobytes() == expect_grads.tobytes(), (stack.shape, r)
                for idx, mat in enumerate(stack):
                    value, grad = losses._cwsm(mat, r, True)
                    assert value.tobytes() == expect_values[idx].tobytes(), (stack.shape, r, idx)
                    assert grad.tobytes() == expect_grads[idx].tobytes(), (stack.shape, r, idx)
                    assert cws(mat, r) == -float(expect_values[idx])

    def test_r_range(self):
        with pytest.raises(ValueError):
            cws(P1, 1.5)


class TestNs:
    def test_golden_values(self):
        assert abs(ns(P1, 1, 1, 0) - 0.25) <= 1e-9
        assert abs(ns(P2, 1, 1, 0) - 0.4) <= 1e-9
        assert abs(ns(P3, 1, 1, 0) - 0.5) <= 1e-9

    def test_distinct_one_hot_attains_bound(self):
        mat = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
        assert abs(ns(mat, 0.5, 1.0, 1e-6) - 1.000002) <= 1e-12

    def test_r1_class_size_identity(self, rng):
        # at r=1, alpha=1, eps=0 the value is squares / sum of squared sizes
        for _ in range(1000):
            mat = random_matrix(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
            sizes = class_sizes(mat)
            expect = (mat**2).sum() / (sizes**2).sum()
            assert abs(ns(mat, 1, 1, 0) - expect) <= 1e-12

    def test_r1_rewrite_any_alpha(self, rng):
        for _ in range(50):
            mat = random_matrix(rng, 5, 3)
            alpha = float(rng.uniform(0.5, 3))
            sq = (mat**2).sum()
            expect = sq / ((class_sizes(mat) ** 2).sum() + (alpha - 1) * sq)
            assert abs(ns(mat, 1, alpha, 0) - expect) <= 1e-12

    def test_r0_orders_like_squares(self, rng):
        # with every pairwise overlap positive, r=0 is monotone in the
        # squared-confidence total at fixed shape
        cfg_pairs = []
        for _ in range(200):
            a = random_matrix(rng, 4, 3) * 0.98 + 0.02 / 3
            b = random_matrix(rng, 4, 3) * 0.98 + 0.02 / 3
            cfg_pairs.append((a, b))
        for a, b in cfg_pairs:
            va, vb = ns(a, 0, 1, 0), ns(b, 0, 1, 0)
            if (a**2).sum() > (b**2).sum():
                assert va > vb
            elif (a**2).sum() < (b**2).sum():
                assert va < vb

    def test_kernel_on_matrix_matches_one_matrix_stack(self, rng):
        # ns hands the kernel its matrix; a stack of that one matrix gives the same bits
        def outcome(mat, r, alpha, epsilon):
            try:
                values, grads = losses._nsm(mat, r, alpha, epsilon, True)
            except ZeroDivisionError as exc:
                return str(exc)
            return values.tobytes(), grads.tobytes()

        mats = [P1, P2, np.array([[1, 0, 0], [0, 1, 0]], dtype=float), np.zeros((0, 3))]
        mats += [random_matrix(rng, n_rows, 4) for n_rows in (1, 7, 300)]  # 300 rows: several blocks
        mats.append(np.asfortranarray(random_matrix(rng, 20, 5)))
        for mat in mats:
            for r, alpha, epsilon in ((1.0, 1.0, 0.0), (0.5, 1.0, 1e-6), (0.3, 2.0, 0.25), (0.0, 0.0, 0.0)):
                assert outcome(mat, r, alpha, epsilon) == outcome(mat[None], r, alpha, epsilon), (mat.shape, r)
                if isinstance(outcome(mat, r, alpha, epsilon), tuple):
                    expect = -losses._nsm(mat[None], r, alpha, epsilon, False)[0][0]
                    assert ns(mat, r, alpha, epsilon) == float(expect)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    @pytest.mark.parametrize("r", [0.3, 0.5, 1.0])
    def test_no_rows_raise_the_denominator_error(self, shape, r):
        # every r reaches the kernel's own check, values and gradients alike
        empty = np.zeros(shape)
        calls = [lambda want=want: losses._nsm(empty, r, 1.0, 0.0, want) for want in (False, True)]
        if empty.ndim == 2:
            calls += [lambda: ns(empty, r, 1.0, 0.0), lambda: losses.gradient(empty, LossConfig("nsm", r=r))]
        for call in calls:
            with pytest.raises(ZeroDivisionError, match=r"^normalized-squares denominator 0\.0 below 1e-15$"):
                call()

    @pytest.mark.parametrize(
        "alpha, epsilon, field",
        [
            (math.nan, 0.0, "alpha"),
            (math.inf, 0.0, "alpha"),
            (-1.0, 0.0, "alpha"),
            (0.0, 0.0, "alpha"),  # ill-posed at r > 0
            (1.0, math.nan, "epsilon"),
            (1.0, math.inf, "epsilon"),
            (1.0, -5.0, "epsilon"),
        ],
    )
    def test_bad_alpha_or_epsilon_names_the_field(self, alpha, epsilon, field):
        # LossConfig's checks, the ones the command line applies
        with pytest.raises(ValueError, match=field):
            ns(P1, 0.5, alpha, epsilon)

    def test_denominator_guard(self):
        mat = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(ZeroDivisionError):
            ns(mat, 0.0, 0.0, 0.0)

    def test_pair_convention_blocked_path_consistent(self, rng):
        # large-B blocked evaluation equals the naive formula
        for n_rows in (3, 50, 300):
            mat = random_matrix(rng, n_rows, 8)
            overlap = mat @ mat.T
            np.fill_diagonal(overlap, 0.0)
            for r in (0.0, 0.25, 1.0):
                pair = (overlap > 0).sum() if r == 0.0 else (overlap**r).sum()
                sq = (mat**2).sum()
                expect = sq / (pair + sq) + 1e-6 * sq
                assert abs(ns(mat, r, 1.0, 1e-6) - expect) <= 1e-12


def _nsm_reference(stack, r, alpha, epsilon, want_grad):
    """The fractional-r nsm kernel before sqrt at r = 1/2, the unmasked power, the in-place
    gradient rows and the groups of a stack's matrices: the byte reference for losses._nsm.
    It takes each block's diagonal as a strided view, as the kernel does, so a stack row
    has a lone matrix's bits."""
    n_rows = stack.shape[-2]
    squares = losses._squares_stack(stack)
    block = max(1, min(n_rows, 65536 // n_rows))
    pair_sum = np.zeros(stack.shape[:-2])
    d_pair = np.zeros_like(stack) if want_grad else None
    rows = np.arange(n_rows)
    trans = stack.swapaxes(-1, -2)
    for start in range(0, n_rows, block):
        overlap = np.matmul(stack[..., start : start + block, :], trans)
        np.maximum(overlap, 0.0, out=overlap)
        span = rows[start : start + block]
        diag = (..., span - start, span)
        if want_grad and r > 0.0:
            weights = np.zeros_like(overlap)
            np.power(overlap, r - 1.0, where=overlap > losses._PAIR_GRAD_FLOOR, out=weights)
            weights[diag] = 0.0
            d_pair[..., start : start + block, :] = 2.0 * r * np.matmul(weights, stack)
        if r == 0.0:
            overlap = overlap > 0.0
        else:
            # numpy's in-place power takes sqrt at r = 0.5, so the reference has the same bits on every host
            overlap **= r
        pair_sum += overlap.sum(axis=(-2, -1))
        pair_sum -= overlap.diagonal(start, -2, -1).sum(axis=-1)
    denom = pair_sum + alpha * squares
    if np.any(denom < losses._DENOM_TOL):
        raise ZeroDivisionError(
            f"normalized-squares denominator {float(denom.min())!r} below {losses._DENOM_TOL}"
        )
    values = squares / denom + epsilon * squares
    if d_pair is None:
        return -values, None
    d_squares = 2.0 * stack
    d_denom = d_pair + alpha * d_squares
    grads = (
        d_squares * denom[..., None, None] - squares[..., None, None] * d_denom
    ) / (denom * denom)[..., None, None] + epsilon * d_squares
    return -values, -grads


def _disjoint_tail(rng, n_rows, n_tail):
    """Dense 3-class rows, then n_tail rows alternating between supports {0} and {1, 2}."""
    mat = random_matrix(rng, n_rows, 3) * 0.9 + 0.1 / 3
    mat[n_rows - n_tail :: 2] = [1.0, 0.0, 0.0]
    mat[n_rows - n_tail + 1 :: 2] = [0.0, 0.25, 0.75]
    assert (mat[-2:] @ mat.T).min() == 0.0  # zero overlaps: the tail's blocks take the masked path
    return mat


class TestNsmPairPass:
    """losses._nsm against the reference loop, byte for byte, values and gradients."""

    @staticmethod
    def _outcome(kernel, stack, r, alpha, epsilon, want_grad):
        try:
            values, grads = kernel(stack, r, alpha, epsilon, want_grad)
        except ZeroDivisionError as exc:
            return str(exc)
        return values.shape, values.tobytes(), None if grads is None else (grads.shape, grads.tobytes())

    @staticmethod
    def _cases(rng):
        tiny = np.array([[1.0 - 1e-170, 1e-170, 0.0], [0.0, 1e-140, 1.0 - 1e-140], [0.2, 0.3, 0.5]])
        return {
            "single block 30x3": random_matrix(rng, 30, 3),
            "single block 7x5": random_matrix(rng, 7, 5),
            "two blocks 300x4": random_matrix(rng, 300, 4),
            "fortran-ordered 300x4": np.asfortranarray(random_matrix(rng, 300, 4)),
            "partial last block 1100x3": random_matrix(rng, 1100, 3),
            "stack 4x40x5": rng.dirichlet(np.ones(5), size=(4, 40)),
            "stack 3x300x4": rng.dirichlet(np.ones(4), size=(3, 300)),
            "disjoint one-hot 6x6": np.eye(6),
            "disjoint tail 600x3": _disjoint_tail(rng, 600, 120),
            "disjoint tail stack 2x600x3": np.stack([_disjoint_tail(rng, 600, 120), random_matrix(rng, 600, 3)]),
            "overlaps at and below the floor": tiny,
            "empty stack 0x5x3": np.zeros((0, 5, 3)),
            "one row": random_matrix(rng, 1, 4),
        }

    @pytest.mark.parametrize("want_grad", [True, False])
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.9])
    def test_same_bytes_as_the_reference_loop(self, rng, r, want_grad):
        for name, stack in self._cases(rng).items():
            for alpha, epsilon in ((1.0, 1e-6), (2.0, 0.25), (0.0, 0.0)):
                got = self._outcome(losses._nsm, stack, r, alpha, epsilon, want_grad)
                expect = self._outcome(_nsm_reference, stack, r, alpha, epsilon, want_grad)
                assert got == expect, (name, r, alpha, epsilon, want_grad)


def _disjoint_rows(rng, n_rows, n_cols):
    """Flat Dirichlet rows, then 64 rows alternating between supports {0} and the other classes."""
    mat = random_matrix(rng, n_rows, n_cols)
    mat[-64::2] = np.eye(n_cols)[0]
    mat[-63::2] = np.r_[0.0, np.full(n_cols - 1, 1.0 / (n_cols - 1))]
    assert (mat[-2:] @ mat.T).min() == 0.0  # the tail's blocks take the masked power, the others the plain one
    return mat


def _no_executor(*args, **kwargs):
    raise AssertionError("worker threads were started")


def _nsm_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("equimax-nsm")]


def _fork_child_digest(mat, conn):
    conn.send(hashlib.sha256(losses.gradient(mat, LossConfig("nsm", r=0.5)).grad.tobytes()).hexdigest())


class TestNsmSplitPass:
    """A pair pass above _SPLIT_OVERLAPS overlaps, dealt to the calling thread and worker threads."""

    @pytest.mark.parametrize(
        "shape", [(1025, 2), (1025, 10), (1500, 2), (1500, 10), (4096, 2), (4096, 10), (2, 1500, 3)], ids=str
    )
    def test_same_bytes_at_any_cpu_count(self, rng, monkeypatch, shape):
        stack = np.stack([_disjoint_rows(rng, *shape[1:]) for _ in range(shape[0])]) if len(shape) == 3 else _disjoint_rows(rng, *shape)
        lanes = []
        dealt = losses._dealt
        monkeypatch.setattr(losses, "_dealt", lambda task, starts, n: lanes.append(n) or dealt(task, starts, n))
        for r in (0.0, 0.3, 0.5, 0.9):
            for want_grad in (False, True):
                got = set()
                for cpus in (1, 2, 3):
                    monkeypatch.setattr(losses, "_CPUS", cpus)
                    values, grads = losses._nsm(stack, r, 1.0, 1e-6, want_grad)
                    got.add((values.tobytes(), None if grads is None else grads.tobytes()))
                assert len(got) == 1, (shape, r, want_grad)
        assert set(lanes) == {1, 2, 3}

    def test_small_passes_stay_on_the_calling_thread(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 4)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_executor)
        shapes = [(30, 3), (256, 32), (512, 32), (1024, 32), (64, 6, 6)]
        for shape in shapes:
            stack = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            for r in (0.0, 0.5, 0.9):
                for want_grad in (False, True):
                    losses._nsm(stack, r, 1.0, 1e-6, want_grad)
        with pytest.raises(AssertionError, match="worker threads were started"):  # one row more is split
            losses._nsm(random_matrix(rng, 1025, 3), 0.5, 1.0, 0.0, False)

    def test_one_cpu_makes_no_pool(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _no_executor)
        losses.gradient(random_matrix(rng, 1500, 3), LossConfig("nsm", r=0.5))

    def test_no_worker_outlives_the_call(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 2)
        names = set()
        blocks = losses._pair_blocks
        monkeypatch.setattr(
            losses, "_pair_blocks", lambda *args: names.add(threading.current_thread().name) or blocks(*args)
        )
        losses.gradient(random_matrix(rng, 1500, 3), LossConfig("nsm", r=0.5))
        assert any(name.startswith("equimax-nsm") for name in names)  # a worker ran blocks
        assert _nsm_threads() == []

    def test_workers_run_in_the_callers_errstate(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 2)
        caller, seen = threading.get_ident(), []
        blocks = losses._pair_blocks
        monkeypatch.setattr(
            losses, "_pair_blocks", lambda *args: seen.append((threading.get_ident(), np.geterr())) or blocks(*args)
        )
        with np.errstate(all="raise"):
            ns(random_matrix(rng, 1500, 3), 0.5, 1.0, 0.0)
        assert {ident == caller for ident, _ in seen} == {True, False}
        assert all(set(err.values()) == {"raise"} for _, err in seen)

    def test_worker_exception_reaches_the_caller(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 2)
        caller = threading.get_ident()
        blocks = losses._pair_blocks

        def failing(*args):
            if threading.get_ident() != caller:
                raise RuntimeError("worker block failed")
            return blocks(*args)

        monkeypatch.setattr(losses, "_pair_blocks", failing)
        mat = random_matrix(rng, 1500, 3)
        with pytest.raises(RuntimeError, match="worker block failed"):
            ns(mat, 0.5, 1.0, 0.0)
        with pytest.raises(RuntimeError, match="worker block failed"):
            losses.gradient(mat, LossConfig("nsm", r=0.3))
        assert _nsm_threads() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
    def test_fork_child_gets_the_parents_bytes(self, rng, monkeypatch):
        monkeypatch.setattr(losses, "_CPUS", 2)
        mat = random_matrix(rng, 1500, 6)
        expect = hashlib.sha256(losses.gradient(mat, LossConfig("nsm", r=0.5)).grad.tobytes()).hexdigest()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        with recv, send:
            child = ctx.Process(target=_fork_child_digest, args=(mat, send))
            child.start()
            child.join(10)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join(10)
            assert not hung, "the fork child did not finish its gradient within 10 s"
            assert child.exitcode == 0
            assert recv.poll(0) and recv.recv() == expect


def _softmax_stack(rng, n_mats, n_rows, n_cols):
    """Softmax rows of scaled Gaussian logits, as a trained classifier's predictions."""
    logits = 3.0 * rng.standard_normal((n_mats, n_rows, n_cols))
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


class TestStackRowsMatchLoneCalls:
    """Each row of a stack gets a lone matrix's bits from every kernel, values and gradients."""

    @staticmethod
    def _stacks(rng):
        many = rng.dirichlet(np.ones(3), size=(200, 12))
        assert 200 * 12 * 12 > 3 * losses._PAIR_TILE  # the nsm pair pass runs it in several groups
        return {
            # toyuda's epoch matrices: the fancy-indexed nsm diagonal of a stack gave them other bits
            "softmax 40x100x3": _softmax_stack(rng, 40, 100, 3),
            "one block 6x30x3": rng.dirichlet(np.ones(3), size=(6, 30)),
            "two blocks 3x300x4": rng.dirichlet(np.ones(4), size=(3, 300)),
            "disjoint tail 2x600x3": np.stack([_disjoint_tail(rng, 600, 120), random_matrix(rng, 600, 3)]),
            "groups 200x12x3": many,
        }

    @pytest.mark.parametrize(
        "kind, r", [("ms", 0.5), ("bnm", 0.5)] + [(kind, r) for kind in ("cwsm", "nsm") for r in (0.0, 0.3, 0.5, 1.0)]
    )
    def test_same_bytes_as_lone_calls(self, rng, kind, r):
        for name, stack in self._stacks(rng).items():
            for want_grad in (False, True):
                values, grads, flags = losses._loss_stack(kind, stack, r, 1.0, 1e-6, want_grad)
                for idx, mat in enumerate(stack):
                    value, grad, flag = losses._loss_stack(kind, mat, r, 1.0, 1e-6, want_grad)
                    assert values[idx].tobytes() == value.tobytes(), (name, idx, want_grad)
                    if want_grad:
                        assert grads[idx].tobytes() == grad.tobytes(), (name, idx)
                        assert np.broadcast_to(flags, values.shape)[idx] == flag, (name, idx)

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_gradient_exact_is_the_dispatchers_flag(self, rng, kind):
        cfg = LossConfig(kind)
        for make in (random_matrix, _rank_one, _duplicate_columns):
            mat = make(rng, 5, 3)
            flag = losses._loss_stack(kind, mat, cfg.r, cfg.alpha, cfg.resolved_epsilon(5, 3), True)[2]
            assert losses.gradient(mat, cfg).exact is flag, make.__name__
            # only bnm's rank-deficient matrices get a subgradient
            assert flag is (kind != "bnm" or make is random_matrix), make.__name__


class TestValuesWithoutGradients:
    """A kernel's values have the same bits whether or not it also returns gradients.

    The ascent scores a step's first candidates together with their
    gradients and compares those values with ones scored without.
    """

    @staticmethod
    def _matrices(rng):
        for n_rows, n_cols in ((1, 2), (2, 2), (3, 4), (6, 5), (12, 10), (40, 3)):
            hot = np.eye(n_cols)[rng.integers(0, n_cols, (2, n_rows))]
            yield random_matrix(rng, n_rows, n_cols)
            yield hot[0]
            yield np.where(hot[1] == 1.0, 1.0, -0.0)
            yield _zero_column(rng, n_rows, n_cols)
            yield _rank_one(rng, n_rows, n_cols)
            yield _duplicate_columns(rng, n_rows, n_cols)

    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_same_value_bytes(self, rng, kind, r):
        mats = list(self._matrices(rng))
        stacks = [np.stack(mats[first : first + 6]) for first in range(0, len(mats), 6)]
        stacks.append(rng.dirichlet(np.full(4, 0.2), size=(300, 7)))
        for arr in mats + stacks:
            alone = losses._loss_stack(kind, arr, r, 1.0, 1e-6, False)[0]
            with_grads = losses._loss_stack(kind, arr, r, 1.0, 1e-6, True)[0]
            assert alone.tobytes() == with_grads.tobytes(), (kind, r, arr.shape)


class TestMetrics:
    def test_discriminability(self):
        assert discriminability(P3) == 1.0
        assert abs(discriminability(np.full((3, 4), 0.25)) - 0.25) <= 1e-15
        assert abs(discriminability(np.array([[0.5, 0.5], [1.0, 0.0]])) - 0.75) <= 1e-15

    def test_discriminability_bounds(self, rng):
        for _ in range(50):
            n_cols = int(rng.integers(2, 6))
            mat = random_matrix(rng, int(rng.integers(1, 8)), n_cols)
            val = discriminability(mat)
            assert 1 / n_cols - 1e-12 <= val <= 1.0 + 1e-12

    def test_equity_examples(self):
        assert equity_metric(P3) == 1.0
        assert abs(equity_metric(P2) - 0.5) <= 1e-12
        assert abs(equity_metric(P1) - 0.0) <= 1e-12

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1d", "3d"])
    def test_metrics_reject_non_2d(self, shape):
        for metric in (equity_metric, discriminability):
            with pytest.raises(ValueError, match="^expected a 2-D prediction matrix$"):
                metric(np.full(shape, 0.5))

    def test_equity_one_iff_balanced(self, rng):
        assert equity_metric(np.full((6, 3), 1 / 3)) == 1.0
        for _ in range(30):
            mat = random_matrix(rng, 5, 3)
            val = equity_metric(mat)
            assert val <= 1.0 + 1e-12
            balanced = np.allclose(class_sizes(mat), 5 / 3, atol=1e-12)
            assert (abs(val - 1.0) < 1e-12) == balanced


class TestLossValue:
    def test_dispatch(self):
        assert loss_value(P1, LossConfig("ms")) == -1.0
        assert abs(loss_value(P3, LossConfig("cwsm", r=0.5)) - (-math.sqrt(2))) <= 1e-9
        assert abs(loss_value(P3, LossConfig("nsm", r=1, alpha=1, epsilon=0)) - (-0.5)) <= 1e-9
        assert abs(loss_value(P1, LossConfig("bnm")) - (-0.5)) <= 1e-9

    def test_auto_epsilon_used(self):
        tall = np.array([[1, 0], [0, 1], [1, 0]], dtype=float)  # rows > cols: eps 0
        wide = np.array([[1, 0, 0], [0, 1, 0]], dtype=float)  # rows <= cols: eps 1e-6
        cfg = LossConfig("nsm", r=0.5)
        assert loss_value(tall, cfg) == -ns(tall, 0.5, 1.0, 0.0)
        assert loss_value(wide, cfg) == -ns(wide, 0.5, 1.0, 1e-6)
        # ns resolves "auto" the same way
        assert ns(tall, 0.5, 1, "auto") == ns(tall, 0.5, 1, 0.0)
        assert ns(wide, 0.5, 1, "auto") == ns(wide, 0.5, 1, 1e-6) != ns(wide, 0.5, 1, 0.0)


class TestPermutationSymmetry:
    def test_row_and_column_permutations(self, rng):
        cfgs = [
            LossConfig("ms"),
            LossConfig("bnm"),
            LossConfig("cwsm", r=0.5),
            LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6),
            LossConfig("nsm", r=1.0, alpha=2.0, epsilon=0.0),
        ]
        for _ in range(20):
            mat = random_matrix(rng, 5, 4)
            rows = rng.permutation(5)
            cols = rng.permutation(4)
            for cfg in cfgs:
                base = loss_value(mat, cfg)
                assert abs(loss_value(mat[rows], cfg) - base) <= 1e-12
                assert abs(loss_value(mat[:, cols], cfg) - base) <= 1e-12

    def test_row_permutation_permutes_gradient(self, rng):
        for cfg in (LossConfig("ms"), LossConfig("cwsm", r=0.5), LossConfig("nsm", r=0.5)):
            from equimax.losses import gradient

            mat = random_matrix(rng, 5, 3)
            rows = rng.permutation(5)
            assert np.allclose(gradient(mat[rows], cfg).grad, gradient(mat, cfg).grad[rows], atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no rows", "no columns"])
@pytest.mark.parametrize("kind", ["ms", "bnm", "cwsm", "nsm", "nuclear_norm"])
def test_empty_matrices_follow_one_rule(kind, shape):
    # a loss raises ZeroDivisionError naming what it divides by exactly when
    # that is 0 (B for ms and bnm, C for cwsm, the denominator for nsm) and
    # has a value otherwise; a matrix without column pairs needs no sweep and
    # has no singular values; no warning escapes
    P = np.zeros(shape)
    if kind == "nuclear_norm":
        assert nuclear_norm(P) == 0.0 and losses._singular_values_stack(P).shape == (0,)
        return
    value = {"ms": ms, "bnm": bnm, "cwsm": lambda P: -cws(P, 0.5), "nsm": lambda P: -ns(P, 0.5, 1.0, 0.0)}[kind]
    cfg = LossConfig(kind)
    divisor = {"ms": "B", "bnm": "B", "cwsm": "C"}.get(kind)
    if kind == "nsm":
        error = r"^normalized-squares denominator 0\.0 below 1e-15$"
    elif shape["BC".index(divisor)] == 0:
        error = f"^{kind} divides by {divisor} = 0$"
    else:
        assert value(P) == loss_value(P, cfg) == 0.0
        out = losses.gradient(P, cfg)
        assert out.value == 0.0 and out.grad.shape == shape and out.exact is True
        return
    for call in (lambda: value(P), lambda: loss_value(P, cfg), lambda: losses.gradient(P, cfg)):
        with pytest.raises(ZeroDivisionError, match=error):
            call()


def test_convergence_error_is_reported():
    # the sweep cap is honored (tiny cap forces the failure path), on the
    # Python-float rounds of lone matrices and on the vectorised rounds of a stack
    from equimax.losses import _jacobi_orthogonalize

    rng = np.random.default_rng(0)
    for shape in ((1, 6, 6), (1, 8, 3), (2, 6, 6)):
        mats = rng.random(shape)
        with pytest.raises(ConvergenceError, match="1 sweeps"):
            _jacobi_orthogonalize(mats, max_sweeps=1)
