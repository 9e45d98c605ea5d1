import io
import json
import math

import numpy as np
import pytest

from equimax import optimizer
from equimax.losses import LOSS_KINDS, LossConfig, _loss_values_stack, loss_value
from equimax.optimizer import (
    RETIRE_REASONS,
    AscentConfig,
    SurfaceGrid,
    gradient_profile,
    maximize,
    surface,
    write_surface_csv,
)
from equimax.probmat import class_sizes, is_one_hot_rows, one_hot_matrix, read_array_csv, validate

from ascent_reference import compare

FAST = AscentConfig(inits=24, steps=400)

CORNERS = {"P1": (0.0, 0.0), "P2": (1.0, 0.0), "P3": (0.0, 1.0), "P4": (1.0, 1.0)}


class TestMaximize:
    def test_ms_2x2_reaches_one(self):
        res = maximize(LossConfig("ms"), 2, 2, FAST)
        assert abs(res.best_value - 1.0) <= 1e-9
        assert is_one_hot_rows(res.best_matrix, 1e-6)

    def test_nsm_2x2_reaches_bound_at_distinct_corners(self):
        res = maximize(LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6), 2, 2, FAST)
        assert abs(res.best_value - 1.000002) <= 1e-9
        labels = tuple(res.best_matrix.argmax(axis=1))
        assert labels in ((0, 1), (1, 0))

    def test_cwsm_4x2_balanced(self):
        res = maximize(LossConfig("cwsm", r=0.5), 4, 2, FAST)
        assert abs(res.best_value - math.sqrt(2)) <= 1e-9
        assert is_one_hot_rows(res.best_matrix, 1e-3)
        assert sorted(np.round(class_sizes(res.best_matrix)).astype(int)) == [2, 2]

    def test_iterates_stay_feasible(self, monkeypatch):
        # every start, candidate and polished vertex is scored by one of the two
        # kernels, so the spies see each of them; the starts come first
        scored = []

        def spy(kernel):
            def scoring(kind, stack, *args):
                scored.append(stack.copy())
                return kernel(kind, stack, *args)

            return scoring

        for name in ("_loss_values_stack", "_loss_grads_stack"):
            monkeypatch.setattr(optimizer, name, spy(getattr(optimizer, name)))
        res = maximize(LossConfig("nsm", r=1.0, alpha=1.0, epsilon=0.0), 3, 2, FAST)
        assert scored[0].shape == (FAST.inits, 3, 2)
        for stack in scored:
            for mat in stack:
                validate(mat)
        validate(res.best_matrix)

    def test_monotone_histories(self, monkeypatch):
        # a step projects its iterate plus step_size times the ascent direction
        # that a gradient call returned at that iterate; with one start,
        # matching each depth-0 projection against the gradient calls' matrices
        # recovers the step's iterate, so the spies see its value step by step
        grads = optimizer._loss_grads_stack
        project = optimizer.project_rows

        def grad_spy(kind, stack, r, alpha, eps):
            losses, stack_grads = grads(kind, stack, r, alpha, eps)
            seen.extend(zip(stack.copy(), -losses, -stack_grads))
            return losses, stack_grads

        def project_spy(rows):
            if rows.ndim == 3:  # depth 0: one (1, B, C) iterate plus a full step
                at = [v for mat, v, up in seen if np.array_equal(mat + step_size * up, rows[0])]
                assert at, "no gradient call saw this step's iterate"
                hist.append(float(at[-1]))
            return project(rows)

        monkeypatch.setattr(optimizer, "_loss_grads_stack", grad_spy)
        monkeypatch.setattr(optimizer, "project_rows", project_spy)
        # at step size 0.5 nsm needs halvings from four of these seeds
        for step_size in (0.05, 0.5):
            for cfg in (LossConfig("ms"), LossConfig("cwsm", r=0.5), LossConfig("nsm", r=0.5)):
                for seed in range(8):
                    seen, hist = [], []
                    maximize(cfg, 3, 3, AscentConfig(inits=1, steps=150, step_size=step_size, seed=seed))
                    assert len(hist) >= 2
                    assert np.diff(hist).min() >= -optimizer.ACCEPT_TOL

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        a = maximize(LossConfig("cwsm", r=0.5), 4, 3, FAST)
        b = maximize(LossConfig("cwsm", r=0.5), 4, 3, FAST)
        assert np.array_equal(a.best_matrix, b.best_matrix)
        assert a.best_value == b.best_value
        assert np.array_equal(a.final_values, b.final_values)
        assert np.array_equal(a.accepted_steps, b.accepted_steps)
        # the first stack a run scores, with its gradients, is its starts, which the seed draws
        grads = optimizer._loss_grads_stack

        def starts(seed):
            scored = []

            def spy(kind, stack, *args):
                scored.append(stack.copy())
                return grads(kind, stack, *args)

            monkeypatch.setattr(optimizer, "_loss_grads_stack", spy)
            maximize(LossConfig("cwsm", r=0.5), 4, 3, AscentConfig(inits=24, steps=1, seed=seed))
            return scored[0]

        assert np.array_equal(starts(FAST.seed), starts(FAST.seed))
        assert not np.array_equal(starts(FAST.seed), starts(7))

    def test_bnm_subgradient_ascent_runs(self):
        res = maximize(LossConfig("bnm"), 2, 2, AscentConfig(inits=8, steps=200))
        assert abs(res.best_value - 1.0) <= 1e-6  # identity-like corners

    def test_bnm_ascent_pinned(self):
        res = maximize(LossConfig("bnm"), 4, 3, AscentConfig(inits=48, steps=600, seed=5))
        assert res.best_value == 0.8535533905932737
        assert np.array_equal(res.best_matrix, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        # every start reaches a vertex at its first polish and converges there
        assert res.accepted_steps.tolist() == [25] * 48
        assert res.halving_events == 0

    def test_nsm_r1_starts_converge_at_vertices(self):
        # with a snap-only polish 37 of these starts crept to the step cap
        res = maximize(LossConfig("nsm", r=1.0), 4, 4, AscentConfig(inits=48, steps=600, seed=5))
        assert res.retire_reasons == ["converged"] * 48
        assert res.best_value == 1.000004

    def test_best_value_consistent_with_matrix(self):
        cfg = LossConfig("nsm", r=0.5, alpha=2.0, epsilon=1e-6)
        res = maximize(cfg, 3, 3, FAST)
        assert abs(res.best_value - (-loss_value(res.best_matrix, cfg))) <= 1e-12


class TestRetire:
    # nsm r=0.5 at 3x3, default seed: with a snap-only polish one start
    # spins at a non-vertex point to the step cap (2000 steps, 3935 halvings)
    STALL_CASE = LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6)

    @pytest.mark.parametrize(
        "cfg", [AscentConfig(inits=48, steps=600), AscentConfig()], ids=["48x600", "default"]
    )
    def test_stalled_start_retires_with_same_optimum(self, cfg):
        res = maximize(self.STALL_CASE, 3, 3, cfg)
        assert res.accepted_steps.max() < cfg.steps
        assert "step cap" not in res.retire_reasons
        assert set(res.retire_reasons) <= set(RETIRE_REASONS)
        assert res.best_value == 1.000003
        assert np.array_equal(res.best_matrix, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "n_rows, n_cols, cfg, best",
        [
            (6, 5, AscentConfig(), 0.75),
            (12, 10, AscentConfig(), 0.75),
            (10, 8, AscentConfig(inits=4, steps=200), 0.7142857142857143),
            (14, 12, AscentConfig(inits=4, steps=200), 0.7777777777777778),
        ],
        ids=["6x5", "12x10", "10x8", "14x12"],
    )
    def test_null_move_retires(self, n_rows, n_cols, cfg, best):
        # nsm r=0.5 with B > C: from the balanced vertex every shorter step
        # lowers the value until the projected candidate equals the vertex;
        # counted as a step, that null move ran every start to the step cap
        res = maximize(LossConfig("nsm", r=0.5), n_rows, n_cols, cfg)
        assert "step cap" not in res.retire_reasons
        assert "no improving step" in res.retire_reasons
        assert res.accepted_steps.max() < cfg.steps
        assert res.best_value == best

    def test_step_cap_reason(self):
        res = maximize(LossConfig("nsm", r=1.0, epsilon=0.0), 3, 3, AscentConfig(inits=4, steps=10))
        assert res.retire_reasons == ["step cap"] * 4


class TestAgainstSequentialHalving:
    """``maximize`` scores its halving ladder in stacked rungs; the reference
    (``ascent_reference``) halves one depth per kernel call.  Every field of
    the result has the same bytes."""

    CASES = [
        (LossConfig("nsm", r=0.5), 3, 4, AscentConfig()),  # starts end after MAX_HALVINGS halvings
        (LossConfig("nsm", r=0.5), 6, 5, AscentConfig()),  # null moves
        (LossConfig("nsm", r=0.5), 12, 10, AscentConfig()),
        (LossConfig("nsm", r=0.5), 3, 3, AscentConfig(inits=8, steps=150, step_size=0.5)),
        (LossConfig("nsm", r=0.25, epsilon=1e-6), 5, 3, AscentConfig(inits=16, steps=300, seed=3)),
        (LossConfig("bnm"), 4, 3, AscentConfig()),
        (LossConfig("bnm"), 4, 3, AscentConfig(inits=48, steps=600, seed=5)),
        (LossConfig("cwsm", r=0.5), 5, 4, AscentConfig()),
        (LossConfig("cwsm", r=0.25), 4, 6, AscentConfig(inits=16, steps=300, seed=11)),
        (LossConfig("ms"), 3, 2, AscentConfig(inits=8, steps=100)),
    ]

    def test_same_result_bytes(self):
        count, mismatches, paths = compare(self.CASES)
        assert (count, mismatches) == (len(self.CASES), [])
        # the grid reaches both ways a ladder ends without a step
        assert paths["null_moves"] > 0 and paths["ladder_ends"] > 0

    def test_same_result_bytes_in_split_rungs(self, monkeypatch):
        # a rung over more than inits * B * C entries is scored a few starts at a time
        monkeypatch.setattr(optimizer, "_RUNG_FLOATS", 1)
        count, mismatches, _ = compare(self.CASES[:4])
        assert (count, mismatches) == (4, [])


class TestRelabelSearch:
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_size_score_matches_kernel(self, rng, kind, r):
        for n_rows, n_cols in ((1, 2), (5, 3), (4, 6), (7, 7), (9, 4)):
            labels = rng.integers(0, n_cols, size=(20, n_rows))  # rows in no size order
            stack = np.eye(n_cols)[labels]
            want = -_loss_values_stack(kind, stack, r, 1.5, 1e-6)
            got = optimizer._size_values(kind, stack.sum(axis=1).astype(int), r, 1.5, 1e-6)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @staticmethod
    def _unique_rows_size_values(kind, sizes, r, alpha, epsilon):
        # the former grouping: a structured-row np.unique over the sorted sizes
        canon = -np.sort(-sizes, axis=1)
        unique, inverse = np.unique(canon, axis=0, return_inverse=True)
        bounds = np.cumsum(unique, axis=1)
        labels = (np.arange(bounds[0, -1])[None, :, None] >= bounds[:, None, :]).sum(axis=2)
        one_hot = one_hot_matrix(labels, sizes.shape[1])
        return -_loss_values_stack(kind, one_hot, r, alpha, epsilon)[inverse.ravel()]

    @staticmethod
    def _size_stacks(rng):
        for n_rows in range(1, 13):
            for n_cols in range(2, 11):
                labels = rng.integers(0, n_cols, size=(30, n_rows))
                labels = labels[rng.integers(0, 30, size=40)]  # duplicate rows
                labels[:5] = 0  # a single class: every other class empty
                yield (labels[:, :, None] == np.arange(n_cols)).sum(axis=1)
        yield np.array([[2, 0, 1]])
        yield np.tile([1, 3, 0, 2], (7, 1))
        labels = rng.integers(0, 16, size=(60, 40))
        labels[:20] = rng.integers(0, 3, size=(20, 40))
        sizes = (labels[:, :, None] == np.arange(16)).sum(axis=1)
        assert (40 + 1) ** 16 >= 2**63  # an int64 mixed-radix key would overflow here
        yield np.concatenate([sizes, sizes[::-1]])

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grouping_matches_unique_rows_byte_for_byte(self, rng, kind):
        for sizes in self._size_stacks(rng):
            for r in (0.5, 1.0):
                want = self._unique_rows_size_values(kind, sizes, r, 1.5, 1e-6)
                got = optimizer._size_values(kind, sizes, r, 1.5, 1e-6)
                assert got.dtype == want.dtype and got.shape == want.shape == (len(sizes),)
                assert got.tobytes() == want.tobytes(), (kind, sizes.shape, r)

    def test_moves_first_best_class_pair_on_last_row(self):
        labels = np.array([[0, 0, 0, 0], [1, 0, 1, 1]])
        optimizer._relabel_ascent(
            labels, 3, lambda sizes: optimizer._size_values("cwsm", sizes, 0.5, 1.0, 0.0)
        )
        assert labels.tolist() == [[0, 0, 2, 1], [1, 0, 1, 2]]


class TestSurface:
    def test_ms_argmax_all_corners(self):
        grid = surface(LossConfig("ms"), 201)
        assert set(grid.argmax) == set(CORNERS.values())
        assert abs(grid.max_value - 1.0) <= 1e-12

    def test_bnm_argmax_balanced_corners(self):
        grid = surface(LossConfig("bnm"), 201)
        assert set(grid.argmax) == {CORNERS["P2"], CORNERS["P3"]}

    def test_cwsm_r0_matches_ms_everywhere(self):
        # at two rows and two columns the scaling factors coincide
        ms_grid = surface(LossConfig("ms"), 101)
        cw_grid = surface(LossConfig("cwsm", r=0.0), 101)
        assert np.allclose(ms_grid.values, cw_grid.values, atol=1e-12)
        assert set(cw_grid.argmax) == set(ms_grid.argmax)

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_cwsm_and_nsm_argmax(self, r):
        assert set(surface(LossConfig("cwsm", r=r), 201).argmax) == {CORNERS["P2"], CORNERS["P3"]}
        assert set(surface(LossConfig("nsm", r=r, epsilon=1e-6), 201).argmax) == {
            CORNERS["P2"],
            CORNERS["P3"],
        }

    def test_values_match_scalar_loss(self, rng):
        cfg = LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6)
        grid = surface(cfg, 21)
        for i in rng.integers(0, grid.values.size, size=25):
            mat = np.array(
                [[grid.p1[i], 1 - grid.p1[i]], [grid.p2[i], 1 - grid.p2[i]]]
            )
            assert abs(grid.values[i] - (-loss_value(mat, cfg))) <= 1e-12

    def test_corner_gap_nondecreasing_in_r(self):
        # balanced-corner advantage over unbalanced corners grows with r
        def corner_gap(kind, r):
            grid = surface(LossConfig(kind, r=r, epsilon=1e-6), 41)
            vals = {
                name: grid.values[np.argmax((grid.p1 == p) & (grid.p2 == q))]
                for name, (p, q) in CORNERS.items()
            }
            return vals["P2"] - vals["P1"]

        for kind in ("cwsm", "nsm"):
            gaps = [corner_gap(kind, r) for r in (0.0, 0.5, 1.0)]
            assert gaps[0] <= gaps[1] + 1e-12
            assert gaps[1] <= gaps[2] + 1e-12

    def test_grid_bounds(self):
        with pytest.raises(ValueError):
            surface(LossConfig("ms"), 1)
        grid = surface(LossConfig("ms"), 2)
        assert grid.values.size == 4

    def test_point_count_and_order(self):
        grid = surface(LossConfig("ms"), 3)
        assert grid.values.size == 9
        assert grid.p1[0] == 0.0 and grid.p2[0] == 0.0
        assert grid.p1[1] == 0.0 and grid.p2[1] == 0.5  # p1 slowest


class TestSurfaceIo:
    def test_csv_and_sidecar(self, tmp_path):
        grid = surface(LossConfig("bnm"), 21)
        path = tmp_path / "s.csv"
        sidecar = write_surface_csv(grid, str(path))
        text = path.read_text()
        assert text.startswith("# p1,p2,value\n")
        assert len(text.splitlines()) == 1 + 21 * 21
        back = read_array_csv(str(path))
        assert back.shape == (441, 3)
        assert np.array_equal(back[:, 0], grid.p1)
        assert np.array_equal(back[:, 2], grid.values)
        doc = json.loads((tmp_path / "s.csv.argmax.json").read_text())
        assert sidecar == str(path) + ".argmax.json"
        assert doc["argmax"] == [[0.0, 1.0], [1.0, 0.0]]
        assert doc["grid"] == 21

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_bytes_match_per_cell_repr_loop(self, kind, tmp_path):
        grid = surface(LossConfig(kind, epsilon=1e-6), 41)
        lines = ["# p1,p2,value"]
        for a, b, v in zip(grid.p1, grid.p2, grid.values):
            lines.append(f"{float(a)!r},{float(b)!r},{float(v)!r}")
        want = "\n".join(lines) + "\n"
        path = tmp_path / "s.csv"
        assert write_surface_csv(grid, str(path)) == f"{path}.argmax.json"
        assert path.read_bytes() == want.encode("utf-8")

    def test_writes_through_the_probmat_module(self, monkeypatch, tmp_path):
        # a wrapper set on probmat.write_matrix_csv sees the surface write
        from equimax import probmat

        calls = []
        writer = probmat.write_matrix_csv

        def spy(target, mat, **kwargs):
            calls.append(mat.shape)
            writer(target, mat, **kwargs)

        monkeypatch.setattr(probmat, "write_matrix_csv", spy)
        path = tmp_path / "s.csv"
        write_surface_csv(surface(LossConfig("ms"), 5), str(path))
        assert calls == [(25, 3)]
        assert path.read_text().startswith("# p1,p2,value\n")

    def test_stream_round_trip(self, tmp_path):
        # the written file reads back through the stream reader too
        grid = surface(LossConfig("ms"), 5)
        path = tmp_path / "s.csv"
        write_surface_csv(grid, str(path))
        back = read_array_csv(io.StringIO(path.read_text()))
        assert np.array_equal(back[:, 2], grid.values)


def test_gradient_profile_shape():
    prof = gradient_profile(LossConfig("nsm", r=0.5, epsilon=1e-6))
    assert prof.shape == (6, 2)
    assert prof[:, 0].tolist() == [0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
    assert np.all(np.isfinite(prof))
    assert isinstance(surface(LossConfig("ms"), 5), SurfaceGrid)


def test_ascent_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(inits=0)
    with pytest.raises(ValueError):
        AscentConfig(step_size=0.0)
    for step_size in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^step_size must be positive and finite, got "):
            AscentConfig(step_size=step_size)
