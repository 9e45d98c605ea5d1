import dataclasses
import io
import json
import re

import numpy as np
import pytest

from equimax.losses import LossConfig, loss_value
from equimax.oracle import (
    TheoremReport,
    _one_hot_label_stack,
    balanced_sizes,
    hessian_diag,
    verify_all,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
    verify_theorem_4_5,
    verify_theorem_6,
)
from equimax.optimizer import AscentConfig
from equimax.probmat import DEFAULT_ENUM_BUDGET, BudgetError, class_sizes, write_json

FAST_ASCENT = AscentConfig(inits=24, steps=400)
# seeds on which a snap-only vertex polish gave wrong verdicts past 5x5
ASCENT_SEEDS = [int(s) for s in np.random.default_rng(1).integers(0, 2**32, 12)]


class TestBalancedSizes:
    @pytest.mark.parametrize(
        "n_rows,n_cols,floor_count,sizes",
        [
            (6, 3, 3, (2, 2, 2)),
            (4, 3, 2, (1, 1, 2)),
            (4, 2, 2, (2, 2)),
            (2, 2, 2, (1, 1)),
            (5, 3, 1, (1, 2, 2)),
            (7, 3, 2, (2, 2, 3)),
            (2, 3, 1, (0, 1, 1)),
        ],
    )
    def test_examples(self, n_rows, n_cols, floor_count, sizes):
        out = balanced_sizes(n_rows, n_cols)
        assert out == sizes
        assert out.count(n_rows // n_cols) == floor_count

    def test_large_case(self):
        out = balanced_sizes(36, 31)
        assert out.count(1) == 26 and out.count(2) == 5

    def test_count_equation_exact(self):
        for n_rows in range(1, 40):
            for n_cols in range(2, 9):
                out = balanced_sizes(n_rows, n_cols)
                assert len(out) == n_cols
                assert sum(out) == n_rows
                assert max(out) - min(out) <= 1
                assert list(out) == sorted(out)
                if n_rows % n_cols == 0:
                    assert out == (n_rows // n_cols,) * n_cols

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            balanced_sizes(0, 3)
        with pytest.raises(ValueError):
            balanced_sizes(3, 1)

    @pytest.mark.parametrize(
        "shape, name",
        [((3.5, 2), "n_rows"), ((True, 2), "n_rows"), ((3, 2.0), "n_cols"), ((3, "2"), "n_cols")],
    )
    def test_rejects_non_integer_shape_naming_it(self, shape, name):
        # not a TypeError from tuple repetition, and True is not read as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            balanced_sizes(*shape)

    def test_every_statement_runs_the_integer_shape_check(self):
        with pytest.raises(ValueError, match="^n_rows must be an integer, got 2.0$"):
            verify_theorem_1(2.0, 3)

    @pytest.mark.parametrize(
        "call, args, name, value",
        [
            (verify_theorem_2, ("3", 2, 0.5), "n_rows", "3"),
            (verify_theorem_2, (None, 2, 0.5), "n_rows", None),
            (verify_theorem_6, ("3", 4, 0.5, 1.0, 1e-6), "n_rows", "3"),
            (verify_theorem_6, (None, 4, 0.5, 1.0, 1e-6), "n_rows", None),
            (verify_theorem_6, (2, "4", 0.5, 1.0, 1e-6), "n_cols", "4"),
        ],
        ids=["2_rows_str", "2_rows_none", "6_rows_str", "6_rows_none", "6_cols_str"],
    )
    def test_statements_2_and_6_check_their_shape_first(self, call, args, name, value):
        # before, statement 2's curvature sampling and statement 6's B <= C check ended these in a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(*args)


@pytest.mark.parametrize(
    "call, args, kwargs, name, value",
    [
        (verify_theorem_1, (3, 3), {"budget": 2.5}, "budget", 2.5),
        (verify_theorem_2, (2, 2, "0.5"), {}, "r", "0.5"),
        (verify_theorem_3, (3, 2, True), {}, "r", True),
        (verify_theorem_3, (3, 3, 0.5), {"budget": True}, "budget", True),
        (verify_theorem_4_5, (3, 3, True, 0.0), {"run_ascent": False}, "alpha", True),
        (verify_theorem_4_5, (3, 3, 1.0, "0"), {"run_ascent": False}, "epsilon", "0"),
        (verify_theorem_6, (2, 3, "0.5", 1.0, 1e-6), {}, "r", "0.5"),
        (verify_theorem_6, (2, 3, 0.5, 1.0, None), {}, "epsilon", None),
        (verify_theorem_6, (2, 3, 0.5, 1.0, 1e-6), {"budget": 2.5}, "budget", 2.5),
    ],
    ids=["1_budget_float", "2_r_str", "3_r_bool", "3_budget_bool", "4_5_alpha_bool", "4_5_epsilon_str",
         "6_r_str", "6_epsilon_none", "6_budget_float"],
)
def test_statement_parameters_take_the_number_rule(call, args, kwargs, name, value):
    # before, these ran with True as 1 (statement 3 reported "descriptive"), compared a budget of
    # 2.5 with the count, or ended in a TypeError from a range check
    noun = "an integer" if name == "budget" else "a number"
    with pytest.raises(ValueError, match=f"^{name} must be {noun}, got {re.escape(repr(value))}$"):
        call(*args, **kwargs)


class TestHessianDiag:
    def test_zero_mass_case(self):
        assert abs(hessian_diag(0.0, 0.0, 0.25, 0.5) - 1.5) <= 1e-12

    def test_general_case_positive(self):
        assert hessian_diag(1.0, 0.5, 0.3, 0.5) > 0

    def test_matches_numeric_second_derivative(self, rng):
        for _ in range(50):
            a = float(rng.uniform(0.1, 3.0))
            b = float(rng.uniform(0.0, a))
            x = float(rng.uniform(0.05, 0.95))
            r = float(rng.uniform(0.05, 0.95))

            def f(t):
                return (b + t * t) / (a + t) ** r

            h = 1e-4
            numeric = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
            assert abs(hessian_diag(a, b, x, r) - numeric) <= 1e-5 * max(1.0, abs(numeric))

    def test_vectorized(self):
        out = hessian_diag(np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.array([0.25, 0.3]), 0.5)
        assert out.shape == (2,)
        assert abs(out[0] - 1.5) <= 1e-12


class TestTheorem1:
    @pytest.mark.parametrize(
        "n_rows,n_cols,argmax",
        [(4, 2, [2, 2]), (2, 2, [1, 1]), (5, 3, [1, 2, 2])],
    )
    def test_examples(self, n_rows, n_cols, argmax):
        rep = verify_theorem_1(n_rows, n_cols)
        assert rep.verdict == "pass"
        assert rep.argmax == [argmax]

    def test_crosscheck_recorded(self):
        rep = verify_theorem_1(3, 2)
        assert rep.params["svd_crosscheck_matrices"] == 8
        assert rep.params["svd_crosscheck_max_err"] <= 1e-9

    def test_budget(self):
        with pytest.raises(BudgetError):
            verify_theorem_1(40, 5, budget=10)

    def test_one_row_over_1200_classes(self):
        # before, the recursive composition walk raised RecursionError here
        rep = verify_theorem_1(1, 1200)
        assert rep.verdict == "pass"
        assert rep.argmax == [[0] * 1199 + [1]]
        assert rep.params["svd_crosscheck_matrices"] == 1200


class TestTheorem2:
    def test_passes(self):
        rep = verify_theorem_2(4, 2, 0.5, trials=1000, ascent=FAST_ASCENT)
        assert rep.verdict == "pass"
        assert rep.params["min_hessian_diag"] > 0
        assert rep.params["ascent_one_hot"]

    def test_r_range(self):
        with pytest.raises(ValueError):
            verify_theorem_2(4, 2, 1.0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected_before_the_ascent(self, trials, monkeypatch):
        import equimax.oracle as oracle

        def no_ascent(*args, **kwargs):
            raise AssertionError("ascent ran")

        monkeypatch.setattr(oracle, "maximize", no_ascent)
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            verify_theorem_2(3, 3, 0.5, trials=trials)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_non_integer_trials_rejected_naming_it(self, trials):
        with pytest.raises(ValueError, match=f"^trials must be an integer, got {re.escape(repr(trials))}$"):
            verify_theorem_2(2, 2, 0.5, trials=trials)

    def test_balanced_argmax_at_6x6(self):
        for seed in ASCENT_SEEDS:
            ascent = AscentConfig(inits=48, steps=600, seed=seed)
            rep = verify_theorem_2(6, 6, 0.5, seed=seed, ascent=ascent)
            assert rep.verdict == "pass" and rep.argmax == [[1] * 6], seed


class TestTheorem3:
    @pytest.mark.parametrize(
        "n_rows,n_cols,r,argmax",
        [(4, 2, 0.5, [2, 2]), (3, 3, 0.5, [1, 1, 1]), (7, 3, 0.25, [2, 2, 3])],
    )
    def test_examples(self, n_rows, n_cols, r, argmax):
        rep = verify_theorem_3(n_rows, n_cols, r)
        assert rep.verdict == "pass"
        assert rep.argmax == [argmax]

    def test_one_row_over_1200_classes(self):
        # before, the recursive composition walk raised RecursionError here
        rep = verify_theorem_3(1, 1200, 0.5)
        assert rep.verdict == "pass"
        assert rep.argmax == [[0] * 1199 + [1]]

    def test_r1_descriptive(self):
        rep = verify_theorem_3(5, 3, 1.0)
        assert rep.verdict == "descriptive"
        assert rep.predicted is None
        assert rep.optimum == 3.0  # number of non-empty classes maxes at min(B, C)
        # every multiset with no empty class fills min(B, C) classes
        assert rep.argmax == [[1, 1, 3], [1, 2, 2]]
        assert (rep.tolerance, rep.seed) == (1e-9, None)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            verify_theorem_3(4, 2, 0.0)


class TestTheorem45:
    def test_example(self):
        rep = verify_theorem_4_5(4, 2, 1.0, 0.0, ascent=FAST_ASCENT)
        assert rep.verdict == "pass"
        assert rep.argmax == [[2, 2]]
        assert abs(rep.optimum - 0.5) <= 1e-12
        assert rep.params["ascent_one_hot"]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_ascent_evidence_past_5x5(self, n):
        for seed in ASCENT_SEEDS:
            rep = verify_theorem_4_5(n, n, 1.0, 1e-6, seed=seed, theorem_id=4)
            assert rep.verdict == "pass", seed

    def test_suboptimal_sizes_are_worse(self):
        # (3,1) split scores 0.4 against the balanced 0.5
        value = 4 / (3**2 + 1**2 + (1 - 1) * 4)
        assert abs(value - 0.4) <= 1e-12

    def test_without_ascent(self):
        rep = verify_theorem_4_5(6, 4, 1.0, 1e-6, run_ascent=False)
        assert rep.verdict == "pass"
        assert rep.argmax == [[1, 1, 2, 2]]
        assert "ascent_value" not in rep.params
        assert (rep.tolerance, rep.seed) == (0.0, None)

    def test_theorem_id(self):
        rep = verify_theorem_4_5(4, 2, 1.0, 0.0, run_ascent=False, theorem_id=4)
        assert rep.theorem == 4
        with pytest.raises(ValueError):
            verify_theorem_4_5(4, 2, 1.0, 0.0, theorem_id=3)

    def test_theorem_id_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^theorem_id must be an integer, got 4\.0$"):
            verify_theorem_4_5(4, 2, 1.0, 0.0, run_ascent=False, theorem_id=4.0)

    @pytest.mark.parametrize(
        "seed, ascent, message",
        [
            ("x", None, "^seed must be an integer, got 'x'$"),
            (-1, None, "^seed must be >= 0, got -1$"),
            (7, AscentConfig(seed=8), "^ascent seed 8 differs from seed 7"),
        ],
    )
    def test_seed_checked_without_the_ascent(self, seed, ascent, message):
        with pytest.raises(ValueError, match=message):
            verify_theorem_4_5(4, 2, 1.0, 0.0, seed=seed, ascent=ascent, run_ascent=False)

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            verify_theorem_4_5(4, 2, 0.0, 0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected_before_the_enumeration(self, alpha, monkeypatch):
        import equimax.oracle as oracle

        def no_enumeration(*args, **kwargs):
            raise AssertionError("compositions enumerated")

        monkeypatch.setattr(oracle, "enumerate_size_compositions", no_enumeration)
        with pytest.raises(ValueError, match=f"^alpha must be > 0, got {alpha}$"):
            verify_theorem_4_5(4, 2, alpha, 0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), -1e-6])
    def test_bad_epsilon_rejected_without_the_ascent(self, epsilon, monkeypatch):
        # run_ascent=False builds no LossConfig, so the check is the function's own
        import equimax.oracle as oracle

        def no_enumeration(*args, **kwargs):
            raise AssertionError("compositions enumerated")

        monkeypatch.setattr(oracle, "enumerate_size_compositions", no_enumeration)
        with pytest.raises(ValueError, match=f"^epsilon must be finite and >= 0, got {epsilon}$"):
            verify_theorem_4_5(4, 2, 1.0, epsilon, run_ascent=False)

    @pytest.mark.parametrize("theorem_id", [4, 5])
    @pytest.mark.parametrize("n_rows, n_cols", [(0, 3), (3, 1)])
    def test_shape_rejected_before_the_enumeration(self, n_rows, n_cols, theorem_id, monkeypatch):
        import equimax.oracle as oracle

        def no_enumeration(*args, **kwargs):
            raise AssertionError("compositions enumerated")

        monkeypatch.setattr(oracle, "enumerate_size_compositions", no_enumeration)
        message = f"^need n_rows >= 1 and n_cols >= 2, got {n_rows}, {n_cols}$"
        with pytest.raises(ValueError, match=message):
            verify_theorem_4_5(n_rows, n_cols, 1.0, 0.0, theorem_id=theorem_id)


class TestSizeReportPerStatement:
    """Statements 1, 3 and 4/5 share one composition search and report; each adds what is its own."""

    @pytest.mark.parametrize("offset", [2e-9, float("nan")])
    def test_statement_1_fails_on_its_svd_crosscheck_alone(self, offset, monkeypatch):
        import equimax.oracle as oracle

        true_values = oracle._singular_values_stack
        monkeypatch.setattr(oracle, "_singular_values_stack", lambda stack: true_values(stack) + offset)
        rep = verify_theorem_1(4, 2)
        assert rep.argmax == [rep.predicted] == [[2, 2]]  # the search alone passes
        assert rep.verdict == "fail"
        assert not rep.params["svd_crosscheck_max_err"] <= 1e-9

    def test_statements_4_5_fail_on_a_non_one_hot_ascent(self, monkeypatch):
        import types

        import equimax.oracle as oracle

        fake = types.SimpleNamespace(best_matrix=np.full((4, 2), 0.5), best_value=0.25)
        monkeypatch.setattr(oracle, "maximize", lambda *args, **kwargs: fake)
        rep = verify_theorem_4_5(4, 2, 1.0, 0.0, seed=7, ascent=AscentConfig(seed=7))
        assert rep.argmax == [rep.predicted] == [[2, 2]]  # the search alone passes
        assert rep.verdict == "fail"
        assert (rep.params["ascent_one_hot"], rep.params["ascent_value"]) == (False, 0.25)
        assert (rep.tolerance, rep.seed) == (1e-3, 7)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: verify_theorem_1(0, 3), "need n_rows >= 1 and n_cols >= 2, got 0, 3"),
            (lambda: verify_theorem_1("3", 3), "n_rows must be an integer, got '3'"),
            (lambda: verify_theorem_1(3, 1), "need n_rows >= 1 and n_cols >= 2, got 3, 1"),
            (lambda: verify_theorem_3(0, 3, 0.5), "need n_rows >= 1 and n_cols >= 2, got 0, 3"),
            (lambda: verify_theorem_3(3, 2.0, 0.5), "n_cols must be an integer, got 2.0"),
            (lambda: verify_theorem_3(0, 3, 0.0), "statement 3 covers 0 < r < 1 (r = 1 descriptive), got r=0.0"),
            (lambda: verify_theorem_3(3, 3, "1"), "r must be a number, got '1'"),
            (lambda: verify_theorem_4_5(0, 3, 0.0, 0.0, run_ascent=False), "alpha must be > 0, got 0.0"),
            (lambda: verify_theorem_4_5(0, 3, 1.0, 0.0, run_ascent=False, theorem_id=6),
             "theorem_id must be 4 or 5, got 6"),
            (lambda: verify_theorem_4_5(0, 3, 1.0, 0.0, seed=-1), "seed must be >= 0, got -1"),
            (lambda: verify_theorem_4_5(2, 1, 1.0, 0.0, run_ascent=False), "need n_rows >= 1 and n_cols >= 2, got 2, 1"),
        ],
        ids=["1_rows_zero", "1_rows_str", "1_cols_one", "3_rows_zero", "3_cols_float", "3_r_before_shape", "3_r_str",
             "4_5_alpha_before_shape", "4_5_id_before_shape", "4_5_seed_before_shape", "4_5_cols_one"],
    )
    def test_bad_input_raises_before_the_enumeration(self, call, message, monkeypatch):
        import equimax.oracle as oracle

        def no_enumeration(*args, **kwargs):
            raise AssertionError("compositions enumerated")

        monkeypatch.setattr(oracle, "enumerate_size_compositions", no_enumeration)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call, keys",
        [
            (lambda: verify_theorem_1(3, 2),
             ["b", "c", "budget", "svd_crosscheck_matrices", "svd_crosscheck_max_err"]),
            (lambda: verify_theorem_1(7, 2), ["b", "c", "budget"]),
            (lambda: verify_theorem_3(3, 2, 0.5), ["b", "c", "r", "budget"]),
            (lambda: verify_theorem_4_5(3, 2, 1.0, 0.0, run_ascent=False),
             ["b", "c", "alpha", "epsilon", "budget", "run_ascent", "evidence"]),
            (lambda: verify_theorem_4_5(3, 2, 1.0, 0.0, ascent=FAST_ASCENT),
             ["b", "c", "alpha", "epsilon", "budget", "run_ascent", "evidence", "ascent_value", "ascent_one_hot"]),
        ],
        ids=["1_crosscheck", "1_no_crosscheck", "3", "4_5_no_ascent", "4_5_ascent"],
    )
    def test_params_keep_their_key_order(self, call, keys):
        # the benchmark hashes repr(to_dict()), in which the key order shows
        assert list(call().params) == keys


class TestTheorem6:
    def test_2x3(self):
        rep = verify_theorem_6(2, 3, 0.5, 1.0, 1e-6, ascent=FAST_ASCENT)
        assert rep.verdict == "pass"
        assert rep.params["attainers"] == 6
        assert abs(rep.optimum - 1.000002) <= 1e-12
        assert rep.argmax == [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]

    def test_2x2_optimum_is_the_distinct_pair(self):
        rep = verify_theorem_6(2, 2, 0.5, 1.0, 1e-6, ascent=FAST_ASCENT)
        assert rep.verdict == "pass"
        assert rep.argmax == [[0, 1], [1, 0]]

    def test_3x3_alpha2(self):
        rep = verify_theorem_6(3, 3, 0.5, 2.0, 1e-6, ascent=FAST_ASCENT)
        assert rep.verdict == "pass"
        assert rep.params["attainers"] == 6  # the permutation matrices
        assert abs(rep.optimum - (0.5 + 3e-6)) <= 1e-12

    def test_preconditions(self):
        with pytest.raises(ValueError, match="B <= C"):
            verify_theorem_6(3, 2, 0.5, 1.0, 1e-6)
        with pytest.raises(ValueError):
            verify_theorem_6(2, 3, 1.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            verify_theorem_6(2, 3, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_or_epsilon_rejected_before_the_enumeration(self, value, monkeypatch):
        import equimax.oracle as oracle

        def no_enumeration(*args, **kwargs):
            raise AssertionError("one-hot matrices enumerated")

        monkeypatch.setattr(oracle, "_one_hot_label_stack", no_enumeration)
        with pytest.raises(ValueError, match=f"^statement 6 requires epsilon > 0, got {value}$"):
            verify_theorem_6(2, 3, 0.5, 1.0, value)
        with pytest.raises(ValueError, match=f"^alpha must be > 0, got {value}$"):
            verify_theorem_6(2, 3, 0.5, value, 1e-6)


class TestVerifyAllChecksFirst:
    """verify_all rejects a bad parameter before statement 1 enumerates anything."""

    @pytest.fixture
    def no_statement_runs(self, monkeypatch):
        import equimax.oracle as oracle

        for name in (
            "enumerate_size_compositions", "maximize", "_one_hot_label_stack", "_singular_values_stack", "hessian_diag"
        ):

            def ran(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran")

            monkeypatch.setattr(oracle, name, ran)

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
            ({"alpha": float("nan")}, "alpha must be > 0, got nan"),
            ({"r": 1.5}, "statement 2 covers 0 < r < 1 only, got r=1.5"),
            ({"r": 0.0}, "statement 2 covers 0 < r < 1 only, got r=0.0"),
            ({"trials": 0}, "trials must be >= 1, got 0"),
            ({"epsilon": float("nan")}, "epsilon must be finite and >= 0, got nan"),
        ],
    )
    def test_bad_parameter_rejected_before_statement_1(self, params, message, no_statement_runs):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_all(12, 8, **params)

    def test_ascent_at_another_seed_rejected(self, no_statement_runs):
        # the report would name seed 7 while its ascent ran at the config's default seed
        message = f"^ascent seed {FAST_ASCENT.seed} differs from seed 7, which the report would name$"
        checks = [
            lambda: verify_all(12, 8, seed=7, ascent=FAST_ASCENT),
            lambda: verify_theorem_2(3, 3, 0.5, seed=7, ascent=FAST_ASCENT),
            lambda: verify_theorem_4_5(3, 3, 1.0, 1e-6, seed=7, ascent=FAST_ASCENT),
            lambda: verify_theorem_6(3, 3, 0.5, 1.0, 1e-6, seed=7, ascent=FAST_ASCENT),
        ]
        for check in checks:
            with pytest.raises(ValueError, match=message):
                check()

    def test_cli_exits_1(self, no_statement_runs, tmp_path):
        from equimax.cli import run

        out = tmp_path / "all.json"
        assert run(["verify", "--theorem", "all", "--b", "12", "--c", "8", "--alpha", "0", "--out", str(out)]) == 1
        assert not out.exists()


class TestSizeSufficiency:
    def test_losses_constant_on_size_multisets(self, rng):
        # every loss depends only on the class-size multiset across one-hot
        # matrices: the justification for composition-level search
        cfgs = [
            LossConfig("ms"),
            LossConfig("bnm"),
            LossConfig("cwsm", r=0.5),
            LossConfig("cwsm", r=0.25),
            LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6),
            LossConfig("nsm", r=1.0, alpha=2.0, epsilon=0.0),
        ]
        for n_rows in range(1, 7):
            for n_cols in (2, 3, 4):
                seen = {}
                for mat in _one_hot_label_stack(n_rows, n_cols, DEFAULT_ENUM_BUDGET)[0]:
                    key = tuple(sorted(class_sizes(mat).astype(int)))
                    vals = tuple(loss_value(mat, cfg) for cfg in cfgs)
                    if key in seen:
                        assert np.allclose(seen[key], vals, atol=1e-9), (n_rows, n_cols, key)
                    else:
                        seen[key] = vals


class TestCrossTheoremIdentity:
    def test_nuclear_argmax_value_is_c_times_cws_max(self):
        # optimum of statement 1 equals C times the statement-3 optimum at r=0.5
        for n_rows in range(2, 9):
            for n_cols in (2, 3, 4):
                rep1 = verify_theorem_1(n_rows, n_cols)
                rep3 = verify_theorem_3(n_rows, n_cols, 0.5)
                assert abs(rep1.optimum - rep3.optimum) <= 1e-9
                assert rep1.argmax == rep3.argmax


def _json_text(obj) -> str:
    buf = io.StringIO()
    write_json(buf, obj)
    return buf.getvalue()


class TestReports:
    def test_json_round_trip(self):
        rep = verify_theorem_1(4, 2)
        doc = json.loads(_json_text(rep.to_dict()))
        assert set(doc) == {
            "theorem",
            "params",
            "argmax",
            "optimum",
            "predicted",
            "verdict",
            "tolerance",
            "seed",
        }
        assert doc["verdict"] == "pass"

    def test_reports_reproducible(self):
        a = _json_text([rep.to_dict() for rep in verify_all(4, 2, ascent=FAST_ASCENT)])
        b = _json_text([rep.to_dict() for rep in verify_all(4, 2, ascent=FAST_ASCENT)])
        assert a == b

    def test_verify_all_coverage(self):
        reps = verify_all(4, 2, ascent=FAST_ASCENT)
        assert [r.theorem for r in reps] == [1, 2, 3, 4, 5, 6]
        assert [r.verdict for r in reps] == ["pass"] * 5 + ["skipped"]
        reps = verify_all(2, 3, ascent=FAST_ASCENT)
        assert [r.verdict for r in reps] == ["pass"] * 6

    def test_seed_changes_report(self):
        a = verify_theorem_2(4, 2, 0.5, trials=50, seed=1, ascent=dataclasses.replace(FAST_ASCENT, seed=1))
        b = verify_theorem_2(4, 2, 0.5, trials=50, seed=2, ascent=dataclasses.replace(FAST_ASCENT, seed=2))
        assert a.params["min_hessian_diag"] != b.params["min_hessian_diag"]
        assert isinstance(a, TheoremReport)
        assert (a.seed, b.seed) == (1, 2)

    @pytest.mark.parametrize("b, c", [(4, 2), (2, 3)])
    def test_verify_all_epsilon_auto_is_the_default(self, b, c):
        want = _json_text([rep.to_dict() for rep in verify_all(b, c, ascent=FAST_ASCENT)])
        assert _json_text([rep.to_dict() for rep in verify_all(b, c, epsilon="auto", ascent=FAST_ASCENT)]) == want
        resolved = LossConfig("nsm").resolved_epsilon(b, c)
        assert _json_text([rep.to_dict() for rep in verify_all(b, c, epsilon=resolved, ascent=FAST_ASCENT)]) == want

    def test_verify_all_rejects_a_bad_epsilon_string(self):
        with pytest.raises(ValueError, match="^epsilon must be a number or 'auto', got 'none'$"):
            verify_all(4, 2, epsilon="none")
