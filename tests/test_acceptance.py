"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here, not configured.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from equimax.cli import run as cli_run
from equimax.losses import LossConfig, cws, gradient, loss_value, ns, nuclear_norm
from equimax.oracle import (
    _one_hot_label_stack,
    balanced_sizes,
    hessian_diag,
    verify_theorem_1,
    verify_theorem_3,
    verify_theorem_4_5,
    verify_theorem_6,
)
from equimax.optimizer import AscentConfig, maximize, surface
from equimax.probmat import (
    DEFAULT_ENUM_BUDGET,
    EXAMPLES_4X2,
    class_sizes,
    is_one_hot_rows,
)
from equimax.toyuda import ToyUdaConfig, train

from conftest import fd_gradient, interior_matrix

P1 = np.asarray(EXAMPLES_4X2["P1"])
P2 = np.asarray(EXAMPLES_4X2["P2"])
P3 = np.asarray(EXAMPLES_4X2["P3"])

CORNER_SET_ALL = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
CORNER_SET_BALANCED = {(0.0, 1.0), (1.0, 0.0)}


def test_criterion_01_nuclear_norm_golden_values():
    expected = {"P1": 2.0, "P2": 1.0 + math.sqrt(3.0), "P3": 2.0 * math.sqrt(2.0)}
    times = {}
    for name, want in expected.items():
        mat = np.asarray(EXAMPLES_4X2[name])
        got = nuclear_norm(mat)
        assert abs(got - want) <= 1e-6, (name, got, want)
        samples = []
        for _ in range(11):
            t0 = time.perf_counter()
            nuclear_norm(mat)
            samples.append(time.perf_counter() - t0)
        times[name] = float(np.median(samples))
        assert times[name] < 1e-3, (name, times[name])
    slowest = max(times.values())
    print(f"PASS criterion 1: nuclear norms 2, 2.7321, 2.8284 within 1e-6; slowest {slowest*1e6:.0f}us < 1ms")


def test_criterion_02_cws_and_ns_golden_values():
    cws_expected = [(P1, 1.0), (P2, (1.0 + math.sqrt(3.0)) / 2.0), (P3, math.sqrt(2.0))]
    ns_expected = [(P1, 0.25), (P2, 0.4), (P3, 0.5)]
    for mat, want in cws_expected:
        assert abs(cws(mat, 0.5) - want) <= 1e-6
    for mat, want in ns_expected:
        assert abs(ns(mat, 1.0, 1.0, 0.0) - want) <= 1e-6
    print("PASS criterion 2: cws(0.5) = 1, 1.3660, 1.4142 and ns(1,1,0) = 0.25, 0.4, 0.5 within 1e-6")


def test_criterion_03_balance_statements_full_sweep():
    t0 = time.perf_counter()
    checked = 0
    for n_rows in range(2, 11):
        for n_cols in range(2, 6):
            predicted = list(balanced_sizes(n_rows, n_cols))
            rep1 = verify_theorem_1(n_rows, n_cols)
            assert rep1.verdict == "pass" and rep1.argmax == [predicted], (n_rows, n_cols)
            checked += 1
            for r in (0.25, 0.5, 0.75):
                rep3 = verify_theorem_3(n_rows, n_cols, r)
                assert rep3.verdict == "pass" and rep3.argmax == [predicted], (n_rows, n_cols, r)
                checked += 1
            for alpha in (1.0, 2.0):
                rep5 = verify_theorem_4_5(n_rows, n_cols, alpha, 0.0, run_ascent=False)
                assert rep5.verdict == "pass" and rep5.argmax == [predicted], (n_rows, n_cols, alpha)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    print(f"PASS criterion 3: {checked} brute-force argmax/argmin checks equal balanced sizes in {elapsed:.2f}s < 10s")


def test_criterion_04_distinct_class_bound():
    ascent = AscentConfig(inits=48, steps=600)
    for n_rows, n_cols in [(2, 2), (2, 3), (3, 3), (3, 4)]:
        for alpha in (1.0, 2.0):
            rep = verify_theorem_6(n_rows, n_cols, 0.5, alpha, 1e-6, ascent=ascent)
            bound = 1.0 / alpha + 1e-6 * n_rows
            assert rep.verdict == "pass", (n_rows, n_cols, alpha, rep.params)
            assert rep.params["attain_exact"], "bound attained off the injective set"
            assert rep.params["others_strictly_below"]
            assert abs(rep.optimum - bound) <= 1e-12
            assert rep.params["ascent_value"] >= bound - 1e-6
            expect_count = math.factorial(n_cols) // math.factorial(n_cols - n_rows)
            assert rep.params["attainers"] == expect_count
    print("PASS criterion 4: bound 1/alpha + eps*B exact (1e-12) on injective assignments; ascent within 1e-6, all 8 combos")


def test_criterion_05_one_hot_evidence():
    rng = np.random.default_rng(0xE0517)
    for r in (0.1, 0.5, 0.9):
        u = rng.random((10_000, 4))
        a = np.where(u[:, 0] < 0.1, 0.0, u[:, 1] * 5.0)
        b = np.where(a > 0.0, u[:, 2] * a, 0.0)
        x = np.where(a > 0.0, u[:, 3], 1e-9 + u[:, 3] * (1.0 - 1e-9))
        values = hessian_diag(a, b, x, r)
        assert np.all(values > 0.0), (r, float(values.min()))
    ascent = AscentConfig(inits=48, steps=600)
    for n_rows, n_cols in [(4, 2), (6, 3)]:
        predicted = sorted(balanced_sizes(n_rows, n_cols))
        for cfg in (LossConfig("cwsm", r=0.5), LossConfig("nsm", r=1.0, alpha=1.0, epsilon=0.0)):
            res = maximize(cfg, n_rows, n_cols, ascent)
            assert is_one_hot_rows(res.best_matrix, 1e-3), (cfg.kind, n_rows, n_cols)
            sizes = sorted(np.round(class_sizes(res.best_matrix)).astype(int).tolist())
            assert sizes == predicted, (cfg.kind, n_rows, n_cols, sizes)
    print("PASS criterion 5: 3x10^4 curvature draws all positive; cwsm/nsm ascent one-hot within 1e-3 and balanced at (4,2), (6,3)")


def test_criterion_06_case_study_surfaces():
    assert set(surface(LossConfig("ms"), 201).argmax) == CORNER_SET_ALL
    assert set(surface(LossConfig("bnm"), 201).argmax) == CORNER_SET_BALANCED
    for r in (0.5, 1.0):
        assert set(surface(LossConfig("cwsm", r=r), 201).argmax) == CORNER_SET_BALANCED
        assert set(surface(LossConfig("nsm", r=r, epsilon=1e-6), 201).argmax) == CORNER_SET_BALANCED
    assert set(surface(LossConfig("cwsm", r=0.0), 201).argmax) == CORNER_SET_ALL
    print("PASS criterion 6: grid argmax is all four corners for ms (and cwsm r=0), the two balanced corners otherwise")


def test_criterion_07_nuclear_equals_c_times_cws():
    checked = 0
    worst = 0.0
    for n_rows in range(1, 7):
        for n_cols in range(2, 5):
            for mat in _one_hot_label_stack(n_rows, n_cols, DEFAULT_ENUM_BUDGET)[0]:
                err = abs(nuclear_norm(mat) - n_cols * cws(mat, 0.5))
                worst = max(worst, err)
                assert err <= 1e-9, (n_rows, n_cols)
                checked += 1
    print(f"PASS criterion 7: nuclear norm = C * cws(0.5) within 1e-9 on all {checked} one-hot matrices (worst {worst:.1e})")


@pytest.mark.parametrize(
    "kind,configs,tol,floor",
    [
        ("ms", [LossConfig("ms")], 1e-5, 1e-4),
        (
            "cwsm",
            [LossConfig("cwsm", r=r) for r in (0.0, 0.25, 0.5, 0.75, 1.0)],
            1e-5,
            1e-4,
        ),
        (
            "nsm",
            [
                LossConfig("nsm", r=0.0, alpha=1.0, epsilon=0.0),
                LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6),
                LossConfig("nsm", r=0.75, alpha=2.0, epsilon=1e-6),
                LossConfig("nsm", r=1.0, alpha=1.0, epsilon=0.0),
            ],
            1e-5,
            1e-4,
        ),
        ("bnm", [LossConfig("bnm")], 1e-4, 1e-3),
    ],
)
def test_criterion_08_gradients_match_finite_differences(kind, configs, tol, floor):
    rng = np.random.default_rng(0xE0517 + len(kind))
    checked = 0
    worst = 0.0
    while checked < 200:
        cfg = configs[checked % len(configs)]
        mat = interior_matrix(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        out = gradient(mat, cfg)
        if kind == "bnm" and not out.exact:
            continue
        fd = fd_gradient(lambda m: loss_value(m, cfg), mat)
        rel = float(np.max(np.abs(out.grad - fd) / np.maximum(np.abs(fd), floor)))
        worst = max(worst, rel)
        assert rel <= tol, (kind, checked, rel)
        checked += 1
    print(f"PASS criterion 8 ({kind}): 200 random interior matrices, worst relative error {worst:.2e} <= {tol}")


def test_criterion_09_paired_toyuda_runs():
    t0 = time.perf_counter()
    ms_equity, cw_equity, nm_equity = [], [], []
    ms_acc, cw_acc, nm_acc = [], [], []
    for seed in range(10):
        base = ToyUdaConfig(seed=seed)
        res_ms = train(replace(base, loss=LossConfig("ms", lam=1.0 / base.classes)))
        res_cw = train(replace(base, loss=LossConfig("cwsm", r=0.5, lam=1.0)))
        res_nm = train(replace(base, loss=LossConfig("nsm", r=0.5, alpha=1.0, epsilon="auto", lam=1.0)))
        ms_equity.append(res_ms.equity[-1])
        cw_equity.append(res_cw.equity[-1])
        nm_equity.append(res_nm.equity[-1])
        ms_acc.append(res_ms.accuracy[-1])
        cw_acc.append(res_cw.accuracy[-1])
        nm_acc.append(res_nm.accuracy[-1])
    elapsed = time.perf_counter() - t0
    cw_wins = sum(c > m for c, m in zip(cw_equity, ms_equity))
    nm_wins = sum(n > m for n, m in zip(nm_equity, ms_equity))
    assert cw_wins >= 8, (cw_wins, cw_equity, ms_equity)
    assert nm_wins >= 8, (nm_wins, nm_equity, ms_equity)
    ms_mean_acc = float(np.mean(ms_acc))
    floor_acc = ms_mean_acc - 0.02
    assert min(cw_acc) >= floor_acc, (min(cw_acc), ms_mean_acc)
    assert min(nm_acc) >= floor_acc, (min(nm_acc), ms_mean_acc)
    assert elapsed < 60.0, elapsed
    print(
        f"PASS criterion 9: equity wins cwsm {cw_wins}/10, nsm {nm_wins}/10; "
        f"accuracy floor {floor_acc:.3f} respected; {elapsed:.1f}s < 60s"
    )


def test_criterion_10_evaluation_cost_scaling():
    rng = np.random.default_rng(0xE0517)
    sizes = (256, 512, 1024)
    mats = {n: rng.dirichlet(np.ones(32), size=n) for n in sizes}
    fns = {
        "cwsm": lambda m: cws(m, 0.5),
        "nsm(r=1)": lambda m: ns(m, 1.0, 1.0, 0.0),
        "nsm(r=0.5)": lambda m: ns(m, 0.5, 1.0, 0.0),
    }
    # warm up everything (allocators, code paths, caches) before calibrating
    for _ in range(3):
        for fn in fns.values():
            for m in mats.values():
                fn(m)
    inner = {}
    for name, fn in fns.items():
        for n, m in mats.items():
            t0 = time.perf_counter()
            fn(m)
            dt = time.perf_counter() - t0
            inner[(name, n)] = max(1, int(np.ceil(0.002 / max(dt, 1e-7))))
    samples = {key: [] for key in inner}
    for _ in range(21):  # interleaved so drift hits every cell equally
        for name, fn in fns.items():
            for n, m in mats.items():
                reps = inner[(name, n)]
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn(m)
                samples[(name, n)].append((time.perf_counter() - t0) / reps)
    med = {key: float(np.median(vals)) for key, vals in samples.items()}
    bands = {"cwsm": 2.0, "nsm(r=1)": 2.0, "nsm(r=0.5)": 4.0}
    summary = []
    for name, factor in bands.items():
        lo, hi = 0.6 * factor, 1.4 * factor
        r1 = med[(name, 512)] / med[(name, 256)]
        r2 = med[(name, 1024)] / med[(name, 512)]
        assert lo <= r1 <= hi, (name, "256->512", r1, (lo, hi))
        assert lo <= r2 <= hi, (name, "512->1024", r2, (lo, hi))
        summary.append(f"{name} {r1:.2f}x/{r2:.2f}x")
    print(f"PASS criterion 10: doubling-B cost ratios within +-40% of target ({'; '.join(summary)})")


def test_criterion_11_verify_all_byte_identical(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        code = cli_run(
            ["verify", "--theorem", "all", "--b", "3", "--c", "3", "--out", str(path)]
        )
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert len(first) > 0
    print(f"PASS criterion 11: repeated 'verify --theorem all' reports byte-identical ({len(first)} bytes)")
