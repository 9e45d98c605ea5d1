import itertools
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from equimax import losses
from equimax.losses import (
    LOSS_KINDS,
    ConvergenceError,
    LossConfig,
    discriminability,
    equity_metric,
    gradient,
    loss_value,
)
from equimax.probmat import validate
from equimax import toyuda
from equimax.toyuda import (
    ToyUdaConfig,
    TrainingDivergedError,
    class_centers,
    objective_and_gradients,
    softmax,
    train,
)

from conftest import fd_gradient

SMALL = ToyUdaConfig(epochs=12, source_per_class=30, target_counts=(18, 9, 3), batch_size=10)


def generate(cfg):
    """The (xs, ys, xt, yt) data ``train(cfg)`` draws from its seed."""
    return toyuda._generate(toyuda._rngs(cfg.seed)[0], cfg)


def reference_objective(weights, bias, x_src, y_src, x_tgt, loss_cfg):
    """One step's objective as first written: a copy with the labels' 1 subtracted in place."""
    probs_src = softmax(x_src @ weights + bias)
    n_src = x_src.shape[0]
    ce = float(-np.log(np.maximum(probs_src[np.arange(n_src), y_src], 1e-300)).mean())
    delta = probs_src.copy()
    delta[np.arange(n_src), y_src] -= 1.0
    delta /= n_src
    grad_w = x_src.T @ delta
    grad_b = delta.sum(axis=0)
    lt = 0.0
    if loss_cfg.lam > 0.0:
        probs_tgt = softmax(x_tgt @ weights + bias)
        out = gradient(probs_tgt, loss_cfg)
        lt = out.value
        inner = (out.grad * probs_tgt).sum(axis=1, keepdims=True)
        delta_t = probs_tgt * (out.grad - inner) * loss_cfg.lam
        grad_w += x_tgt.T @ delta_t
        grad_b += delta_t.sum(axis=0)
    return ce + loss_cfg.lam * lt, ce, lt, grad_w, grad_b


def reference_train(config):
    """The training loop as first written: each step gathers its batch rows by index."""
    data_rng, train_rng = toyuda._rngs(config.seed)
    xs, ys, xt, yt = toyuda._generate(data_rng, config)
    n_src, n_tgt = xs.shape[0], xt.shape[0]
    weights = np.zeros((config.features, config.classes))
    bias = np.zeros(config.classes)
    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    steps = -(-n_tgt // config.batch_size)
    hist = {name: np.empty(config.epochs) for name in ("ce", "lt", "accuracy", "equity", "disc")}
    src_cursor = n_src
    perm_src = np.arange(n_src)
    for epoch in range(config.epochs):
        perm_tgt = train_rng.permutation(n_tgt)
        for k in range(steps):
            tgt_idx = perm_tgt[k * config.batch_size : (k + 1) * config.batch_size]
            if src_cursor + config.batch_size > n_src:
                perm_src = train_rng.permutation(n_src)
                src_cursor = 0
            src_idx = perm_src[src_cursor : src_cursor + config.batch_size]
            src_cursor += config.batch_size
            _, _, _, grad_w, grad_b = reference_objective(
                weights, bias, xs[src_idx], ys[src_idx], xt[tgt_idx], config.loss
            )
            vel_w = config.momentum * vel_w - config.learning_rate * grad_w
            vel_b = config.momentum * vel_b - config.learning_rate * grad_b
            weights = weights + vel_w
            bias = bias + vel_b
        probs_src = softmax(xs @ weights + bias)
        with np.errstate(divide="ignore"):
            ce = float(-np.log(probs_src[np.arange(n_src), ys]).mean())
        if not np.isfinite(ce) or ce > toyuda.DIVERGENCE_CE:
            raise TrainingDivergedError(
                f"epoch {epoch}: source cross-entropy {ce!r} exceeds {toyuda.DIVERGENCE_CE}"
            )
        probs_tgt = softmax(xt @ weights + bias)
        hist["ce"][epoch] = ce
        hist["lt"][epoch] = loss_value(probs_tgt, config.loss)
        hist["accuracy"][epoch] = float((probs_tgt.argmax(axis=1) == yt).mean())
        hist["equity"][epoch] = equity_metric(probs_tgt)
        hist["disc"][epoch] = discriminability(probs_tgt)
    return toyuda.ToyUdaResult(weights=weights, bias=bias, **hist)


# 120 source and 42 target rows in batches of 32: each epoch ends on a
# partial target batch of 10, and the source is reshuffled mid-epoch
WRAPPING = replace(SMALL, source_per_class=40, target_counts=(24, 12, 6), batch_size=32, epochs=8)
# diverges at epoch 4 with ms and at epoch 9 with nsm, so earlier epochs are pending by then
LATE_DIVERGING = replace(SMALL, learning_rate=300.0, noise_scale=1.0, center_spread=1.0, epochs=30)


def flush_every(monkeypatch, cfg, epochs):
    """Make train score its buffered target predictions every ``epochs`` epochs."""
    monkeypatch.setattr(toyuda, "_CHUNK_FLOATS", epochs * sum(cfg.target_counts) * cfg.classes)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ToyUdaConfig()
        assert cfg.classes == 3 and cfg.features == 2
        assert sum(cfg.target_counts) == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"classes": 1},
            {"features": 1},
            {"classes": 4, "target_counts": (5, 5, 5, 5), "features": 2},
            {"target_counts": (10, 10)},
            {"target_counts": (10, 10, 0)},
            {"shift": (1.0,)},
            {"noise_scale": 0.0},
            {"batch_size": 0},
            {"batch_size": 1000},
            {"learning_rate": 0.0},
            {"momentum": 1.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ToyUdaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"epochs": "5"}, "epochs"),
            ({"classes": 3.0}, "classes"),
            ({"batch_size": True}, "batch_size"),
            ({"noise_scale": None}, "noise_scale"),
            ({"learning_rate": "0.1"}, "learning_rate"),
            ({"target_counts": (60.7, 30, 10.9)}, "each entry of target_counts"),
            ({"target_counts": ("60", True, 10)}, "each entry of target_counts"),
            ({"shift": ("1", 0.0)}, "each entry of shift"),
            ({"shift": (False, 0.0)}, "each entry of shift"),
            ({"learning_rate": math.nan}, "learning_rate"),
            ({"noise_scale": math.inf}, "noise_scale"),
            ({"center_spread": -math.inf}, "center_spread"),
            ({"momentum": math.nan}, "momentum"),
            ({"shift": (math.nan, 0.0)}, "each entry of shift"),
        ],
        ids=[
            "epochs_str",
            "classes_float",
            "batch_size_bool",
            "noise_scale_none",
            "learning_rate_str",
            "counts_float",
            "counts_str_bool",
            "shift_str",
            "shift_bool",
            "learning_rate_nan",
            "noise_scale_inf",
            "center_spread_neg_inf",
            "momentum_nan",
            "shift_nan",
        ],
    )
    def test_rejects_wrong_type_naming_the_field(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            ToyUdaConfig(**kwargs)

    def test_type_check_covers_every_number_field(self):
        number_fields = [
            f.name
            for f in fields(ToyUdaConfig)
            if isinstance(f.default, (int, float)) and not isinstance(f.default, bool)
        ]
        assert len(number_fields) == 10
        for name in number_fields:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                ToyUdaConfig(**{name: "1"})

    def test_accepts_numpy_ints_and_int_rates(self):
        cfg = ToyUdaConfig(epochs=np.int64(3), learning_rate=1, center_spread=np.float64(2.0))
        assert cfg.epochs == 3 and cfg.learning_rate == 1

    def test_default_shift_magnitude(self):
        cfg = ToyUdaConfig(noise_scale=0.4)
        assert abs(np.linalg.norm(cfg.resolved_shift()) - 0.6) <= 1e-12


class TestCenters:
    def test_pairwise_equidistant(self):
        for classes, features in [(2, 2), (3, 2), (4, 3), (5, 6)]:
            pts = class_centers(classes, features, 2.5)
            dists = [
                np.linalg.norm(pts[i] - pts[j])
                for i, j in itertools.combinations(range(classes), 2)
            ]
            assert np.allclose(dists, dists[0], atol=1e-9)
            assert np.allclose(np.linalg.norm(pts, axis=1), 2.5, atol=1e-9)


class TestGenerate:
    def test_shapes_and_labels(self):
        xs, ys, xt, yt = generate(SMALL)
        assert xs.shape == (90, 2) and ys.shape == (90,)
        assert xt.shape == (30, 2) and yt.shape == (30,)
        assert np.bincount(yt).tolist() == [18, 9, 3]

    def test_zero_shift_matches_source_distribution(self):
        cfg = replace(SMALL, shift=(0.0, 0.0), target_counts=(30, 30, 30))
        xs, ys, xt, yt = generate(cfg)
        for c in range(3):
            src_mean = xs[ys == c].mean(axis=0)
            tgt_mean = xt[yt == c].mean(axis=0)
            assert np.linalg.norm(src_mean - tgt_mean) < 0.5  # same centers, noise only

    def test_shift_moves_targets(self):
        cfg = replace(SMALL, shift=(5.0, 0.0))
        xs, ys, xt, yt = generate(cfg)
        for c in range(3):
            gap = xt[yt == c].mean(axis=0) - xs[ys == c].mean(axis=0)
            assert abs(gap[0] - 5.0) < 0.7 and abs(gap[1]) < 0.7

    def test_deterministic_and_matches_train_data(self):
        a = generate(SMALL)
        b = generate(SMALL)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestObjective:
    def test_theta_gradients_match_finite_differences(self, rng):
        xs, ys, xt, _ = generate(SMALL)
        xsb, ysb, xtb = xs[:8], ys[:8], xt[:6]
        weights = rng.normal(size=(2, 3)) * 0.4
        bias = rng.normal(size=3) * 0.2
        for cfg in (
            LossConfig("ms", lam=0.5),
            LossConfig("cwsm", r=0.5, lam=1.0),
            LossConfig("nsm", r=0.5, alpha=1.0, epsilon=1e-6, lam=0.8),
            LossConfig("bnm", lam=0.3),
        ):
            total, ce, lt, grad_w, grad_b = objective_and_gradients(
                weights, bias, xsb, ysb, xtb, cfg
            )
            assert abs(total - (ce + cfg.lam * lt)) <= 1e-12

            def obj_w(w_flat):
                w = w_flat.reshape(2, 3)
                probs = softmax(xsb @ w + bias)
                ce_v = -np.log(probs[np.arange(8), ysb]).mean()
                lt_v = loss_value(softmax(xtb @ w + bias), cfg)
                return ce_v + cfg.lam * lt_v

            fd_w = fd_gradient(lambda w: obj_w(w.ravel()), weights.reshape(2, 3))
            assert np.max(np.abs(grad_w - fd_w)) <= 1e-4 * max(1.0, np.abs(fd_w).max())

            def obj_b(bv):
                probs = softmax(xsb @ weights + bv)
                ce_v = -np.log(probs[np.arange(8), ysb]).mean()
                return ce_v + cfg.lam * loss_value(softmax(xtb @ weights + bv), cfg)

            fd_b = fd_gradient(lambda m: obj_b(m.ravel()), bias.reshape(1, 3)).ravel()
            assert np.max(np.abs(grad_b - fd_b)) <= 1e-4 * max(1.0, np.abs(fd_b).max())

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_same_bits_as_the_reference_step(self, rng, kind, lam):
        xs, ys, xt, _ = generate(WRAPPING)
        weights = rng.normal(size=(2, 3)) * 0.4
        bias = rng.normal(size=3) * 0.2
        cfg = LossConfig(kind, lam=lam)
        got = objective_and_gradients(weights, bias, xs[:32], ys[:32], xt[:10], cfg)
        want = reference_objective(weights, bias, xs[:32], ys[:32], xt[:10], cfg)
        assert got[:3] == want[:3]
        assert got[3].tobytes() == want[3].tobytes() and got[4].tobytes() == want[4].tobytes()


class TestTrain:
    def test_trajectory_lengths(self):
        res = train(SMALL)
        for arr in (res.ce, res.lt, res.accuracy, res.equity, res.disc):
            assert arr.shape == (SMALL.epochs,)
        assert res.weights.shape == (2, 3) and res.bias.shape == (3,)
        assert np.all((res.accuracy >= 0) & (res.accuracy <= 1))

    def test_lambda_zero_identical_across_kinds(self):
        results = [
            train(replace(SMALL, loss=LossConfig(kind, r=0.5, lam=0.0)))
            for kind in ("ms", "bnm", "cwsm", "nsm")
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].weights, other.weights)
            assert np.array_equal(results[0].bias, other.bias)
            assert np.array_equal(results[0].accuracy, other.accuracy)

    def test_lambda_matters(self):
        a = train(replace(SMALL, loss=LossConfig("cwsm", r=0.5, lam=0.0)))
        b = train(replace(SMALL, loss=LossConfig("cwsm", r=0.5, lam=1.0)))
        assert not np.array_equal(a.weights, b.weights)

    def test_deterministic(self):
        a = train(SMALL)
        b = train(SMALL)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.equity, b.equity)

    def test_softmax_rows_validate(self):
        res = train(SMALL)
        xs, ys, xt, yt = generate(SMALL)
        validate(softmax(xt @ res.weights + res.bias))

    def test_divergence_guard(self):
        # overlapping classes plus a huge step saturate some true-class
        # probabilities to exact zero
        with pytest.raises(TrainingDivergedError):
            train(
                replace(SMALL, learning_rate=1e6, noise_scale=3.0, center_spread=1.0, epochs=30)
            )

    # flushes every 3 epochs: 4 flushes of SMALL's 12 epochs, 3 of WRAPPING's 8
    @pytest.mark.parametrize("flush_epochs", [None, 3], ids=["one_flush", "flush3"])
    @pytest.mark.parametrize("base", [SMALL, WRAPPING], ids=["batch10", "batch32"])
    @pytest.mark.parametrize("momentum, rate", [(0.0, 0.1), (0.9, 0.02)], ids=["plain", "momentum"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_same_bytes_as_the_reference_loop(self, monkeypatch, kind, lam, momentum, rate, base, flush_epochs):
        # no golden hash: exp, log and power bits follow the CPU's SIMD dispatch
        cfg = replace(base, momentum=momentum, learning_rate=rate, loss=LossConfig(kind, lam=lam))
        if flush_epochs:
            flush_every(monkeypatch, cfg, flush_epochs)
        got = json.dumps(train(cfg).to_dict(), sort_keys=True)
        assert got == json.dumps(reference_train(cfg).to_dict(), sort_keys=True)

    def test_large_target_flushes_three_times(self, monkeypatch):
        # 1000 target rows: the buffer holds 21 epochs, so 60 epochs are scored as 21 + 21 + 18
        cfg = ToyUdaConfig(epochs=60, target_counts=(600, 300, 100), loss=LossConfig("nsm", lam=1.0))
        stacks = []

        def counted(kind, stack, *args):
            stacks.append(stack.shape[0])
            return losses._loss_values_stack(kind, stack, *args)

        monkeypatch.setattr(toyuda, "_loss_values_stack", counted)
        got = json.dumps(train(cfg).to_dict(), sort_keys=True)
        assert stacks == [21, 21, 18]
        assert got == json.dumps(reference_train(cfg).to_dict(), sort_keys=True)

    @pytest.mark.parametrize("flush_epochs", [None, 4], ids=["one_flush", "flush4"])
    @pytest.mark.parametrize(
        "cfg, epoch",
        [
            (replace(SMALL, learning_rate=1e6, noise_scale=3.0, center_spread=1.0, epochs=30), 0),
            (replace(LATE_DIVERGING, loss=LossConfig("ms")), 4),
            (replace(LATE_DIVERGING, loss=LossConfig("nsm")), 9),
        ],
        ids=["epoch0", "epoch4", "epoch9"],
    )
    def test_divergence_message_matches_the_reference_loop(self, monkeypatch, cfg, epoch, flush_epochs):
        if flush_epochs:
            flush_every(monkeypatch, cfg, flush_epochs)
        with pytest.raises(TrainingDivergedError) as want:
            reference_train(cfg)
        with pytest.raises(TrainingDivergedError) as got:
            train(cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"epoch {epoch}: ")

    @pytest.mark.parametrize("later", ["divergence", "step"])
    def test_an_earlier_epochs_scoring_error_wins(self, monkeypatch, later):
        # the reference loop scores each epoch at its end, so an epoch's scoring error comes
        # before any later epoch's error; train scores its buffered epochs before an error leaves it
        def failing_score(*args):
            raise ZeroDivisionError("scoring")

        monkeypatch.setattr(toyuda, "_loss_values_stack", failing_score)
        cfg = replace(LATE_DIVERGING, loss=LossConfig("nsm"))
        if later == "step":
            steps = []

            def failing_step(probs, loss_cfg):
                steps.append(None)
                if len(steps) > 3:  # SMALL takes 3 steps per epoch: fail in epoch 1
                    raise ConvergenceError("step")
                return gradient(probs, loss_cfg)

            monkeypatch.setattr(toyuda, "gradient", failing_step)
        with pytest.raises(ZeroDivisionError, match="^scoring$"):
            train(cfg)

    def test_momentum_variant_runs(self):
        res = train(replace(SMALL, momentum=0.9, learning_rate=0.02))
        assert np.isfinite(res.ce).all()

    def test_source_only_learns(self):
        res = train(replace(SMALL, loss=LossConfig("ms", lam=0.0)))
        assert res.accuracy[-1] > 0.8
        assert res.ce[-1] < res.ce[0]


class TestSerialization:
    def test_save_round_trip(self, tmp_path):
        res = train(replace(SMALL, epochs=3))
        json_path, csv_path = res.save(str(tmp_path / "run"))
        doc = json.loads((tmp_path / "run.json").read_text())
        assert doc["trajectory"]["ce"] == res.ce.tolist()
        assert doc["weights"] == res.weights.tolist()
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "# epoch,ce,lt,acc,equity,disc"
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == res.ce[0]
