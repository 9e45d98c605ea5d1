import io
import json
import os

import numpy as np
import pytest

from equimax import losses, optimizer, oracle, toyuda
from equimax.cli import run
from equimax.probmat import (
    DimensionError,
    EXAMPLES_4X2,
    read_array_csv,
    read_matrix_csv,
    renormalize_rows,
    validate,
    write_matrix_csv,
)


@pytest.fixture
def p3_path(tmp_path):
    path = tmp_path / "p3.csv"
    write_matrix_csv(path, EXAMPLES_4X2["P3"])
    return str(path)


class TestEval:
    def test_p3_values(self, p3_path, capsys):
        assert run(["eval", "--input", p3_path]) == 0
        out = capsys.readouterr().out
        assert "nuclear_norm: 2.82843" in out
        assert "cws(r=0.5): 1.41421" in out
        assert "ns(r=0.5, alpha=1, epsilon=0): 0.5" in out
        assert "ms: -1" in out
        assert "equity: 1" in out
        assert "discriminability: 1" in out

    @pytest.mark.parametrize(
        "name, bnm_line, nuclear_line",
        [("P1", "bnm: -0.5", "nuclear_norm: 2"),
         ("P2", "bnm: -0.683013", "nuclear_norm: 2.73205"),
         ("P3", "bnm: -0.707107", "nuclear_norm: 2.82843")],
    )
    def test_one_jacobi_pass_per_matrix(self, tmp_path, capsys, monkeypatch, name, bnm_line, nuclear_line):
        calls = []
        jacobi = losses._jacobi_orthogonalize
        monkeypatch.setattr(losses, "_jacobi_orthogonalize", lambda *a, **k: calls.append(1) or jacobi(*a, **k))
        path = tmp_path / f"{name}.csv"
        write_matrix_csv(path, EXAMPLES_4X2[name])
        assert run(["eval", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(calls) == 1
        assert bnm_line in lines and nuclear_line in lines

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1,0\n0,1\n"))
        assert run(["eval", "--input", "-"]) == 0
        assert "ms: -1" in capsys.readouterr().out

    def test_invalid_matrix_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.6,0.6\n0.5,0.5\n")
        assert run(["eval", "--input", str(path)]) == 1
        assert "row 0 sums to 1.2" in capsys.readouterr().err

    def test_renormalize(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.6,0.6\n2.0,2.0\n")
        assert run(["eval", "--input", str(path), "--renormalize"]) == 0
        assert "ms: -0.5" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert run(["eval", "--input", "no/such/file.csv"]) == 1

    def test_unknown_flag_rejected(self, p3_path):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--input", p3_path, "--bogus"])
        assert exc.value.code == 1


class TestGrad:
    def test_writes_gradient(self, p3_path, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        assert run(["grad", "--input", p3_path, "--loss", "ms", "--out", str(out_path)]) == 0
        grad = np.array(
            [[float(t) for t in line.split(",")] for line in out_path.read_text().splitlines()[1:]]
        )
        assert np.allclose(grad, -0.5 * np.asarray(EXAMPLES_4X2["P3"]))
        assert "exact: True" in capsys.readouterr().out

    def test_bad_epsilon_rejected(self, p3_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["grad", "--input", p3_path, "--loss", "nsm", "--epsilon", "huh", "--out", str(tmp_path / "g.csv")])
        assert exc.value.code == 1


class TestVerify:
    def test_theorem_1(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        assert run(["verify", "--theorem", "1", "--b", "4", "--c", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["argmax"] == [[2, 2]]
        assert "theorem 1: PASS" in capsys.readouterr().out

    def test_theorem_all_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--theorem", "all", "--b", "2", "--c", "3", "--out"]
        assert run(args + [str(a)]) == 0
        assert run(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        docs = json.loads(a.read_text())
        assert [d["theorem"] for d in docs] == [1, 2, 3, 4, 5, 6]
        assert all(d["verdict"] == "pass" for d in docs)

    def test_theorem_6_requires_b_le_c(self, tmp_path, capsys):
        assert run(["verify", "--theorem", "6", "--b", "4", "--c", "2", "--out", str(tmp_path / "x.json")]) == 1
        assert "B <= C" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["1", "3"])
    def test_ignores_alpha_the_statement_does_not_use(self, theorem, tmp_path):
        # alpha = 0 with the default r would make an ill-posed nsm loss, which statements 1 and 3 never build
        out = tmp_path / "t.json"
        assert run(["verify", "--theorem", theorem, "--b", "3", "--c", "3", "--alpha", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "pass"

    def test_theorem_6_rejects_epsilon_zero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert run(["verify", "--theorem", "6", "--b", "3", "--c", "3", "--epsilon", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: statement 6 requires epsilon > 0, got 0.0"]
        assert not out.exists()

    def test_all_skips_theorem_6_at_epsilon_zero(self, tmp_path):
        # statements 4 and 5 run at epsilon = 0; statement 6 says why it did not run
        out = tmp_path / "t.json"
        assert run(["verify", "--theorem", "all", "--b", "3", "--c", "3", "--epsilon", "0", "--out", str(out)]) == 0
        docs = json.loads(out.read_text())
        assert [(d["theorem"], d["verdict"]) for d in docs] == [(t, "pass") for t in range(1, 6)] + [(6, "skipped")]
        assert docs[4]["params"]["epsilon"] == 0.0
        assert docs[5]["params"] == {"b": 3, "c": 3, "reason": "requires epsilon > 0"}

    @pytest.mark.parametrize("theorem", ["2", "all"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_one_error_line(self, theorem, trials, tmp_path, capsys):
        out = tmp_path / "t.json"
        argv = ["verify", "--theorem", theorem, "--b", "3", "--c", "3", "--trials", trials]
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: trials must be >= 1, got {trials}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "theorem, b, c",
        # theorem 6 at 3 x 1 stops earlier, at its own B <= C check
        [("3", "0", "3"), ("3", "3", "1"), ("4", "0", "3"), ("4", "3", "1"), ("5", "0", "3"), ("5", "3", "1"),
         ("6", "0", "3"), ("1", "-1", "2"), ("all", "3", "0")],
    )
    def test_bad_shape_is_one_error_line(self, theorem, b, c, tmp_path, capsys):
        out = tmp_path / "t.json"
        # theorem 3 at r = 1, its descriptive regime, which names no balanced sizes
        r = ["--r", "1"] if theorem == "3" else []
        assert run(["verify", "--theorem", theorem, "--b", b, "--c", c, "--out", str(out)] + r) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: need n_rows >= 1 and n_cols >= 2, got {b}, {c}"]
        assert not out.exists()

    def test_failed_verdict_nonzero_exit(self, tmp_path, monkeypatch):
        import equimax.cli as cli

        real = cli.oracle.verify_theorem_1

        def fake(*args, **kwargs):
            rep = real(2, 2)
            rep.verdict = "fail"
            return rep

        monkeypatch.setattr(cli.oracle, "verify_theorem_1", fake)
        assert run(["verify", "--theorem", "1", "--b", "2", "--c", "2", "--out", str(tmp_path / "f.json")]) == 1


class TestSurface:
    def test_bnm_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["surface", "--loss", "bnm", "--grid", "41", "--out", str(out)]) == 0
        rows = read_array_csv(str(out))
        assert rows.shape == (41 * 41, 3)
        doc = json.loads((tmp_path / "s.csv.argmax.json").read_text())
        assert doc["argmax"] == [[0.0, 1.0], [1.0, 0.0]]

    def test_full_grid_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["surface", "--loss", "ms", "--grid", "201", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 40401


def test_one_parser_keeps_subcommand_defaults(tmp_path, capsys, p3_path):
    from equimax import cli

    assert cli.build_parser() is cli.build_parser()
    surface_csv = tmp_path / "s.csv"
    assert run(["surface", "--loss", "nsm", "--grid", "3", "--out", str(surface_csv)]) == 0
    assert json.loads((tmp_path / "s.csv.argmax.json").read_text())["epsilon"] == 1e-6
    assert run(["grad", "--loss", "nsm", "--input", p3_path, "--out", str(tmp_path / "g.csv")]) == 0
    assert run(["eval", "--input", p3_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    # epsilon "auto" resolves to 0 at B > C; the surface default would give -0.500004
    assert "loss: -0.5" in lines
    assert "ns(r=0.5, alpha=1, epsilon=0): 0.5" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--input", "{input}", "--r", "abc"],
        ["verify", "--theorem", "7", "--b", "3", "--c", "3", "--out", "{out}/v.json"],
        ["grad", "--input", "{input}", "--loss", "huber", "--out", "{out}/g.csv"],
        ["optimize", "--loss", "ms", "--b", "3"],
        [],
    ],
    ids=["eval_r_not_a_number", "verify_theorem_7", "grad_unknown_loss", "optimize_missing_c", "no_command"],
)
def test_usage_error_exits_1(argv, p3_path, tmp_path, capsys):
    # the README gives exit code 2 to budget and convergence errors, so argparse's 2 is not used
    with pytest.raises(SystemExit) as exc:
        run([a.format(input=p3_path, out=tmp_path) for a in argv])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) + list(tmp_path.glob("g.csv")) == []


@pytest.mark.parametrize("argv", [["--help"], ["grad", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: equimax" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, name",
    [
        (["eval", "--input", "{input}", "--alpha", "nan"], "alpha"),
        (["eval", "--input", "{input}", "--epsilon", "inf"], "epsilon"),
        (["grad", "--input", "{input}", "--loss", "nsm", "--alpha", "inf", "--out", "{out}/g.csv"], "alpha"),
        (["verify", "--theorem", "4", "--b", "3", "--c", "3", "--epsilon", "nan", "--out", "{out}/v.json"], "epsilon"),
        (["surface", "--loss", "nsm", "--alpha", "nan", "--out", "{out}/s.csv"], "alpha"),
        (["optimize", "--loss", "ms", "--b", "3", "--c", "3", "--lr", "nan"], "step_size"),
        (["optimize", "--loss", "ms", "--b", "3", "--c", "3", "--lr", "inf"], "step_size"),
        (["toyuda", "--loss", "ms", "--lambda", "nan", "--out-prefix", "{out}/run"], "lam"),
        (["toyuda", "--loss", "bnm", "--lambda", "inf", "--out-prefix", "{out}/run"], "lam"),
    ],
    ids=[
        "eval_alpha_nan",
        "eval_epsilon_inf",
        "grad_alpha_inf",
        "verify_epsilon_nan",
        "surface_alpha_nan",
        "optimize_lr_nan",
        "optimize_lr_inf",
        "toyuda_lambda_nan",
        "toyuda_lambda_inf",
    ],
)
def test_non_finite_parameter_is_one_error_line(argv, name, p3_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run([a.format(input=p3_path, out=out_dir) for a in argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be") and "finite" in err[0]
    assert "error:" not in captured.out
    assert list(out_dir.iterdir()) == []


class TestOptimize:
    def test_cwsm(self, capsys):
        code = run(
            ["optimize", "--loss", "cwsm", "--b", "4", "--c", "2", "--inits", "12", "--steps", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best value (negated loss): 1.41421" in out
        assert "class sizes: [2.0, 2.0]" in out

    @pytest.mark.parametrize("b,c", [(0, 3), (3, 1)])
    def test_rejects_degenerate_shape(self, b, c, capsys):
        argv = ["optimize", "--loss", "ms", "--b", str(b), "--c", str(c)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: need n_rows >= 1 and n_cols >= 2, got {b}, {c}\n"

    def test_retire_reason_counts(self, capsys):
        argv = ["optimize", "--loss", "nsm", "--r", "0.5", "--epsilon", "1e-6", "--b", "3", "--c", "3"]
        assert run(argv + ["--inits", "48", "--steps", "600"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "retire reasons: converged 47, no improving step 1, step cap 0"


class TestToyuda:
    def test_writes_trajectories(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {"epochs": 5, "source_per_class": 20, "target_counts": [12, 6, 3], "batch_size": 7}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = run(
            [
                "toyuda",
                "--loss",
                "cwsm",
                "--lambda",
                "1.0",
                "--config",
                "cfg.json",
                "--out-prefix",
                "run",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert len(doc["trajectory"]["ce"]) == 5
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "# epoch,ce,lt,acc,equity,disc"
        assert len(lines) == 6
        assert "final accuracy:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"epochs": 5, "colour": "red"}, "colour"),
            ({"seed": 3}, "seed"),
            ({"loss": 0.5}, "loss"),
            ({"target_counts": 5}, "target_counts"),
            ({"loss": {"R": 1.0}}, "R"),
            ({"epochs": "5"}, "epochs"),
            ({"loss": {"r": [1]}}, "'r'"),
            ({"loss": {"r": "0.5"}}, "'r'"),
            ({"loss": {"alpha": True}}, "'alpha'"),
            ({"loss": {"epsilon": False}}, "'epsilon'"),
            ({"target_counts": [60.7, 30, 10.9]}, "target_counts"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"noise_scale": float("inf")}, "noise_scale"),
            ({"center_spread": float("nan")}, "center_spread"),
            ({"shift": [float("nan"), 0.0]}, "shift"),
            ({"loss": {"alpha": float("nan")}}, "'alpha'"),
            ({"loss": {"epsilon": float("inf")}}, "'epsilon'"),
        ],
        ids=[
            "unknown_key",
            "seed_key",
            "loss_not_object",
            "target_counts_scalar",
            "loss_key_typo",
            "epochs_string",
            "loss_r_list",
            "loss_r_string",
            "loss_alpha_bool",
            "loss_epsilon_bool",
            "target_counts_floats",
            "learning_rate_nan",
            "noise_scale_inf",
            "center_spread_nan",
            "shift_nan",
            "loss_alpha_nan",
            "loss_epsilon_inf",
        ],
    )
    def test_bad_config_is_one_error_line(self, cfg, key, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["toyuda", "--loss", "nsm", "--lambda", "1", "--config", str(tmp_path / "cfg.json")]
        assert run(argv + ["--out-prefix", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "run.json").exists()

    def test_round_trip_csv_matches_json(self, tmp_path):
        code = run(
            [
                "toyuda",
                "--loss",
                "ms",
                "--lambda",
                "0.0",
                "--out-prefix",
                str(tmp_path / "r"),
                "--config",
                "-",
            ]
        )
        assert code == 1  # '-' is not a readable config path


class TestExamples:
    def test_writes_all_canonical_files(self, tmp_path, capsys):
        out_dir = tmp_path / "mats"
        assert run(["examples", "--out-dir", str(out_dir)]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == [
            "p1_2x2.csv",
            "p1_4x2.csv",
            "p2_2x2.csv",
            "p2_4x2.csv",
            "p3_2x2.csv",
            "p3_4x2.csv",
            "p4_2x2.csv",
        ]
        mat = read_matrix_csv(str(out_dir / "p2_4x2.csv"))
        assert np.array_equal(mat, EXAMPLES_4X2["P2"])


def test_machine_outputs_round_trip(tmp_path):
    # gradient CSV written by the CLI parses back with full precision
    from equimax.probmat import read_array_csv

    path = tmp_path / "m.csv"
    write_matrix_csv(path, np.asarray(EXAMPLES_4X2["P2"]))
    out = tmp_path / "g.csv"
    assert run(["grad", "--input", str(path), "--loss", "cwsm", "--r", "0.5", "--out", str(out)]) == 0
    grad = read_array_csv(str(out))
    from equimax.losses import LossConfig, gradient

    expect = gradient(np.asarray(EXAMPLES_4X2["P2"]), LossConfig("cwsm", r=0.5)).grad
    assert np.array_equal(grad, expect)


@pytest.mark.parametrize("case", ["report", "report_all", "sidecar", "toyuda"])
def test_json_files_are_sorted_two_space_dumps(case, tmp_path):
    # every JSON file comes from probmat.write_json: the dump of its object, no trailing newline
    path = tmp_path / "out.json"
    if case == "report":
        assert run(["verify", "--theorem", "1", "--b", "4", "--c", "2", "--out", str(path)]) == 0
        obj = oracle.verify_theorem_1(4, 2).to_dict()
    elif case == "report_all":
        assert run(["verify", "--theorem", "all", "--b", "2", "--c", "3", "--out", str(path)]) == 0
        obj = [rep.to_dict() for rep in oracle.verify_all(2, 3)]
    elif case == "sidecar":
        grid = optimizer.surface(losses.LossConfig("bnm"), 21)
        path = optimizer.write_surface_csv(grid, str(tmp_path / "s.csv"))
        obj = {
            "loss": "bnm",
            "r": 0.5,
            "alpha": 1.0,
            "epsilon": 1e-6,
            "grid": 21,
            "max_value": grid.max_value,
            "argmax": [[0.0, 1.0], [1.0, 0.0]],
        }
    else:
        result = toyuda.train(toyuda.ToyUdaConfig(epochs=3))
        path, _ = result.save(str(tmp_path / "run"))
        obj = result.to_dict()
    with open(path, "rb") as fh:
        assert fh.read() == json.dumps(obj, sort_keys=True, indent=2).encode("utf-8")


def test_toyuda_csv_round_trips_through_reader(tmp_path):
    code = run(
        [
            "toyuda",
            "--loss",
            "ms",
            "--lambda",
            "0.5",
            "--out-prefix",
            str(tmp_path / "run"),
            "--config",
            str(tmp_path / "cfg.json"),
        ]
    )
    assert code == 1  # config file missing
    (tmp_path / "cfg.json").write_text(
        '{"epochs": 4, "source_per_class": 15, "target_counts": [9, 6, 3], "batch_size": 6}'
    )
    code = run(
        [
            "toyuda",
            "--loss",
            "ms",
            "--lambda",
            "0.5",
            "--out-prefix",
            str(tmp_path / "run"),
            "--config",
            str(tmp_path / "cfg.json"),
        ]
    )
    assert code == 0
    rows = read_array_csv(str(tmp_path / "run.csv"))
    assert rows.shape == (4, 6)
    assert np.array_equal(rows[:, 0], np.arange(4))



def _per_line_read_array_csv(source):
    """The line-by-line, token-by-token parser the package used to run, the reference for the bulk one."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rows = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#") and not rows:
            continue
        try:
            rows.append([float(tok) for tok in stripped.split(",")])
        except ValueError as exc:
            raise DimensionError(f"unparseable CSV line {stripped!r}: {exc}") from None
    if not rows:
        raise DimensionError("CSV input contains no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DimensionError(f"ragged CSV input, row widths {sorted(widths)}")
    return np.array(rows)


def _outcome(call):
    """("ok", shape, bytes) of the returned array, or (exception type, message)."""
    try:
        arr = call()
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", arr.shape, arr.tobytes()


@pytest.mark.parametrize(
    "reader",
    [read_matrix_csv, read_array_csv, "eval --renormalize"],
    ids=["read_matrix_csv", "read_array_csv", "eval_renormalize"],
)
@pytest.mark.parametrize(
    "text, message",
    [
        ("# header\n0.5,0.5\n# late comment\n0.5,0.5\n", "unparseable CSV line '# late comment'"),
        ("0.5,0.5\n0.2,0.3,0.5\n", "ragged CSV input"),
        ("0.5,0.5\n0.5,half\n", "unparseable CSV line '0.5,half'"),
        ("", "no data rows"),
        ("1,2,\n", "unparseable CSV line '1,2,'"),
        (",\n", "unparseable CSV line ','"),
        (" 1 , 2 \n", None),
        ("1_0,2\n", None),
        ("# h\r\n0.25,0.75\r\n0.5,0.5\r\n", None),
        ("0.25,0.75\n\n  \n0.5,0.5\n\n", None),
        ("0.5,0.5\n0.2,0.3,0.5\n0.5,half\n0.1,0.9\n", "unparseable CSV line '0.5,half'"),
    ],
    ids=[
        "comment_after_data",
        "ragged",
        "unparseable",
        "empty",
        "trailing_comma",
        "lone_comma",
        "padded_tokens",
        "underscore_digits",
        "crlf",
        "blank_lines_between_rows",
        "ragged_and_unparseable",
    ],
)
def test_csv_readers_share_one_parser(reader, text, message, tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    if reader == "eval --renormalize":
        want = _outcome(lambda: validate(renormalize_rows(_per_line_read_array_csv(str(path)))))
        code = run(["eval", "--input", str(path), "--renormalize"])
        err = capsys.readouterr().err
        if want[0] == "ok":
            assert code == 0 and err == ""
        else:
            assert code == 1 and err == f"error: {want[1]}\n"
    else:
        wrap = validate if reader is read_matrix_csv else (lambda arr: arr)
        want = _outcome(lambda: wrap(_per_line_read_array_csv(str(path))))
        assert _outcome(lambda: reader(str(path))) == want
        # a stream is read without newline translation, so '\r\n' reaches the line split
        want = _outcome(lambda: wrap(_per_line_read_array_csv(io.StringIO(text, newline=""))))
        assert _outcome(lambda: reader(io.StringIO(text, newline=""))) == want
    if message is not None:
        assert want[0] is DimensionError and message in want[1]
