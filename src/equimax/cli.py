"""Command-line entry point.

Subcommands: eval, grad, verify, surface, optimize, toyuda, examples.
Display output uses 6 significant digits; files carry full float64
precision.  Exit codes: 0 success, 1 validation error (a usage error
included), 2 budget or convergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import NoReturn

import numpy as np

from . import losses, oracle, optimizer, probmat, toyuda
from .losses import LossConfig

_EPSILON_HELP = "epsilon for the normalized-squares loss; a number or 'auto'"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_epsilon(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"epsilon must be a number or 'auto', got {text!r}")
    return value


def _read_input(path: str, renormalize: bool = False) -> np.ndarray:
    source = sys.stdin if path == "-" else path
    if renormalize:
        return probmat.validate(probmat.renormalize_rows(probmat.read_array_csv(source)))
    return probmat.read_matrix_csv(source)


def _cmd_eval(args) -> int:
    mat = _read_input(args.input, args.renormalize)
    n_rows, n_cols = mat.shape
    eps = LossConfig("nsm", r=args.r, alpha=args.alpha, epsilon=args.epsilon).resolved_epsilon(
        n_rows, n_cols
    )
    cws_val = losses.cws(mat, args.r)
    ns_val = losses.ns(mat, args.r, args.alpha, eps)
    bnm_val = losses.bnm(mat)
    print(f"rows: {n_rows}  cols: {n_cols}")
    print(f"ms: {_fmt(losses.ms(mat))}")
    print(f"bnm: {_fmt(bnm_val)}")
    print(f"cws(r={_fmt(args.r)}): {_fmt(cws_val)}")
    print(f"cwsm(r={_fmt(args.r)}): {_fmt(-cws_val)}")
    print(f"ns(r={_fmt(args.r)}, alpha={_fmt(args.alpha)}, epsilon={_fmt(eps)}): {_fmt(ns_val)}")
    print(f"nsm(r={_fmt(args.r)}, alpha={_fmt(args.alpha)}, epsilon={_fmt(eps)}): {_fmt(-ns_val)}")
    print(f"nuclear_norm: {_fmt(-n_rows * bnm_val)}")
    print(f"discriminability: {_fmt(losses.discriminability(mat))}")
    print(f"equity: {_fmt(losses.equity_metric(mat))}")
    return 0


def _cmd_grad(args) -> int:
    mat = _read_input(args.input)
    cfg = LossConfig(args.loss, r=args.r, alpha=args.alpha, epsilon=args.epsilon)
    out = losses.gradient(mat, cfg)
    probmat.write_matrix_csv(args.out, out.grad, header=f"# d({args.loss})/dP")
    print(f"loss: {_fmt(out.value)}")
    print(f"exact: {out.exact}")
    print(f"gradient written to {args.out}")
    return 0


def _theorem_summary(rep: oracle.TheoremReport) -> str:
    bits = [f"theorem {rep.theorem}: {rep.verdict.upper()}"]
    if rep.optimum is not None:
        bits.append(f"optimum={_fmt(rep.optimum)}")
    if rep.predicted is not None:
        bits.append(f"predicted={rep.predicted}")
    if rep.argmax:
        shown = rep.argmax if len(rep.argmax) <= 8 else rep.argmax[:8] + ["..."]
        bits.append(f"argmax={shown}")
    return "  ".join(str(b) for b in bits)


def _cmd_verify(args) -> int:
    # each statement checks the parameters it uses; only epsilon needs resolving here
    eps = LossConfig("nsm", epsilon=args.epsilon).resolved_epsilon(args.b, args.c)
    if args.theorem == "all":
        reports = oracle.verify_all(
            args.b, args.c, r=args.r, alpha=args.alpha, epsilon=eps, seed=args.seed, trials=args.trials
        )
    else:
        num = int(args.theorem)
        if num == 1:
            rep = oracle.verify_theorem_1(args.b, args.c)
        elif num == 2:
            rep = oracle.verify_theorem_2(args.b, args.c, args.r, trials=args.trials, seed=args.seed)
        elif num == 3:
            rep = oracle.verify_theorem_3(args.b, args.c, args.r)
        elif num in (4, 5):
            rep = oracle.verify_theorem_4_5(
                args.b, args.c, args.alpha, eps, seed=args.seed, theorem_id=num
            )
        else:
            rep = oracle.verify_theorem_6(args.b, args.c, args.r, args.alpha, eps, seed=args.seed)
        reports = [rep]
    probmat.write_json(args.out, [r.to_dict() for r in reports] if args.theorem == "all" else rep.to_dict())
    for rep in reports:
        print(_theorem_summary(rep))
    print(f"report written to {args.out}")
    return 0 if all(r.verdict in ("pass", "descriptive", "skipped") for r in reports) else 1


def _cmd_surface(args) -> int:
    cfg = LossConfig(args.loss, r=args.r, alpha=args.alpha, epsilon=args.epsilon)
    surf = optimizer.surface(cfg, args.grid)
    sidecar = optimizer.write_surface_csv(surf, args.out)
    print(f"grid: {args.grid} x {args.grid}")
    print(f"max value: {_fmt(surf.max_value)}")
    print(f"argmax points: {[(float(_fmt(a)), float(_fmt(b))) for a, b in surf.argmax]}")
    print(f"surface written to {args.out}; argmax sidecar {sidecar}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = LossConfig(args.loss, r=args.r, alpha=args.alpha, epsilon=args.epsilon)
    ascent = optimizer.AscentConfig(
        inits=args.inits, steps=args.steps, step_size=args.lr, seed=args.seed
    )
    result = optimizer.maximize(cfg, args.b, args.c, ascent)
    print(f"best value (negated loss): {_fmt(result.best_value)}")
    print("best matrix:")
    for row in result.best_matrix:
        print(",".join(_fmt(v) for v in row))
    print(f"class sizes: {[float(_fmt(s)) for s in probmat.class_sizes(result.best_matrix)]}")
    print(f"starts within 1e-9 of best: {int(np.sum(result.final_values >= result.best_value - 1e-9))}/{args.inits}")
    counts = ", ".join(f"{why} {result.retire_reasons.count(why)}" for why in optimizer.RETIRE_REASONS)
    print(f"retire reasons: {counts}")
    return 0


def _check_keys(where: str, obj, allowed: list[str]) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}, expected some of {allowed}")


def _loss_number(key: str, value) -> float:
    # the rule ToyUdaConfig applies to its own number fields
    toyuda._check_number(f"{key!r} in config key 'loss'", value)
    return float(value)


def _cmd_toyuda(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    # the seed comes from --seed, never from the file
    fields = [f.name for f in dataclasses.fields(toyuda.ToyUdaConfig) if f.name != "seed"]
    _check_keys("the toyuda config", overrides, fields)
    loss_over = overrides.pop("loss", {})
    _check_keys("config key 'loss'", loss_over, ["r", "alpha", "epsilon"])
    epsilon = loss_over.get("epsilon", "auto")
    loss_cfg = LossConfig(
        args.loss,
        r=_loss_number("r", loss_over.get("r", 0.5)),
        alpha=_loss_number("alpha", loss_over.get("alpha", 1.0)),
        epsilon=epsilon if isinstance(epsilon, str) else _loss_number("epsilon", epsilon),
        lam=args.lam,
    )
    config = toyuda.ToyUdaConfig(loss=loss_cfg, seed=args.seed, **overrides)
    result = toyuda.train(config)
    json_path, csv_path = result.save(args.out_prefix)
    print(f"final accuracy: {_fmt(float(result.accuracy[-1]))}")
    print(f"final equity: {_fmt(float(result.equity[-1]))}")
    print(f"final discriminability: {_fmt(float(result.disc[-1]))}")
    print(f"trajectory written to {json_path} and {csv_path}")
    return 0


def _cmd_examples(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name, mat in probmat.EXAMPLES_4X2.items():
        path = os.path.join(args.out_dir, f"{name.lower()}_4x2.csv")
        probmat.write_matrix_csv(path, mat, header=f"# {name} (4x2)")
        written.append(path)
    for name, mat in probmat.EXAMPLES_2X2.items():
        path = os.path.join(args.out_dir, f"{name.lower()}_2x2.csv")
        probmat.write_matrix_csv(path, mat, header=f"# {name} (2x2)")
        written.append(path)
    for path in written:
        print(path)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors: exit code 1, not argparse's 2.

    Subcommand parsers are made of the same class, so theirs exit 1 too; ``--help`` still exits 0.
    """

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every caller."""
    parser = _Parser(
        prog="equimax",
        description="Batch prediction losses, brute-force optimality checks, and a toy two-domain trainer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_loss_params(p, with_loss=True, epsilon_default="auto"):
        if with_loss:
            p.add_argument("--loss", required=True, choices=losses.LOSS_KINDS)
        p.add_argument("--r", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--epsilon", type=_parse_epsilon, default=epsilon_default, help=_EPSILON_HELP)

    p_eval = sub.add_parser("eval", help="print all loss values and metrics for a matrix CSV")
    p_eval.add_argument("--input", required=True, help="matrix CSV path, or '-' for stdin")
    add_loss_params(p_eval, with_loss=False)
    p_eval.add_argument("--renormalize", action="store_true", help="divide rows by their sums first")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("grad", help="write the analytic gradient of one loss")
    p_grad.add_argument("--input", required=True)
    add_loss_params(p_grad)
    p_grad.add_argument("--out", required=True)
    p_grad.set_defaults(func=_cmd_grad)

    p_verify = sub.add_parser("verify", help="brute-force optimality checks, JSON report")
    p_verify.add_argument("--theorem", required=True, choices=["1", "2", "3", "4", "5", "6", "all"])
    p_verify.add_argument("--b", type=int, required=True)
    p_verify.add_argument("--c", type=int, required=True)
    add_loss_params(p_verify, with_loss=False)
    p_verify.add_argument("--seed", type=lambda s: int(s, 0), default=oracle.DEFAULT_SEED)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--out", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_surface = sub.add_parser("surface", help="negated-loss surface on the 2x2 family")
    add_loss_params(p_surface, epsilon_default=1e-6)
    p_surface.add_argument("--grid", type=int, default=201)
    p_surface.add_argument("--out", required=True)
    p_surface.set_defaults(func=_cmd_surface)

    p_opt = sub.add_parser("optimize", help="multi-start projected gradient ascent")
    add_loss_params(p_opt)
    p_opt.add_argument("--b", type=int, required=True)
    p_opt.add_argument("--c", type=int, required=True)
    p_opt.add_argument("--inits", type=int, default=64)
    p_opt.add_argument("--steps", type=int, default=2000)
    p_opt.add_argument("--lr", type=float, default=0.05)
    p_opt.add_argument("--seed", type=lambda s: int(s, 0), default=oracle.DEFAULT_SEED)
    p_opt.set_defaults(func=_cmd_optimize)

    p_toy = sub.add_parser("toyuda", help="train the toy two-domain classifier")
    p_toy.add_argument("--loss", required=True, choices=losses.LOSS_KINDS)
    p_toy.add_argument("--lambda", dest="lam", type=float, required=True)
    p_toy.add_argument("--config", default=None, help="JSON file overriding config fields")
    p_toy.add_argument("--seed", type=lambda s: int(s, 0), default=oracle.DEFAULT_SEED)
    p_toy.add_argument("--out-prefix", default="toyuda")
    p_toy.set_defaults(func=_cmd_toyuda)

    p_ex = sub.add_parser("examples", help="write the canonical example matrices as CSV")
    p_ex.add_argument("--out-dir", required=True)
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (probmat.BudgetError, losses.ConvergenceError, toyuda.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (probmat.DimensionError, probmat.DomainError, ZeroDivisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
