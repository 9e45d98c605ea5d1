"""The four workloads: seeded inputs, the command list, and a check per op.

Every workload is a fixed list of ops built from the workload seed before
timing starts; the program only ever sees the generated files and
arguments.  An op is one ``equimax`` command run in-process through
``cli.run`` with stdout captured, or, where the command line cannot express
the settings (ascent starts and step cap, composition-only checks), one
call into ``equimax.oracle``.  Each op has a check against
:mod:`reference`; a failed check, an exception or a non-zero exit code
counts the op as failed.

Why these workloads:

* ``verify``: ascent does most of the work here and none elsewhere; the
  step-cap stall of the multi-start ascent is its tail, and the
  composition searches and one-hot SVD stacks make the many small ops.
* ``eval_wide``: many-class matrices, so the Jacobi SVD (three per matrix)
  dominates while CSV parsing and validation do little.
* ``eval_tall``: tall few-class matrices, so CSV parsing, row validation,
  the gradient CSV write and the dense O(B^2) nsm gradient dominate while
  the SVD has at most 45 column pairs; its largest matrix sets peak memory.
* ``toyuda``: thousands of single-matrix loss and gradient calls on
  batches of about 30 x 3, the per-call overhead the eval workloads
  do not see.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import reference as ref

WORKLOADS = ("verify", "eval_wide", "eval_tall", "toyuda")

# criterion-4 ascent settings from the acceptance suite
ASCENT_STARTS = 48
ASCENT_STEPS = 600
TOYUDA_EPOCHS = 40


@dataclass
class CliResult:
    code: int
    stdout: str


@dataclass
class Op:
    """One command; ``outputs`` are the files it writes."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    outputs: tuple = ()
    verdicts: dict = field(default_factory=dict)

    def verdict(self, result) -> Optional[str]:
        """The check's verdict; a repeat whose output is byte-identical reuses it."""
        digest = hashlib.sha256(repr(result).encode())
        for path in self.outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        key = digest.hexdigest()
        if key not in self.verdicts:
            self.verdicts[key] = self.check(result)
        return self.verdicts[key]


def cli_op(label: str, argv: list[str], check: Callable[[CliResult], Optional[str]], outputs=()) -> Op:
    def run() -> CliResult:
        from equimax import cli  # looked up per call so the tracer's wrapper is seen

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return CliResult(code, out.getvalue())

    def checked(res: CliResult) -> Optional[str]:
        if res.code != 0:
            return f"exit code {res.code}"
        return check(res)

    return Op(label, run, checked, tuple(outputs))


def _ladder(n: int) -> np.ndarray:
    """n evenly spaced quantiles in (0, 1): shapes come from fixed ladders
    jittered by the seed, so every seed runs about the same amount of work."""
    return (np.arange(n) + 0.5) / n


def _printed(stdout: str) -> dict[str, float]:
    """``name: value`` lines of a command's output, names cut at '('."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.rpartition(": ")
        if sep and not key.startswith("rows"):
            try:
                out[key.split("(", 1)[0]] = float(value)
            except ValueError:
                pass
    return out


# ---------------------------------------------------------------------------
# eval_wide / eval_tall


def _matrix_ops(name: str, P: np.ndarray, r: float, workdir: str) -> list[Op]:
    """``eval`` plus ``grad`` for each loss on one matrix written as CSV."""
    n_rows, n_cols = P.shape
    path = os.path.join(workdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(x)) for x in row) + "\n" for row in P)
    alpha = 1.0
    cache: dict = {}

    def values():
        if "values" not in cache:
            cache["values"] = ref.eval_values(P, r, alpha)
        return cache["values"]

    def check_eval(res: CliResult) -> Optional[str]:
        if f"rows: {n_rows}  cols: {n_cols}" not in res.stdout:
            return "shape line missing"
        printed = _printed(res.stdout)
        for key, want in values().items():
            if key not in printed:
                return f"{key} not printed"
            if not ref.close_at_6_digits(printed[key], want):
                return f"{key} printed {printed[key]!r}, reference {want!r}"
        return None

    ops = [cli_op(f"eval {name}", ["eval", "--input", path, "--r", str(r)], check_eval)]
    for kind in ("ms", "bnm", "cwsm", "nsm"):
        out = os.path.join(workdir, f"{name}.{kind}.grad.csv")

        def check_grad(res: CliResult, kind=kind, out=out) -> Optional[str]:
            printed = _printed(res.stdout)
            if not ref.close_at_6_digits(printed.get("loss", math.nan), values()[kind]):
                return f"loss printed {printed.get('loss')!r}, reference {values()[kind]!r}"
            got = np.loadtxt(out, delimiter=",", comments="#", ndmin=2)
            if kind not in cache:
                cache[kind] = ref.gradient(P, kind, r, alpha)
            want = cache[kind]
            err = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
            if not err <= 1e-7 * float(np.abs(want).max()):
                return f"{kind} gradient differs from reference by {err:.3g}"
            return None

        argv = ["grad", "--input", path, "--loss", kind, "--r", str(r), "--out", out]
        ops.append(cli_op(f"grad {kind} {name}", argv, check_grad, [out]))
    return ops


def eval_wide(rng: np.random.Generator, workdir: str) -> list[Op]:
    """20 matrices, C in 12..32 weighted toward 12, B in C..8C."""
    n = 20
    q = _ladder(n)
    cols = 12 + np.round(20 * q**2).astype(int)
    mult = 1.0 + 7.0 * q[(7 * np.arange(n)) % n] ** 2  # fixed pairing of C and B/C ladders
    ops = []
    for i in rng.permutation(n):
        c = int(cols[i])
        b = max(c, int(round(c * mult[i] * rng.uniform(0.97, 1.03))))
        P = rng.dirichlet(np.ones(c), size=b)
        ops += _matrix_ops(f"wide{i:02d}_{b}x{c}", P, 0.5, workdir)
    return ops


def eval_tall(rng: np.random.Generator, workdir: str) -> list[Op]:
    """20 matrices, B in 512..4096 weighted toward 512 (one always 4096), C in 2..10, r = 0.5."""
    n = 20
    rows = np.round(512 * 8.0 ** ((np.arange(n) / (n - 1)) ** 2) * rng.uniform(0.97, 1.03, n)).astype(int)
    rows = np.clip(rows, 512, 4096)
    rows[-1] = 4096  # the peak-memory matrix is in every run
    cols = 2 + (7 * np.arange(n)) % 9
    ops = []
    for i in rng.permutation(n):
        P = rng.dirichlet(np.ones(int(cols[i])), size=int(rows[i]))
        ops += _matrix_ops(f"tall{i:02d}_{rows[i]}x{cols[i]}", P, 0.5, workdir)
    return ops


# ---------------------------------------------------------------------------
# verify


def _report(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(rep: dict, argmax) -> Optional[str]:
    if rep["verdict"] != "pass":
        return f"theorem {rep['theorem']} verdict {rep['verdict']}"
    if rep["argmax"] != argmax:
        return f"theorem {rep['theorem']} argmax {rep['argmax']}, paper {argmax}"
    return None


def _oracle_op(label: str, call: Callable[[], object], check: Callable[[dict], Optional[str]]) -> Op:
    return Op(label, lambda: call().to_dict(), check)


def _theorem_6_op(b: int, c: int, ascent) -> Op:
    """Statement 6: exactly the C!/(C-B)! distinct-class labelings attain 1/alpha + eps*B."""
    from equimax import oracle

    labelings = ref.distinct_class_labelings(b, c)
    bound = 1.0 + 1e-6 * b

    def check(rep):
        if rep["params"]["attainers"] != len(labelings):
            return f"theorem 6 attainers {rep['params']['attainers']}, paper {len(labelings)}"
        if abs(rep["optimum"] - bound) > 1e-12:
            return f"theorem 6 optimum {rep['optimum']!r}, bound {bound!r}"
        return _verdict(rep, labelings)

    return _oracle_op(f"theorem 6 {b}x{c} seed={ascent.seed}",
                      lambda: oracle.verify_theorem_6(b, c, 0.5, 1.0, 1e-6, seed=ascent.seed, ascent=ascent),
                      check)


def verify(rng: np.random.Generator, workdir: str) -> list[Op]:
    from equimax import oracle
    from equimax.optimizer import AscentConfig

    ops = []
    out = os.path.join(workdir, "report.json")

    def cli_report(label, argv, check):
        return cli_op(label, argv + ["--out", out], lambda res: check(_report(out)), [out])

    # composition-level checks of statements 1, 3 and 5 on the criterion-3
    # grid; statement 1 cross-checks the dense SVD on one-hot stacks for B <= 6
    for b in range(2, 11):
        for c in range(2, 6):
            bal = [ref.balanced(b, c)]
            r = float(np.round(rng.uniform(0.1, 0.9), 4))
            alpha = float(np.round(rng.uniform(0.5, 4.0), 4))
            shape = ["--b", str(b), "--c", str(c)]
            ops.append(cli_report(f"verify 1 {b}x{c}", ["verify", "--theorem", "1"] + shape,
                                  lambda rep, bal=bal: _verdict(rep, bal)))
            ops.append(cli_report(f"verify 3 {b}x{c} r={r}", ["verify", "--theorem", "3", "--r", str(r)] + shape,
                                  lambda rep, bal=bal: _verdict(rep, bal)))

            def check5(rep, b=b, alpha=alpha, bal=bal):
                want = b / (sum(s * s for s in bal[0]) + (alpha - 1.0) * b)
                if abs(rep["optimum"] - want) > 1e-12 * max(1.0, want):
                    return f"theorem 5 optimum {rep['optimum']!r}, formula {want!r}"
                return _verdict(rep, bal)

            ops.append(_oracle_op(
                f"theorem 5 {b}x{c} alpha={alpha}",
                lambda b=b, c=c, alpha=alpha: oracle.verify_theorem_4_5(b, c, alpha, 0.0, run_ascent=False),
                check5))

    # ascent-backed statements 2, 4 and 6 at B, C <= 6 with B * C <= 24: from
    # 5 x 5 up, 48 starts and 600 steps leave some seeds short of the optimum
    # (statement 2 at 5 x 5: 2 of 60 seeds).  Statement 6 runs at B = 2 and 4:
    # at B = 3 about half of all seeds have a start that stalls at the step
    # cap for about 2 s, which would make the run time a coin flip per seed.
    # The stall is measured by criterion 4's 3 x 3 case at the default seed,
    # which stalls every time.
    for b in range(2, 7):
        for c in range(2, 7):
            if b * c > 24:
                continue
            bal = [ref.balanced(b, c)]
            seeds = [int(s) for s in rng.integers(0, 2**32, 4)]

            def ascent(i):
                return AscentConfig(inits=ASCENT_STARTS, steps=ASCENT_STEPS, seed=seeds[i])

            ops.append(_oracle_op(
                f"theorem 2 {b}x{c}",
                lambda b=b, c=c, a=ascent(0): oracle.verify_theorem_2(b, c, 0.5, seed=a.seed, ascent=a),
                lambda rep, bal=bal: _verdict(rep, bal)))
            eps = ref.auto_epsilon(b, c)
            for alpha, i in ((1.0, 1), (2.0, 2)):
                ops.append(_oracle_op(
                    f"theorem 4 {b}x{c} alpha={alpha}",
                    lambda b=b, c=c, eps=eps, alpha=alpha, a=ascent(i): oracle.verify_theorem_4_5(
                        b, c, alpha, eps, seed=a.seed, ascent=a, theorem_id=4),
                    lambda rep, bal=bal: _verdict(rep, bal)))
            if b <= c and b != 3:
                ops.append(_theorem_6_op(b, c, ascent(3)))
    ops.append(_theorem_6_op(3, 3, AscentConfig(inits=ASCENT_STARTS, steps=ASCENT_STEPS)))

    # the four 2x2 case-study surfaces
    for kind in ("ms", "bnm", "cwsm", "nsm"):
        path = os.path.join(workdir, f"surface_{kind}.csv")

        def check_surface(res, kind=kind, path=path):
            got = {tuple(p) for p in _report(path + ".argmax.json")["argmax"]}
            want = ref.surface_argmax(kind)
            return None if got == want else f"surface {kind} argmax {sorted(got)}, paper {sorted(want)}"

        ops.append(cli_op(f"surface {kind}", ["surface", "--loss", kind, "--out", path], check_surface,
                          [path, path + ".argmax.json"]))

    # one full report at default settings.  At 3 x 3 it would spend about 6 s
    # in the stalled start the criterion-4 op above already measures, leaving
    # room for too few repetitions per run; 3 x 4 runs every statement check.
    def check_all(reps):
        bal = [ref.balanced(3, 4)]
        for rep in reps:
            want = ref.distinct_class_labelings(3, 4) if rep["theorem"] == 6 else bal
            err = _verdict(rep, want)
            if err:
                return err
        return None if [r["theorem"] for r in reps] == [1, 2, 3, 4, 5, 6] else "theorems missing"

    ops.append(cli_report("verify all 3x4", ["verify", "--theorem", "all", "--b", "3", "--c", "4"], check_all))
    return ops


# ---------------------------------------------------------------------------
# toyuda


def toyuda(rng: np.random.Generator, workdir: str) -> list[Op]:
    """24 seeds x 4 losses at lambda = 1, plus lambda = 0 for every third seed."""
    config = os.path.join(workdir, "toyuda.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"epochs": TOYUDA_EPOCHS}, fh)
    seeds = [int(s) for s in rng.integers(0, 2**31, 24)]
    lam0: dict[int, dict] = {}
    ops = []
    for i, seed in enumerate(seeds):
        for lam in ("1", "0") if i % 3 == 0 else ("1",):
            for kind in ("ms", "bnm", "cwsm", "nsm"):
                prefix = os.path.join(workdir, f"toy{i:02d}_{kind}_{lam}")

                def check(res, seed=seed, lam=lam, prefix=prefix):
                    with open(prefix + ".json", "r", encoding="utf-8") as fh:
                        saved = json.load(fh)
                    traj = saved["trajectory"]
                    if any(len(v) != TOYUDA_EPOCHS for v in traj.values()):
                        return "trajectory length differs from the configured epochs"
                    arrays = [np.asarray(v, dtype=float) for v in traj.values()]
                    arrays += [np.asarray(saved["weights"]), np.asarray(saved["bias"])]
                    if not all(np.all(np.isfinite(a)) for a in arrays):
                        return "non-finite output"
                    acc, eq, disc = (np.asarray(traj[k]) for k in ("accuracy", "equity", "discriminability"))
                    if acc.min() < 0 or acc.max() > 1 or eq.min() < -1 or eq.max() > 1 + 1e-12:
                        return "accuracy or equity out of range"
                    if disc.min() < 1.0 / 3.0 - 1e-12 or disc.max() > 1 + 1e-12 or min(traj["ce"]) < 0:
                        return "discriminability or cross-entropy out of range"
                    printed = _printed(res.stdout)
                    for key, arr in (("final accuracy", acc), ("final equity", eq), ("final discriminability", disc)):
                        if not ref.close_at_6_digits(printed.get(key, math.nan), float(arr[-1])):
                            return f"{key} printed {printed.get(key)!r}, saved {float(arr[-1])!r}"
                    if lam == "0":
                        # with lambda = 0 every loss kind trains bit-identically
                        same = {k: v for k, v in saved.items() if k != "trajectory"}
                        same.update({k: v for k, v in traj.items() if k != "lt"})
                        first = lam0.setdefault(seed, same)
                        if first != same:
                            return "lambda = 0 run differs between loss kinds"
                    return None

                argv = ["toyuda", "--loss", kind, "--lambda", lam, "--config", config,
                        "--seed", str(seed), "--out-prefix", prefix]
                ops.append(cli_op(f"toyuda {kind} lambda={lam} seed={seed}", argv, check,
                                  [prefix + ".json", prefix + ".csv"]))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The workload's op list for ``seed``; its input files go to ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"verify": verify, "eval_wide": eval_wide, "eval_tall": eval_tall, "toyuda": toyuda}[workload]
    return make(rng, workdir)
