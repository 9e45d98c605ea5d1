"""equimax benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload verify --seed 0xE0517 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory, so nothing is built or installed.  The workload's fixed
op list (see ``workloads.py``) is repeated while the run lasts.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from one untraced and one traced pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans and a record of the run go to ``.bench_out/`` in the checkout.

Only process-level measurement is used (``time.perf_counter`` and
``ru_maxrss`` of this process); no machine-wide profiling or hardware
counters.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # BLAS pinned to one thread before numpy loads
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0xE0517
SETUP_PER_PASS = 2  # fresh interpreters started after each pass, at least
SETUP_MIN = 7       # this many in all
SETUP_CODE = "import equimax.cli as cli; cli.build_parser()"
MEASUREMENT = "process-level only: perf_counter wall time and ru_maxrss; no machine-wide profiling or hardware counters"
# End-to-end times are scaled to a speed-probe time of PROBE_REF_S, about
# what the probe takes on the 2-vCPU machine this was written on.
PROBE_REF_S = 0.7e-3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LOSS_NAMES = ("ms", "bnm", "cwsm", "nsm_r1", "nsm_rfrac")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {"cli.self_s": "s"}
    for fn, counts in (
        ("probmat.read_matrix_csv", {"calls": "count", "bytes": "bytes"}),
        ("probmat.validate", {"rows": "count"}),
        ("probmat.write_matrix_csv", {}),
        ("probmat.project_rows", {"rows": "count"}),
        ("probmat.enumerate_size_compositions", {"items": "count"}),
    ):
        units[fn + ".s"] = "s"
        units.update({f"{fn}.{k}": u for k, u in counts.items()})
    for part in ("value", "grad"):
        for loss in LOSS_NAMES:
            units[f"losses.{part}.{loss}.s"] = "s"
            units[f"losses.{part}.{loss}.calls"] = "count"
    units.update({
        "losses.svd.s": "s", "losses.svd.calls": "count",
        "losses.jacobi.s": "s", "losses.jacobi.sweeps": "count",
        "losses.bnm.subgrad_frac": "ratio",
        "losses.grad.nsm_rfrac.pair_bytes": "bytes_computed",
        "losses.errors": "count",
        "optimizer.maximize.s": "s",
    })
    for k in ("calls", "starts", "accepted_steps", "halving_events", "capped_starts"):
        units["optimizer.maximize." + k] = "count"
    units["optimizer.surface.s"] = "s"
    for num in ("1", "2", "3", "4_5", "6"):
        units[f"oracle.verify_theorem_{num}.s"] = "s"
    units.update({"oracle.onehot_matrices": "count", "oracle.compositions": "count", "oracle.errors": "count"})
    units.update({
        "toyuda.train.s": "s", "toyuda.train.calls": "count", "toyuda.train.epochs": "count",
        "toyuda.objective_and_gradients.s": "s", "toyuda.objective_and_gradients.calls": "count",
    })
    units.update({
        "trace.wall_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.unattributed_s": "s",
    })
    return units


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import equimax from this checkout's ``src``, or exit 2 when it is missing."""
    if not (SRC / "equimax" / "cli.py").is_file():
        fail(f"no program found: {SRC / 'equimax'} does not exist")
    sys.path.insert(0, str(SRC))
    import equimax

    if Path(equimax.__file__).resolve().parent != SRC / "equimax":
        fail(f"imported equimax from {equimax.__file__}, not from {SRC}")


_PROBE_MATS = np.random.default_rng(0).random((2, 8, 40, 6))


def probe() -> float:
    """Best of three timings of a fixed interpreter-and-numpy snippet.

    The host this was written on switches between two speeds about 1.45x
    apart, for seconds to minutes at a time, and no process on it controls
    that.  Dividing a latency by the probe time taken next to it turns
    it into a count of probe units that stays put when the host slows down.
    """
    mats = _PROBE_MATS
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(3000):
            acc += i * i
            if i % 8 == 0:
                table[str(i)] = (i, acc)
        for _ in range(60):
            np.einsum("nm,nm->n", mats[0, :, :, 0], mats[1, :, :, 1])
        mats[0, 0] @ mats[1, 0].T
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_setup() -> float:
    """Wall time for a fresh interpreter to import equimax.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_pass(ops, tracer=None, probes=None) -> tuple[list[float], list[str]]:
    """Run every op once in order; return the op latencies and failure messages.

    With ``probes`` (a list), a speed probe taken before each op is appended.
    """
    latencies, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if probes is not None:
            probes.append(probe())
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            problem = op.verdict(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.label}: {problem}")
    return latencies, failures


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A beta-weighted average of the order statistics around the quantile, so
    that one op landing on either side of it moves the estimate a little,
    not by the whole gap to its neighbour.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    t = (np.arange(n * 64) + 0.5) / (n * 64)  # 64 midpoints per order statistic
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    weights = pdf.reshape(n, 64).sum(axis=1)
    return float(weights @ x / weights.sum())


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "client": "closed loop, one client, one process",
        "measurement": MEASUREMENT,
    }


def measured_run(ops, seconds: float) -> tuple[dict, int, list[str], str, dict]:
    """Repeat the op list while the run lasts; report end-to-end metrics.

    Each op's latency is normalised by the median of the speed probes taken
    before it, before the op ahead of it and before the op after it; its
    time is then the median over the run's passes, and wall_s, op_p50_ms and
    op_p90_ms are taken over those per-op times.  setup_s is the median over
    fresh interpreters started between passes, not normalised: a process
    start does not track the probe.
    """
    spawn_setup()  # writes the bytecode cache
    run_pass(ops[:1])  # warm-up: lazy imports and first-call set-up
    passes, speeds, failures, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        probes: list[float] = []
        lat, fails = run_pass(ops, probes=probes)
        passes.append(lat)
        speeds.append(probes)
        failures += fails
        setups += [spawn_setup() for _ in range(SETUP_PER_PASS)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups += [spawn_setup() for _ in range(SETUP_MIN - len(setups))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, speed = np.array(passes), np.array(speeds)
    ahead = np.concatenate([speed[:, :1], speed[:, :-1]], axis=1)
    after = np.concatenate([speed[:, 1:], speed[:, -1:]], axis=1)
    local = np.median(np.stack([ahead, speed, after]), axis=0)
    per_op = np.median(lat * PROBE_REF_S / local, axis=0)
    raw_op = np.median(lat, axis=0)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": float(per_op.sum()),
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_p90_ms": percentile(per_op, 90) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "wall_s": float(raw_op.sum()),
        "op_p50_ms": percentile(raw_op, 50) * 1e3,
        "op_p90_ms": percentile(raw_op, 90) * 1e3,
        "probe_ms": float(np.median(speed)) * 1e3,
    }
    attempted = len(ops) * len(passes)
    note = f"{len(ops)} ops per pass x {len(passes)} passes = {attempted} ops"
    extra = {
        "raw": raw,
        "labels": [op.label for op in ops],
        "op_ms": np.round(lat * 1e3, 4).tolist(),
        "probe_ms": np.round(speed * 1e3, 4).tolist(),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, attempted, failures, note, extra


def traced_run(ops, spans_path: Path) -> tuple[dict, int, list[str], str, dict]:
    """One untraced pass, then one traced pass; report per-layer metrics."""
    from tracing import Tracer, instrument

    run_pass(ops[:1])
    untraced, fails_u = run_pass(ops)
    tracer = Tracer()
    inst = instrument(tracer)
    try:
        traced, fails_t = run_pass(ops, tracer)
    finally:
        inst.restore()
    tracer.write(str(spans_path))
    wall = sum(traced)
    units = per_layer_units()
    c, s = tracer.counts, tracer.self_s
    values = {"cli.self_s": s["cli"]}
    for name in units:
        if name.startswith("trace.") or name in values:
            continue
        if name.endswith(".s"):
            values[name] = s[name[:-2]]
        elif name == "losses.bnm.subgrad_frac":
            grads = c["losses.bnm.public_grads"]
            values[name] = c["losses.bnm.subgrads"] / grads if grads else 0.0
        else:
            values[name] = c[name]
    attributed = sum(s.values())
    values.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": sum(untraced),
        "trace.overhead_s": wall - sum(untraced),
        "trace.unattributed_s": wall - attributed,
    })
    unknown = set(s) - {k[:-2] for k in units if k.endswith(".s")} - {"cli"}
    if unknown:
        fail(f"spans without a metric: {sorted(unknown)}")
    metrics = {k: (values[k], units[k]) for k in units}
    note = f"{len(ops)} ops untraced + {len(ops)} traced, {len(tracer.spans)} spans in {spans_path.name}"
    return metrics, 2 * len(ops), fails_u + fails_t, note, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="run an evenly spaced subset of this many ops (smoke test)")
    args = parser.parse_args(argv)

    load_program()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        if 0 < args.max_ops < len(ops):
            step = len(ops) / args.max_ops
            ops = [ops[int(i * step)] for i in range(args.max_ops)]
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, attempted, failures, note, extra = traced_run(ops, spans)
        else:
            metrics, attempted, failures, note, extra = measured_run(ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(env, trace=args.trace, note=note, failures=failures, **result, **extra)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("env: " + json.dumps(env))
    print(f"workload {args.workload}: {note}, {len(failures)} failed")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    print(f"  {'fail_frac':<40} {len(failures) / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if "raw" in extra:
        print("  not speed-normalised: " + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
