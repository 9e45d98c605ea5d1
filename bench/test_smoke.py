"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload on a handful of ops, untraced once and traced twice,
and checks that every metric BENCHMARK.json names is emitted with its unit,
that no op fails, that layer self times plus unattributed time add up to
the traced wall time, and that the deterministic counts repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts fixed by the seed; everything else in the traced run is a time or a ratio of times
DETERMINISTIC_UNITS = {"count", "bytes", "bytes_computed", "ratio"}


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--max-ops", "6"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload):
    assert_metrics(bench(workload, 0), SPEC["end_to_end"])

    first, second = bench(workload, 1), bench(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    values = {k: v["value"] for k, v in first["metrics"].items()}
    self_times = sum(v for k, v in values.items()
                     if (k.endswith(".s") or k == "cli.self_s") and not k.startswith("trace."))
    assert abs(self_times + values["trace.unattributed_s"] - values["trace.wall_s"]) < 1e-6
    for m in SPEC["per_layer"]:
        if m["unit"] in DETERMINISTIC_UNITS:
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
