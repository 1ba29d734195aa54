"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, including the two that BENCHMARK.json does not list, runs
once untraced and once traced with ``--tiny``. Every metric named in
BENCHMARK.json must be present, finite and in its unit, and the traced run
must produce the same output digest as the untraced one.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("mc_closed", "mc_open", "trial_single", "theory_check")


def _run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines if line.strip().startswith("output digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_present_and_traced_digest_matches(workload):
    digests = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, digest = _run(workload, trace)
        digests.append(digest)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for m in SPEC[group]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), (m["name"], got)
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "theory_check", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
