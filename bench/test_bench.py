"""Self-test of the benchmark at acceptance criterion 10's volume (150
restaurants, 750 customers, 14 days, tiny dimensions): each workload shape
once untraced and once traced. It checks names, units, output checks and
digests, never timings."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def _report_and_result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report["report"], result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_listed_metric(workload):
    plain_report, plain = _report_and_result(_run(workload, 0))
    traced_report, traced = _report_and_result(_run(workload, 1))
    for report, result, listed in ((plain_report, plain, SPEC["end_to_end"]),
                                   (traced_report, traced, SPEC["per_layer"])):
        assert result["correct"], report["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert report["failed_frac"] == 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in listed}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    digests = {run["digest"] for run in plain_report["iterations"]}
    digests |= {pair[side]["digest"] for pair in traced_report["iterations"]
                for side in ("untraced", "traced")}
    assert len(digests) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("paper_default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
