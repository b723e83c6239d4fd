"""Smoke test of the stage benchmark at a tiny size.

    python3 -m pytest stagebench/tests -q

Each workload runs once untraced and once traced on 32x32 scenes; the test
checks that every metric is printed with its unit, that the last stdout line
and the result record are valid JSON naming the metrics of BENCHMARK.json,
and that a corrupted artifact is counted as a failed invocation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "record.json"
    proc = subprocess.run([sys.executable, str(cwd / "stagebench" / "run.py"), "--tiny",
                           "--seconds", "1", "--out", str(out), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, out


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_prints_every_metric(tmp_path, workload, trace):
    proc, out = bench(tmp_path, "--workload", workload, "--seed", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    names = run.PER_LAYER if trace else run.END_TO_END
    expected = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    assert [n for n, _ in names] == expected
    assert set(result["metrics"]) == set(expected)
    for name, unit in names + [("failed_frac", "ratio")] + (
            [("train_s", "s")] if workload == "train64" and not trace else []):
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), f"{name} ({unit}) not printed"

    record = json.loads(out.read_text())
    assert record["environment"]["backend"] in ("python", "numba")
    assert record["metrics"]["failed_frac"]["value"] == 0.0
    assert set(result["metrics"]) <= set(record["metrics"])


@pytest.mark.parametrize("suffix,seed", [("tensors.bgrd", 1), ("report.json", 0)])
def test_corrupted_artifact_counts_as_failed(tmp_path, suffix, seed):
    proc, out = bench(tmp_path, "--workload", "corpus64", "--seed", str(seed),
                      "--corrupt", suffix)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert json.loads(out.read_text())["metrics"]["failed_frac"]["value"] > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "stagebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench(tmp_path, "--workload", "corpus64", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
