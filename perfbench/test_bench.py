"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The census is shrunk here to six bands so that the tests take seconds;
the checks and the accounting they exercise are the ones the benchmark
runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink the census; write outputs under tmp."""
    monkeypatch.setattr(workloads, "CENSUS_MAX_BANDS", 6)
    monkeypatch.chdir(tmp_path)


def _run_worker(capsys, workload: str, *extra: str) -> dict:
    assert worker.main(["--workload", workload, "--seed", "3", "--blocks", "1", *extra]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _bump_first_coefficient(poly: str) -> str:
    coeff, rest = poly.split("*", 1)
    return f"{int(coeff) + 1}*{rest}"


def _corrupt(workload: str, stdout: str) -> str:
    payload = json.loads(stdout)
    if workload == "invariants-long":
        payload["polynomial"] = _bump_first_coefficient(payload["polynomial"])
    elif workload == "reduce-long":
        letters = workloads.parse_word_text(payload["minimal_word"])
        payload["minimal_word"] = workloads.render_word((-letters[0],) + letters[1:])
    else:
        payload.pop()
    return json.dumps(payload)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_raises_failed_ratio(workload, small, monkeypatch, capsys):
    clean = _run_worker(capsys, workload)
    assert clean["failed"] == 0 and clean["attempted"] > 0, clean["problems"]

    real_invoke = worker._invoke
    seen = []

    def corrupt_first(argv):
        code, out, err, elapsed = real_invoke(argv)
        if not seen and "make-table" not in argv:
            seen.append(argv)
            out = _corrupt(workload, out)
        return code, out, err, elapsed

    monkeypatch.setattr(worker, "_invoke", corrupt_first)
    dirty = _run_worker(capsys, workload)
    assert dirty["attempted"] == clean["attempted"]
    assert dirty["failed"] > 0, "a corrupted output passed its check"
    assert dirty["failed"] / dirty["attempted"] > clean["failed"] / clean["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload, small, capsys):
    first = tracer.exact_counts(_run_worker(capsys, workload, "--traced")["trace"])
    second = tracer.exact_counts(_run_worker(capsys, workload, "--traced")["trace"])
    assert first == second
    assert any(first.values())


def _argv_bytes(workload: str, seed: int, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--blocks", "2", "--print-argv"],
        env=env, capture_output=True, check=True, timeout=120,
    ).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_byte_identical_argv(workload):
    first = _argv_bytes(workload, 11, "1")
    assert first and first == _argv_bytes(workload, 11, "2")
    if workload != "census":  # the census input does not depend on the seed
        assert first != _argv_bytes(workload, 12, "1")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_is_nearest_rank():
    import run

    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 0.9) == 90.0
    assert run.percentile([5.0], 0.9) == 5.0
