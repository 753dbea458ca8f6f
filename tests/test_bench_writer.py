"""The BENCH file writer, ``scripts/bench.py``, on canned result lines (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def run_lines(ops: float, rss: float, correct: bool = True) -> str:
    record = {"environment": {"cpu_model": "test CPU", "nproc": 2, "python": "3.11.7"}}
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return f"log line\n{json.dumps(record)}\n{json.dumps(result)}\n"


def test_summary_of_canned_pairs():
    pairs = [
        (run_lines(10.0, 20.0), run_lines(12.0, 19.0)),
        (run_lines(11.0, 20.0), run_lines(10.0, 21.0)),
        (run_lines(9.0, 20.0), run_lines(13.0, 20.0)),
    ]
    summary = bench.summarize({"census": {1: pairs}}, END_TO_END)
    # the JSON round trip is what the file holds
    assert json.loads(json.dumps(summary)) == {
        "census": {
            "1": {
                "ops_per_s": {
                    "unit": "1/s",
                    "better": "higher",
                    "parent": {"runs": [10.0, 11.0, 9.0], "q1": 9.5, "median": 10.0, "q3": 10.5},
                    "change": {"runs": [12.0, 10.0, 13.0], "q1": 11.0, "median": 12.0, "q3": 12.5},
                    "pairs_won": 2,
                },
                "peak_rss_mb": {
                    "unit": "MB",
                    "better": "lower",
                    "parent": {"runs": [20.0, 20.0, 20.0], "q1": 20.0, "median": 20.0, "q3": 20.0},
                    "change": {"runs": [19.0, 21.0, 20.0], "q1": 19.5, "median": 20.0, "q3": 20.5},
                    "pairs_won": 1,
                },
            }
        }
    }


@pytest.mark.parametrize("stdout", [run_lines(10.0, 20.0, correct=False), "error: timed out\n", ""])
def test_a_run_without_a_correct_result_fails(stdout):
    good = run_lines(10.0, 20.0)
    with pytest.raises(bench.BenchFailure, match="census seed 7919 change pair 1"):
        bench.summarize({"census": {7919: [(good, good), (good, stdout)]}}, END_TO_END)


def test_previous_bench_is_the_newest_earlier_file(tmp_path):
    for n in (3, 21, 22, 30):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_notes.json").write_text("{}")
    assert bench.previous_bench(tmp_path / "BENCH_23.json") == tmp_path / "BENCH_22.json"
    assert bench.previous_bench(tmp_path / "BENCH_3.json") is None


def test_comparison_reads_the_change_medians():
    summary = bench.summarize({"census": {1: [(run_lines(10.0, 20.0), run_lines(12.0, 19.0))] * 2}}, END_TO_END)
    earlier = bench.summarize({"census": {1: [(run_lines(8.0, 20.0), run_lines(9.0, 21.0))] * 2}}, END_TO_END)
    assert bench.comparison({"workloads": earlier}, {"workloads": summary}) == [
        "census seed 1 ops_per_s: 9 -> 12 1/s",
        "census seed 1 peak_rss_mb: 21 -> 19 MB",
    ]


def canned_process(returncode: int, stdout: str, argvs: list):
    """A stand-in for ``subprocess.run`` that records each argv and prints ``stdout``."""

    def run(argv, **kwargs):
        argvs.append(argv)
        return subprocess.CompletedProcess(argv, returncode, stdout, "error: run deadline passed\n")

    return run


def test_traced_run_records_its_wall_time(monkeypatch):
    argvs = []
    monkeypatch.setattr(bench.subprocess, "run", canned_process(0, run_lines(10.0, 20.0), argvs))
    record = bench.traced_run("census", 25)
    assert argvs[0][-8:] == ["--workload", "census", "--seed", "1", "--seconds", "25", "--trace", "1"]
    assert (record["seed"], record["seconds"]) == (1, 25)
    assert record["wall_s"] >= 0


@pytest.mark.parametrize(
    "returncode, stdout",
    [(1, ""), (0, run_lines(10.0, 20.0, correct=False)), (0, "error: timed out\n")],
    ids=["exit-1", "not-correct", "no-result"],
)
def test_a_failing_traced_run_fails(monkeypatch, returncode, stdout):
    monkeypatch.setattr(bench.subprocess, "run", canned_process(returncode, stdout, []))
    with pytest.raises(bench.BenchFailure, match="^census seed 1 trace"):
        bench.traced_run("census", 25)
