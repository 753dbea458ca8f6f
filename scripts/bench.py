"""Benchmark the working tree against a parent commit and write ``BENCH_<pr>.json``.

Usage:  python scripts/bench.py <parent-rev> BENCH_<pr>.json

The parent is checked out with ``git worktree add`` in a temporary directory,
which is removed at the end.  ``perfbench/run.py`` runs in that worktree and
in the working tree, for every workload of ``BENCHMARK.json`` and for seeds
1 and 7919 (the held-out seed), PAIRS times each; within a pair the side
that goes first alternates.  After the pairs the change runs once more per
workload with ``--trace 1`` at seed 1, since a traced run replays every
pass under the tracer and can end at ``run.py``'s deadline where the plain
runs pass.  Each run gets the ``run_seconds`` of ``BENCHMARK.json``, so the
whole comparison takes about 35 minutes.  A run that exits non-zero or
whose last line lacks ``"correct": true`` fails the script.

Per workload, seed and end-to-end metric the file holds both sides' runs,
medians and quartiles, and the pairs the change won, in the direction of
the metric's ``better``.  It holds each traced run's wall time under
``traced_runs``, and it records both commits, the CPU model, nproc, the
Python version, the seconds per run and the pair count.  The comparison
with the newest earlier ``BENCH_*.json`` beside the output, if there is
one, is printed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 5
SEEDS = (1, 7919)
SIDES = ("parent", "change")


class BenchFailure(Exception):
    """A run failed or printed no correct result."""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def parse_run(stdout: str, label: str) -> tuple[dict, dict]:
    """(environment, result) from the last two lines of one ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchFailure(f"{label}: no result line") from None
    if result.get("correct") is not True:
        raise BenchFailure(f'{label}: the last line lacks "correct": true')
    return record["environment"], result


def summarize(runs: dict[str, dict[int, list[tuple[str, str]]]], end_to_end: list[dict]) -> dict:
    """Per workload, seed and metric: both sides' runs, quartiles and the pairs the change won.

    ``runs[workload][seed]`` lists (parent stdout, change stdout) per pair.
    """
    out: dict = {}
    for workload, by_seed in runs.items():
        for seed, pairs in by_seed.items():
            results = [
                [parse_run(stdout, f"{workload} seed {seed} {side} pair {i}")[1] for side, stdout in zip(SIDES, pair)]
                for i, pair in enumerate(pairs)
            ]
            metrics = {}
            for spec in end_to_end:
                name = spec["name"]
                row: dict = {"unit": spec["unit"], "better": spec["better"]}
                for i, side in enumerate(SIDES):
                    values = [pair[i]["metrics"][name]["value"] for pair in results]
                    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                    row[side] = {"runs": values, "q1": q1, "median": median, "q3": q3}
                sign = 1 if spec["better"] == "higher" else -1
                row["pairs_won"] = sum(
                    sign * (c - p) > 0 for p, c in zip(row["parent"]["runs"], row["change"]["runs"])
                )
                metrics[name] = row
            out.setdefault(workload, {})[str(seed)] = metrics
    return out


def previous_bench(output: Path) -> Path | None:
    """The ``BENCH_<n>.json`` beside ``output`` with the largest n below its own, if any."""
    own = re.fullmatch(r"BENCH_(\d+)\.json", output.name)
    found = []
    for path in output.parent.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and (own is None or int(m[1]) < int(own[1])):
            found.append((int(m[1]), path))
    return max(found)[1] if found else None


def comparison(previous: dict, current: dict) -> list[str]:
    """One line per metric in both files: the change's median then and now."""
    lines = []
    for workload, by_seed in current["workloads"].items():
        for seed, metrics in by_seed.items():
            for name, row in metrics.items():
                old = previous.get("workloads", {}).get(workload, {}).get(seed, {}).get(name)
                if old is not None:
                    lines.append(
                        f"{workload} seed {seed} {name}: {old['change']['median']:.4g} -> "
                        f"{row['change']['median']:.4g} {row['unit']}"
                    )
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run([*argv, "--trace", str(trace)], cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise BenchFailure(
            f"{workload} seed {seed} trace {trace} in {checkout} exited {done.returncode}: {done.stderr[-500:]}"
        )
    return done.stdout


def traced_run(workload: str, seconds: float) -> dict:
    """One ``--trace 1`` run of the working tree at seed 1, which must end correct; its wall time."""
    start = time.perf_counter()
    stdout = run_once(ROOT, workload, 1, seconds, trace=1)
    wall = time.perf_counter() - start
    parse_run(stdout, f"{workload} seed 1 traced")
    return {"seed": 1, "seconds": seconds, "wall_s": round(wall, 1)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_rev, output = argv[0], Path(argv[1]).resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    commits = {
        "parent": git("rev-parse", f"{parent_rev}^{{commit}}"),
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
    }
    runs: dict[str, dict[int, list[tuple[str, str]]]] = {}
    environment = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), commits["parent"])
        try:
            checkouts = {"parent": tree, "change": ROOT}
            for w in spec["workloads"]:
                for seed in SEEDS:
                    pairs = runs.setdefault(w["name"], {}).setdefault(seed, [])
                    for i in range(PAIRS):
                        out = {}
                        for side in SIDES[:: 1 if i % 2 == 0 else -1]:
                            out[side] = run_once(checkouts[side], w["name"], seed, seconds)
                            env, result = parse_run(out[side], f"{w['name']} seed {seed} {side} pair {i}")
                            environment = environment or env
                            print(f"{w['name']} seed {seed} pair {i} {side}: "
                                  f"{result['metrics']['ops_per_s']['value']:.4g} ops/s", file=sys.stderr)
                        pairs.append((out["parent"], out["change"]))
            traced = {}
            for w in spec["workloads"]:
                traced[w["name"]] = traced_run(w["name"], seconds)
                print(f"{w['name']} seed 1 traced: {traced[w['name']]['wall_s']} s", file=sys.stderr)
            document = {
                "commits": {"parent_rev": parent_rev, **commits},
                "environment": {
                    "cpu_model": environment["cpu_model"],
                    "nproc": environment["nproc"],
                    "python": environment["python"],
                    "seconds_per_run": seconds,
                    "pairs": PAIRS,
                    "seeds": list(SEEDS),
                },
                "workloads": summarize(runs, spec["end_to_end"]),
                "traced_runs": traced,
            }
        except BenchFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            git("worktree", "remove", "--force", str(tree))
    output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for workload, by_seed in document["workloads"].items():
        for seed, metrics in by_seed.items():
            for name, row in metrics.items():
                print(f"{workload} seed {seed} {name}: parent {row['parent']['median']:.4g}, "
                      f"change {row['change']['median']:.4g} {row['unit']}, change won {row['pairs_won']}/{PAIRS}")
    previous = previous_bench(output)
    if previous is None:
        print("no earlier BENCH file to compare with")
    else:
        print(f"against {previous.name} (change medians):")
        print("\n".join(comparison(json.loads(previous.read_text()), document)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
