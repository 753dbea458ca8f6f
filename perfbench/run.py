"""Benchmark of the braid3 command line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

  invariants-long  ``braid3 invariants`` on long mixed and positive words
  reduce-long      ``braid3 reduce`` on mixed words of 500-2000 letters
  census           ``braid3 enumerate --max-bands 11 --table ...``

Each pass of a workload runs in a fresh interpreter (``worker.py``) that
calls ``braid3.cli.run`` in-process and checks every output after its timed
region.  ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median
wall time of a fresh interpreter running ``import braid3``), ``ops_per_s``,
``latency_p50_ms``, ``latency_p90_ms`` and ``peak_rss_mb``.  ``--trace 1``
repeats the same commands twice more with every layer boundary wrapped
(``tracer.py``) and prints the per-layer metrics, the tracing overhead and
the failure ratio; it fails the run when the exact counts of the two traced
passes differ.

The last line of stdout is the result object; the line before it records
the environment and the sample count of each metric.  Both also go to
``.bench_out/``, with the spans of the first traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# A seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 9
# Every subprocess must end before this many seconds of the run have passed.
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Starts the subprocesses of one run and keeps them within the deadline."""

    def __init__(self, root: str):
        self.root = root
        self.started = time.perf_counter()
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def call(self, argv: list[str]) -> str:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                argv,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            raise BenchError(f"timed out: {' '.join(argv[1:4])}") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def setup_times(self, samples: int) -> list[float]:
        """Wall time of fresh interpreters importing braid3; the first one warms caches."""
        argv = [sys.executable, "-c", "import braid3"]
        self.call(argv)
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            self.call(argv)
            out.append(time.perf_counter() - start)
        return out

    def worker(self, workload: str, seed: int, *extra: str) -> dict:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(seed), *extra]
        lines = self.call(argv).strip().splitlines()
        if not lines:
            raise BenchError("worker printed nothing")
        return json.loads(lines[-1])


def plain_passes(runner: Runner, workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced passes until ``seconds`` of timed work and the minimum command count."""
    passes: list[dict] = []
    timed = 0.0
    block = commands = 0
    while not passes or timed < seconds or commands < workloads.MIN_COMMANDS[workload]:
        p = runner.worker(workload, seed, "--budget", repr(seconds - timed), "--first-block", str(block))
        p["first_block"] = block
        passes.append(p)
        timed += p["timed_s"]
        block += p["blocks"]
        commands += p["commands"]
    return passes


def traced_passes(runner: Runner, workload: str, seed: int, plain: list[dict], spans: bool) -> list[dict]:
    """The same blocks as ``plain``, each pass in a fresh traced interpreter."""
    out = []
    for p in plain:
        extra = ["--first-block", str(p["first_block"]), "--blocks", str(p["blocks"]), "--traced"]
        if spans:
            extra += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}-block{p['first_block']}.tsv")]
        out.append(runner.worker(workload, seed, *extra))
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_commit(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "braid3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, args) -> dict:
    return {
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(setup: list[float], plain: list[dict]) -> tuple[dict, dict]:
    latencies = [s for p in plain for s in p["latencies_s"]]
    timed = sum(p["timed_s"] for p in plain)
    rank = math.ceil(0.9 * len(latencies))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (sum(p["completed"] for p in plain) / timed, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in plain) / 1024, "MB"),
    }
    samples = {
        "setup_s": len(setup),
        "ops_per_s": sum(p["completed"] for p in plain),
        "latency_p50_ms": len(latencies),
        "latency_p90_ms": len(latencies),
        "latency_p90_ms.beyond": len(latencies) - rank,
        "peak_rss_mb": len(plain),
        "timed_s": timed,
    }
    return metrics, samples


def main(argv=None) -> int:
    args = _args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braid3", "__init__.py")):
        print("error: run from the root of a braid3 checkout (src/braid3 not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    runner = Runner(root)
    try:
        setup = runner.setup_times(SETUP_SAMPLES)
        plain = plain_passes(runner, args.workload, args.seed, args.seconds)
        traced_a = traced_b = None
        if args.trace:
            traced_a = traced_passes(runner, args.workload, args.seed, plain, spans=True)
            traced_b = traced_passes(runner, args.workload, args.seed, plain, spans=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    problems = [msg for p in plain for msg in p["problems"]]
    metrics, samples = end_to_end(setup, plain)
    details: dict = {
        "passes": len(plain),
        "commands": sum(p["commands"] for p in plain),
        "deep_checked": sum(p["deep_checked"] for p in plain),
    }
    if args.trace:
        summary_a = tracer.merge(p["trace"] for p in traced_a)
        summary_b = tracer.merge(p["trace"] for p in traced_b)
        counts_a, counts_b = tracer.exact_counts(summary_a), tracer.exact_counts(summary_b)
        details["exact_counts"] = counts_a
        samples = {"span_calls": summary_a.get("calls", {})}
        if counts_a != counts_b:
            problems.append(f"exact counts differ between traced passes: {counts_a} vs {counts_b}")
        for p in traced_a + traced_b:
            problems.extend(p["problems"])
        completed = sum(p["completed"] for p in traced_a)
        metrics = tracer.layer_metrics(summary_a, completed)
        metrics["trace.overhead_ratio"] = (
            sum(p["timed_s"] for p in traced_a) / sum(p["timed_s"] for p in plain),
            "ratio",
        )
        metrics["failed_ratio"] = (failed / attempted if attempted else 0.0, "ratio")
    correct = failed == 0 and not problems and attempted > 0

    record = {
        "environment": environment(root, args),
        "samples": samples,
        "details": details,
        "problems": problems[:20],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    path = os.path.join(root, OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=1, sort_keys=True)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
