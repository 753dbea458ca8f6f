"""One pass of one workload, in a fresh interpreter started by ``run.py``.

The pass generates its seeded blocks, then runs them through
``braid3.cli.run`` in-process with stdout captured, one command after the
other (a closed loop with one client).  It runs whole blocks until its
time budget is spent, the workload's minimum command count is reached and,
with ``--blocks``, exactly that many blocks have run.  Output checks and
everything else that is not the program's own work happen after the
timed region.  The pass prints one JSON object on stdout.

Usage (normally invoked by run.py):
    python3 perfbench/worker.py --workload census --seed 1 --budget 15 \
        [--first-block 0] [--blocks N] [--traced [--spans FILE]] [--print-argv]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

import workloads
from braid3 import cli

# Commands of reduce-long whose output gets a Burau certificate.
REDUCE_CERTIFIED = 3


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, default=0.0, help="seconds to keep running blocks")
    p.add_argument("--first-block", type=int, default=0)
    p.add_argument("--blocks", type=int, default=None, help="run exactly this many blocks")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans", default=None, help="with --traced, write every span to this file")
    p.add_argument("--print-argv", action="store_true", help="print the argv of --blocks blocks")
    return p.parse_args(argv)


def _prepare(workload: str) -> None:
    """Inputs every block of the workload shares, built before any timing."""
    if workload == "census":
        os.makedirs(os.path.dirname(workloads.CENSUS_TABLE), exist_ok=True)
        _invoke(("make-table", "-o", workloads.CENSUS_TABLE))


def _invoke(argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception as exc:  # any crash is a failed operation, not a dead benchmark
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _done(args, blocks_run: int, commands: int, elapsed: float) -> bool:
    if args.blocks is not None:
        return blocks_run >= args.blocks
    limit = workloads.BLOCKS_PER_PROCESS.get(args.workload)
    if limit is not None and blocks_run >= limit:
        return True
    return elapsed >= args.budget and commands >= workloads.MIN_COMMANDS[args.workload]


def main(argv=None) -> int:
    args = _args(argv)
    if args.print_argv:
        for i in range(args.first_block, args.first_block + (args.blocks or 1)):
            for cmd in workloads.block(args.workload, args.seed, i):
                print(json.dumps(cmd.argv))
        return 0

    _prepare(args.workload)
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()

    records = []
    blocks_run = 0
    timed = 0.0
    while not _done(args, blocks_run, len(records), timed):
        cmds = workloads.block(args.workload, args.seed, args.first_block + blocks_run)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for cmd in cmds:
            records.append((cmd,) + _invoke(cmd.argv))
        timed += time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        blocks_run += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- after the timed region: checks and accounting ----------------------
    certified = set()
    if args.workload == "reduce-long" and not args.traced:
        rng = random.Random(f"braid3-bench-certify:{args.seed}:{args.first_block}")
        certified = set(rng.sample(range(len(records)), min(REDUCE_CERTIFIED, len(records))))
    attempted = failed = completed = deep_checked = 0
    problems = []
    for i, (cmd, code, out, err, _) in enumerate(records):
        expected = workloads.expected_operations(cmd)
        attempted += expected
        if args.traced:
            problem = f"exit code {code}" if code != 0 else None
        else:
            deep = args.workload != "reduce-long" or i in certified
            deep_checked += deep
            problem = workloads.check(args.workload, cmd, code, out, deep=deep)
        if problem is None:
            completed += workloads.operations(cmd, out)
        else:
            failed += expected
            problems.append(f"{' '.join(cmd.argv[2:4])[:60]}: {problem} {err.strip()[:200]}")

    result = {
        "blocks": blocks_run,
        "commands": len(records),
        "timed_s": timed,
        "latencies_s": [r[4] for r in records],
        "attempted": attempted,
        "failed": failed,
        "completed": completed,
        "peak_rss_kb": peak_rss_kb,
        "problems": problems[:20],
        "deep_checked": deep_checked,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
