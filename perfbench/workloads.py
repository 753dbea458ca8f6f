"""Seeded inputs and output checks for the benchmark workloads.

A workload is a stream of *blocks*.  Every block of a workload holds the
same mix of input sizes, shuffled, so a run that completes whole blocks
measures the same mix whatever the seed; the seed changes only the letters
of the words.  A command is a ``Command``: the argv handed to
``braid3.cli.run`` and the facts the output check needs.

The checks run after the timed region.  They parse the program's output
with the small parsers below rather than with ``braid3`` itself, and
where they need the library (a Burau certificate, a second skein
evaluation) they take a different route to the answer than the command
did: the skein polynomial of the reduced word instead of the input word,
and a Burau certificate that the reduced word is a conjugate of the input.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

WORKLOADS = ("invariants-long", "reduce-long", "census")

# Minimal-word orbit counts per band length 0..11 (the census the package's
# acceptance suite pins down through brute force up to length 6).
CENSUS_COUNTS = (1, 2, 6, 16, 32, 72, 168, 374, 834, 1836, 3996, 8656)
CENSUS_MAX_BANDS = 11
CENSUS_TABLE = ".bench_out/census-table.csv"

# Commands a run completes at least.  On the two long-word workloads this
# leaves ten latency samples beyond p90; census runs at least two commands,
# so that one slow stretch of the machine weighs less.
MIN_COMMANDS = {"invariants-long": 100, "reduce-long": 100, "census": 2}

# One census command per process: a second enumeration in the same process
# runs measurably slower, so each census block gets a fresh interpreter.
BLOCKS_PER_PROCESS = {"census": 1}

_MIXED = (1, 2, 3, -1, -2, -3)
_POSITIVE = (1, 2, 3)

@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str = ""
    word: tuple[int, ...] = ()
    max_bands: int = 0  # census only


def render_word(word) -> str:
    return "[" + " ".join(str(l) for l in word) + "]"


def parse_word_text(text: str) -> tuple[int, ...]:
    inner = text.strip()[1:-1].split()
    return tuple(int(t) for t in inner)


_TERM = re.compile(r"^(-?\d+)\*v\^(-?\d+)\*z\^(-?\d+)$")


def parse_poly_text(text: str) -> dict[tuple[int, int], int]:
    """Terms of a rendered two-variable polynomial, keyed by (deg_v, deg_z)."""
    if text.strip() == "0":
        return {}
    out: dict[tuple[int, int], int] = {}
    for chunk in text.split(" + "):
        m = _TERM.match(chunk.strip())
        if not m:
            raise ValueError(f"unparseable term {chunk!r}")
        key = (int(m.group(2)), int(m.group(3)))
        out[key] = out.get(key, 0) + int(m.group(1))
    return {k: c for k, c in out.items() if c}


def exponent_sum(word) -> int:
    return sum(1 if l > 0 else -1 for l in word)


def _rng(workload: str, seed: int, block: int) -> random.Random:
    # String seeds hash through SHA-512, so blocks are identical across
    # processes and Python versions regardless of PYTHONHASHSEED.
    return random.Random(f"braid3-bench:{workload}:{seed}:{block}")


def _structured(*args: str) -> tuple[str, ...]:
    return ("--format", "structured") + args


# ---------------------------------------------------------------------------
# Blocks

INVARIANT_MIXED_LENGTHS = tuple(50 + round(i * 350 / 11) for i in range(12))
INVARIANT_POSITIVE_LENGTHS = (20, 53, 87, 120)
REDUCE_LENGTHS = tuple(500 + round(i * 1500 / 9) for i in range(10))


def _invariants_block(rng: random.Random) -> list[Command]:
    specs = [(_MIXED, n) for n in INVARIANT_MIXED_LENGTHS]
    specs += [(_POSITIVE, n) for n in INVARIANT_POSITIVE_LENGTHS]
    rng.shuffle(specs)
    out = []
    for alphabet, n in specs:
        word = tuple(rng.choice(alphabet) for _ in range(n))
        kind = "positive" if alphabet is _POSITIVE else "mixed"
        out.append(Command(_structured("invariants", render_word(word)), kind, word))
    return out


def _reduce_block(rng: random.Random) -> list[Command]:
    lengths = list(REDUCE_LENGTHS)
    rng.shuffle(lengths)
    out = []
    for n in lengths:
        word = tuple(rng.choice(_MIXED) for _ in range(n))
        out.append(Command(_structured("reduce", render_word(word)), "mixed", word))
    return out


def _census_block(rng: random.Random) -> list[Command]:
    argv = _structured(
        "enumerate", "--max-bands", str(CENSUS_MAX_BANDS), "--table", CENSUS_TABLE
    )
    return [Command(argv, "census", max_bands=CENSUS_MAX_BANDS)]


_BLOCKS = {
    "invariants-long": _invariants_block,
    "reduce-long": _reduce_block,
    "census": _census_block,
}


def block(workload: str, seed: int, index: int) -> list[Command]:
    """The ``index``-th block of the workload for this seed."""
    return _BLOCKS[workload](_rng(workload, seed, index))


def operations(cmd: Command, stdout: str) -> int:
    """Operations a command completed: one per command, one per census orbit."""
    if cmd.kind == "census":
        return len(json.loads(stdout))
    return 1


def expected_operations(cmd: Command) -> int:
    if cmd.kind == "census":
        return sum(CENSUS_COUNTS[: cmd.max_bands + 1])
    return 1


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else a short reason.


def _poly_terms(word) -> dict[tuple[int, int], int]:
    from braid3.hecke import homfly
    from braid3.laurent import render_poly

    return parse_poly_text(render_poly(homfly(word)))


def _check_invariants(cmd: Command, payload: dict, deep: bool) -> str | None:
    if payload["word"] != render_word(cmd.word):
        return "reported word differs from the input"
    chi = payload["chi"]
    if chi != 3 - payload["minimal_length"]:
        return "chi != 3 - minimal_length"
    terms = parse_poly_text(payload["polynomial"])
    if max(b for _, b in terms) != 1 - chi:
        return "max deg_z != 1 - chi"
    if not deep:
        return None
    from braid3 import xu

    nf = xu.reduce(cmd.word)
    if nf.minimal_length != payload["minimal_length"]:
        return "minimal length differs from a fresh reduction"
    if _poly_terms(nf.minimal_word) != terms:
        return "homfly of the minimal word differs from the reported polynomial"
    return None


def _check_reduce(cmd: Command, payload: dict, deep: bool) -> str | None:
    minimal = parse_word_text(payload["minimal_word"])
    if len(minimal) != payload["minimal_length"]:
        return "minimal_word length != minimal_length"
    if payload["chi"] != 3 - len(minimal):
        return "chi != 3 - minimal_length"
    if exponent_sum(minimal) != exponent_sum(cmd.word):
        return "minimal word changes the exponent sum"
    if not deep:
        return None
    from braid3 import xu
    from braid3.words import inverse, words_equal

    nf = xu.reduce(cmd.word)
    if tuple(nf.minimal_word) != minimal:
        return "minimal word differs from a fresh reduction"
    conj = tuple(nf.conjugator)
    if not words_equal(conj + cmd.word + inverse(conj), minimal):
        return "Burau certificate fails: minimal word is not a conjugate of the input"
    return None


def _check_census(cmd: Command, rows: list, deep: bool) -> str | None:
    max_bands = cmd.max_bands
    counts = [0] * (max_bands + 1)
    for row in rows:
        n = row["length"]
        if not 0 <= n <= max_bands:
            return f"row of length {n} outside 0..{max_bands}"
        counts[n] += 1
        terms = parse_poly_text(row["polynomial"])
        if max(b for _, b in terms) != n - 2:
            return f"max deg_z != n - 2 for {row['word']}"
    if tuple(counts) != CENSUS_COUNTS[: max_bands + 1]:
        return f"orbit counts {counts}"
    return None


_CHECKS = {
    "invariants-long": _check_invariants,
    "reduce-long": _check_reduce,
    "census": _check_census,
}


def check(workload: str, cmd: Command, code: int, stdout: str, deep: bool = True) -> str | None:
    """Why the output of one command is wrong, or None when it is right.

    ``deep`` adds the checks that call the library again (a second skein
    evaluation, a Burau certificate); the worker asks for them on every
    command except in ``reduce-long``, where it certifies a seeded sample.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[workload](cmd, json.loads(stdout), deep)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
