"""Check the census against its slow paths and the laws, length by length.

This is the census's one check.  For each band length up to the cap it
verifies:
  * block keys: the key that ``enumeration._type_b_key`` reads off the
    negative block equals ``canonical_key``, the search over every rotation
    and subscript shift, on every generated type-B normal form and its mate;
  * packed traces: the Burau trace of every census key, computed from
    matrices packed at t = 2^K and trimmed by ``enumeration._Skeins.trace``,
    equals the trace of the dense Burau product of ``words.burau_step``,
    and every decoded coefficient stays below 2^(K-2);
  * rows: the keys of ``enumerate_minimal`` are the sorted ``canonical_key``
    set of every generated word (not the census's own pairing pass), each
    row's polynomial is ``homfly`` of its key (``hecke._skein_from_trace``
    of the key's exponent sum and dense trace, converted once per distinct
    pair), so the mirrored mates are checked too, and the length holds one
    object per distinct polynomial;
  * laws, on every orbit: the component count read from the polynomial,
    1 - min deg_z P, equals the permutation's cycle count, every law of
    ``invariants.broken_laws`` holds through ``check_laws`` with the
    orbit's chi, and the strong-quasipositivity criterion (PMCF) implies a
    positive band form.

A mismatch raises ``ConsistencyError`` naming the word.  The line before
the last counts the orbits held to the laws; the last gives the largest
decoded coefficient magnitude.

Usage:  python scripts/census_oracles.py [--max-bands N]   (0 <= N <= 16)
"""

import argparse
import itertools
import sys
import time

from braid3 import enumeration, hecke
from braid3.enumeration import canonical_key, enumerate_minimal, generate_normal_forms
from braid3.errors import ConsistencyError
from braid3.invariants import check_laws, pmcf_predicate
from braid3.limits import MAX_BANDS_CEILING
from braid3.words import BURAU_ONE, burau_step, closure_components, exponent_sum, render_word, to_artin
from braid3.xu import is_strongly_quasipositive


def orbit_keys(length: int) -> tuple[list[tuple[int, ...]], int]:
    """(sorted orbit keys, type-B words checked) of the length; a block key that differs raises.

    Every generated word is keyed by ``canonical_key``, so the keys are the
    census's orbit set, found without the census.
    """
    starts = {}
    keys = set()
    checked = 0
    for word in generate_normal_forms(length):
        key = canonical_key(word)
        if word and word[0] < 0 < word[-1]:
            if enumeration._type_b_key(word, starts) != key:
                raise ConsistencyError(f"block key differs from canonical_key for {render_word(word)}")
            checked += 1
        keys.add(key)
    return sorted(keys), checked


def dense_traces(words):
    """The trace of the dense Burau product of each word, as ``words.burau`` builds it.

    The product of the Artin letters shared with the previous word is
    reused, so sorted keys cost little more than their distinct suffixes.
    """
    previous: tuple[int, ...] = ()
    stack = [BURAU_ONE]
    for word in words:
        artin = to_artin(word)
        common = 0
        for x, y in zip(previous, artin):
            if x != y:
                break
            common += 1
        del stack[common + 1 :]
        for letter in artin[common:]:
            stack.append(burau_step(stack[-1], letter))
        previous = artin
        lo, a, _, _, d = stack[-1]
        yield hecke._trace(lo, a, d)


def packed_traces(keys) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """(dense trace of each of the sorted ``keys``, largest decoded |coefficient|); a packed trace that differs raises."""
    skeins = enumeration._Skeins()
    decoded = {}  # (offset, packed trace) -> (offset, coefficients), decoded once
    traces = []
    largest = 0
    for key, dense in zip(keys, dense_traces(keys)):
        packed = skeins.trace(key)
        trace = decoded.get(packed)
        if trace is None:
            lo, x = packed
            digits = enumeration._digits(x, key)
            largest = max([largest, *map(abs, digits)])
            trace = decoded[packed] = lo, tuple(digits)
        if trace != dense:
            raise ConsistencyError(f"packed trace differs from the Burau trace for {render_word(key)}")
        traces.append(dense)
    return traces, largest


def check_orbit(entry) -> None:
    """Raise unless ``entry`` has its permutation's components, keeps every law and, under PMCF, a positive band form."""
    components = closure_components(entry.word)
    if entry.components != components:
        word = render_word(entry.word)
        raise ConsistencyError(f"components from min deg_z P differ from the permutation's for {word}")
    check_laws(entry.polynomial, entry.chi, entry.word, components)
    if pmcf_predicate(entry.polynomial) and is_strongly_quasipositive(entry.word) == "no":
        raise ConsistencyError(f"PMCF holds but {render_word(entry.word)} has no positive band form")


def check_rows(rows, keys, traces) -> None:
    """Raise unless ``rows`` are the ``keys`` in order, each with ``homfly`` of its key, one object per polynomial.

    Each row is also held to the laws by ``check_orbit``.
    """
    for row, key in itertools.zip_longest(rows, keys):
        if row is None or row.word != key:
            named = key if row is None else row.word
            raise ConsistencyError(f"census rows differ from the orbit keys at {render_word(named)}")
    by_pair = {}  # (exponent sum, offset, trace) -> polynomial, converted once
    objects = {}  # polynomial -> the first row's object
    for row, trace in zip(rows, traces):
        pair = (exponent_sum(row.word), *trace)
        expected = by_pair.get(pair)
        if expected is None:
            expected = by_pair[pair] = hecke._skein_from_trace(*pair, row.word)
        if row.polynomial != expected:
            raise ConsistencyError(f"census polynomial differs from homfly for {render_word(row.word)}")
        if objects.setdefault(row.polynomial, row.polynomial) is not row.polynomial:
            raise ConsistencyError(f"census polynomial of {render_word(row.word)} is a second object")
        check_orbit(row)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-bands", type=int, default=12)
    args = parser.parse_args()
    if not 0 <= args.max_bands <= MAX_BANDS_CEILING:
        parser.error(f"--max-bands must be 0..{MAX_BANDS_CEILING}, not {args.max_bands}")

    largest = orbits = 0
    print(f"{'bands':>5} {'type-B':>7} {'keys':>7} {'knots':>6} {'|coeff|':>8} {'seconds':>8}")
    for n in range(args.max_bands + 1):
        t0 = time.perf_counter()
        keys, words = orbit_keys(n)
        traces, top = packed_traces(keys)
        rows = enumerate_minimal(n, cap=args.max_bands)
        check_rows(rows, keys, traces)
        knots = sum(row.components == 1 for row in rows)
        largest = max(largest, top)
        orbits += len(rows)
        print(f"{n:>5} {words:>7} {len(keys):>7} {knots:>6} {top:>8} {time.perf_counter() - t0:>8.2f}")
    print(f"all degree and coefficient laws hold on {orbits} orbits")
    print(f"block keys and packed traces agree up to {args.max_bands} bands; largest |coefficient| {largest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
