"""Check the census's two shortcuts against their slow paths, length by length.

For each band length up to the cap this verifies:
  * block keys: the key that ``enumeration._type_b_key`` reads off the
    negative block equals ``canonical_key``, the search over every rotation
    and subscript shift, on every generated type-B normal form and its mate;
  * packed traces: the Burau trace of every census key, computed from
    matrices packed at t = 2^K and trimmed by ``enumeration._Skeins.trace``,
    equals the trace of the dense Burau product of ``words.burau_step``,
    and every decoded coefficient stays below 2^(K-2).

The last line gives the largest decoded coefficient magnitude.

Usage:  python scripts/census_oracles.py [--max-bands N]
"""

import argparse
import sys
import time

from braid3 import enumeration, hecke
from braid3.enumeration import canonical_key, generate_normal_forms
from braid3.errors import ConsistencyError
from braid3.words import BURAU_ONE, burau_step, render_word, to_artin


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


def packed_traces(keys) -> int:
    """The largest decoded |coefficient| of the packed traces of sorted ``keys``; a mismatch raises."""
    skeins = enumeration._Skeins()
    decoded = {}  # (offset, packed trace) -> (offset, coefficients), decoded once
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
    return largest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-bands", type=int, default=12)
    args = parser.parse_args()

    largest = 0
    print(f"{'bands':>5} {'type-B':>7} {'keys':>7} {'|coeff|':>8} {'seconds':>8}")
    for n in range(args.max_bands + 1):
        t0 = time.perf_counter()
        keys, words = orbit_keys(n)
        top = packed_traces(keys)
        largest = max(largest, top)
        print(f"{n:>5} {words:>7} {len(keys):>7} {top:>8} {time.perf_counter() - t0:>8.2f}")
    print(f"block keys and packed traces agree up to {args.max_bands} bands; largest |coefficient| {largest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
