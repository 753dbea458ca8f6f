"""Census orbit sets and polynomial classes, kept as test helpers for ``braid3.enumeration``.

``brute_force_orbits`` reduces every word of a length and keeps the orbit
keys of the minimal ones: a completeness oracle for the constructive
generator, feasible only for short words.  ``constructive_orbits`` is the
orbit set of the census itself, the keys of
``braid3.enumeration.inverse_partners``.  ``census_classes`` groups census
entries by polynomial, identifying a polynomial with its mirror image.
``homfly_many`` is the census's former evaluation: ``homfly`` of each word,
sharing Burau prefixes between neighbouring words.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from braid3 import hecke, xu
from braid3.enumeration import CensusEntry, canonical_key, inverse_partners
from braid3.laurent import LaurentPoly2, mirror_image
from braid3.words import BURAU_ONE, Word, burau_step, exponent_sum, to_artin
from conftest import LETTERS


def brute_force_orbits(length: int) -> set[Word]:
    """Orbit keys of the reduced forms of every length-n word that is minimal.

    Only feasible for small n; the acceptance suite compares this against
    the constructive generator for n <= 6.
    """
    out: set[Word] = set()
    for letters in itertools.product(LETTERS, repeat=length):
        nf = xu.reduce(letters)
        if nf.minimal_length == length:
            out.add(canonical_key(nf.minimal_word))
    return out


def constructive_orbits(length: int) -> set[Word]:
    """The census's orbit set."""
    return set(inverse_partners(length))


def poly_class_key(p: LaurentPoly2) -> tuple:
    """A grouping key identifying a polynomial with its mirror image."""
    a = tuple(sorted(p.terms_dict().items()))
    b = tuple(sorted(mirror_image(p).terms_dict().items()))
    return min(a, b)


def census_classes(entries: Sequence[CensusEntry]) -> list[list[CensusEntry]]:
    """Group census entries by polynomial, identifying mirror images."""
    groups: dict[tuple, list[CensusEntry]] = {}
    for e in entries:
        groups.setdefault(poly_class_key(e.polynomial), []).append(e)
    return [groups[k] for k in sorted(groups)]


def homfly_many(words: Sequence[Sequence[int]]) -> list[LaurentPoly2]:
    """``homfly`` of each word, multiplying a prefix shared with the previous word once.

    ``stack[i]`` is the Burau product of the first i Artin letters of the
    previous word, so a sorted list of short words costs little more than
    its distinct suffixes.  Each distinct (exponent sum, trace) pair is
    converted to a polynomial once per call, and equal polynomials from
    different pairs (``[1]`` and ``[-1]``) come back as one object.  An error
    names the first word with that pair.
    """
    out: list[LaurentPoly2] = []
    seen: dict[tuple[int, int, tuple[int, ...]], LaurentPoly2] = {}
    by_value: dict[LaurentPoly2, LaurentPoly2] = {}
    prev: tuple[int, ...] = ()
    stack = [BURAU_ONE]
    for word in words:
        w = to_artin(word)
        common = 0
        for x, y in zip(prev, w):
            if x != y:
                break
            common += 1
        del stack[common + 1 :]
        m = stack[common]
        for l in w[common:]:
            m = burau_step(m, l)
            stack.append(m)
        lo, a, _, _, d = m
        key = (exponent_sum(w), *hecke._trace(lo, a, d))
        poly = seen.get(key)
        if poly is None:
            poly = hecke._skein_from_trace(*key, word)
            poly = seen[key] = by_value.setdefault(poly, poly)
        out.append(poly)
        prev = w
    return out
