"""Census orbit sets and polynomial classes, kept as test helpers for ``braid3.enumeration``.

``brute_force_orbits`` reduces every word of a length and keeps the orbit
keys of the minimal ones: a completeness oracle for the constructive
generator, feasible only for short words.  ``constructive_orbits`` is the
orbit set of the census itself, both keys of every pair of the census pass
``braid3.enumeration._orbit_pairs``.  ``census_classes`` groups census
entries by polynomial, identifying a polynomial with its mirror image.
The census rows themselves are checked against ``homfly`` of each key by
``scripts/census_oracles.py``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from braid3 import xu
from braid3.enumeration import CensusEntry, _orbit_pairs, canonical_key
from braid3.laurent import LaurentPoly2, mirror_image
from conftest import LETTERS


def brute_force_orbits(length: int) -> set[tuple[int, ...]]:
    """Orbit keys of the reduced forms of every length-n word that is minimal.

    Only feasible for small n; the acceptance suite compares this against
    the constructive generator for n <= 6.
    """
    out: set[tuple[int, ...]] = set()
    for letters in itertools.product(LETTERS, repeat=length):
        nf = xu.reduce(letters)
        if nf.minimal_length == length:
            out.add(canonical_key(nf.minimal_word))
    return out


def constructive_orbits(length: int) -> set[tuple[int, ...]]:
    """The census's orbit set."""
    return {k for _, key, mate_key, _ in _orbit_pairs(length) for k in (key, mate_key)}


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

