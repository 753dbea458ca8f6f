"""Exhaustive generation of minimal band words, the orbit census and realizability.

Minimal words are generated constructively in their normal-form shapes
(never by filtering all words): positive delta^k R, negative L^{-1} delta^{-k},
and mixed L^{-1} R with both sides nonempty, non-decreasing and cyclically
reduced.  Words are identified up to the closure symmetries that preserve
every computed invariant: cyclic rotation and the subscript shift
(conjugation by delta).  Mirrors are kept distinct because chirality
matters for quasipositivity.  The census's orbit set is the key set of
``inverse_partners``.

The slow paths live in the test suite: ``tests/census_oracle.py`` holds the
brute-force orbit set over all 6^n words, a completeness oracle for small n,
and the grouping of census entries by polynomial up to mirror image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

from . import xu
from .errors import CapExceededError, ConsistencyError
from .hecke import homfly_many
from .invariants import (  # the law reason codes are imported from here too
    REASON_BOTTOM_V, REASON_COMPONENTS, REASON_LEADING, REASON_MWF, REASON_PARITY, REASON_TOP_Z, broken_laws,
)
from .laurent import LaurentPoly2, mirror_image
from .limits import MAX_BANDS_CEILING
from .words import (
    DELTA,
    Word,
    closure_components,
    exponent_sum,
    inverse,
    render_word,
    shift_letter,
)

DEFAULT_MAX_BANDS = 14

_LETTERS = (1, 2, 3, -1, -2, -3)


# Letter -> letter with its subscript shifted by 0, 1 and 2 (mod 3).
_SHIFT_TABLES = tuple({l: shift_letter(l, s) for l in _LETTERS} for s in range(3))


def canonical_key(word: Sequence[int]) -> Word:
    """Lexicographically least word over all rotations and subscript shifts.

    A least rotation starts at a least letter, so for each shift only the
    rotations starting at that letter are compared.
    """
    n = len(word)
    if not n:
        return ()
    best: Word | None = None
    for table in _SHIFT_TABLES:
        u = tuple(map(table.__getitem__, word))
        least = min(u)
        uu = u + u
        for i in range(n):
            if u[i] == least:
                cand = uu[i : i + n]
                if best is None or cand < best:
                    best = cand
    return best


def nondecreasing_words(length: int, firsts: Sequence[int] = (1, 2, 3)) -> Iterator[Word]:
    """Positive words where each subscript is followed by itself or +1 mod 3."""
    if length == 0:
        yield ()
        return
    for first in firsts:
        for steps in itertools.product((0, 1), repeat=length - 1):
            word = [first]
            for s in steps:
                word.append((word[-1] - 1 + s) % 3 + 1)
            yield tuple(word)


def generate_normal_forms(length: int) -> Iterator[Word]:
    """All normal-form words of the given length, each inverse pair as two consecutive words.

    The second word of a pair is a normal form of the first one's inverse:
    ``R^-1 delta^-k`` for ``delta^k R``, and ``R^-1 L`` shifted so that its
    left factor starts at 1 for ``L^-1 R``.  The empty word is its own
    inverse and comes alone.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    for k in range(length // 2 + 1):
        # R's first letter picks its subscript shift; with no delta factor the
        # three shifts are one orbit, so only R[0] == 1 is made
        for r in nondecreasing_words(length - 2 * k, (1,) if k == 0 else (1, 2, 3)):
            word = DELTA * k + r
            yield word
            if length > 0:
                yield inverse(word)
    # The type-B conditions are shift-invariant, so L[0] == 1 leaves one word
    # per orbit.  The inverse of L^-1 R has its factors swapped, so a pair
    # is made once: from the shorter left factor, or at equal lengths from
    # the lesser word.
    for left_len in range(1, length // 2 + 1):
        right_len = length - left_len
        for left in nondecreasing_words(left_len, firsts=(1,)):
            head = inverse(left)
            # R[0] != L[0] == 1
            for right in nondecreasing_words(right_len, firsts=(2, 3)):
                if left[-1] != right[-1]:
                    word = head + right
                    shift = _SHIFT_TABLES[(1 - right[0]) % 3].__getitem__
                    mate = tuple(map(shift, inverse(right) + left))
                    if left_len < right_len or word < mate:
                        yield word
                        yield mate


def _kind(word: Sequence[int]) -> str:
    """Xu kind of a normal form, read from its signs (the empty word is type A+)."""
    if min(word, default=1) > 0:
        return xu.TYPE_A_POSITIVE
    return xu.TYPE_A_NEGATIVE if max(word) < 0 else xu.TYPE_B


@dataclass(frozen=True, slots=True)
class CensusEntry:
    """One symmetry orbit of minimal words: its key and its polynomial.

    The other columns are properties read from the key: ``kind`` from its
    letter signs, ``length``, ``components`` from its permutation, and
    ``chi = 3 - length``.
    """

    word: Word  # canonical orbit representative
    polynomial: LaurentPoly2

    @property
    def kind(self) -> str:
        return _kind(self.word)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def components(self) -> int:
        return closure_components(self.word)

    @property
    def chi(self) -> int:
        return 3 - len(self.word)


def enumerate_minimal(length: int, cap: int = DEFAULT_MAX_BANDS) -> list[CensusEntry]:
    """All minimal-word orbits of exactly the given length, sorted by key.

    The closure of a word's inverse is its mirror image with every
    orientation reversed, which leaves the skein polynomial unchanged, so
    only the lesser key of each inverse pair is evaluated; the other gets
    the mirror image of its polynomial.
    """
    if length > cap:
        # past the ceiling no --max-bands reaches the length
        advice = (
            "; raise --max-bands"
            if length <= MAX_BANDS_CEILING
            else f" and the ceiling {MAX_BANDS_CEILING} of --max-bands"
        )
        raise CapExceededError(f"length {length} exceeds the enumeration cap {cap}{advice}")
    partners = inverse_partners(length)
    # Sorted keys share long prefixes, whose Burau products homfly_many
    # computes only once.
    lesser = sorted(key for key, partner in partners.items() if key <= partner)
    greater = [partners[key] for key in lesser]
    del partners  # a length's largest temporary: free it before the rows are made
    rows = [CensusEntry(key, poly) for key, poly in zip(lesser, homfly_many(lesser))]
    # homfly_many returns one object per distinct polynomial; mirror images
    # join them by value, and are found by the id of their source
    distinct = {id(e.polynomial): e.polynomial for e in rows}
    merged = {p: p for p in distinct.values()}
    mirrors = {}
    for i, p in distinct.items():
        m = mirror_image(p)
        mirrors[i] = merged.setdefault(m, m)
    rows += [
        CensusEntry(key, mirrors[id(e.polynomial)])
        for key, e in zip(greater, rows)
        if key != e.word
    ]
    rows.sort(key=attrgetter("word"))
    return rows


def inverse_partners(length: int) -> dict[Word, Word]:
    """Each orbit key of the given length, mapped to the key of its inverse orbit.

    Type-B words come one per orbit, so a repeated type-B key is a bug, and
    so is a pair whose keys differ in length or lack opposite exponent sums
    (the kind follows from both: A+ at e = n, A- at e = -n, B between, so
    this also checks that A+ and A- swap and B stays B), and an orbit
    paired with two different orbits.
    """
    partners: dict[Word, Word] = {}
    words = generate_normal_forms(length)
    for word in words:
        # the empty word is its own inverse and comes alone
        mate = next(words) if word else word
        key, mate_key = canonical_key(word), canonical_key(mate)
        if len(mate_key) != len(key) or exponent_sum(mate_key) != -exponent_sum(key):
            raise ConsistencyError(
                f"{render_word(mate)} is not in the inverse orbit of {render_word(word)}"
            )
        if key not in partners and mate_key not in partners and key != mate_key:
            partners[key] = mate_key
            partners[mate_key] = key
            continue
        # a type-A orbit met again in another shift, the empty word, or a bug
        for w, k, partner in ((word, key, mate_key), (mate, mate_key, key)):
            old = partners.get(k)
            if old is None:
                partners[k] = partner
            elif _kind(w) == xu.TYPE_B:
                raise ConsistencyError(f"type-B word {render_word(w)} repeats orbit {render_word(k)}")
            elif old != partner:
                raise ConsistencyError(
                    f"orbit {render_word(k)} has inverse orbits {render_word(old)} and {render_word(partner)}"
                )
    return partners


def genus_census(g: int, cap: int = DEFAULT_MAX_BANDS) -> list[CensusEntry]:
    """All knot orbits of genus g (minimal length 2g + 2)."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return [e for e in enumerate_minimal(2 * g + 2, cap=cap) if e.components == 1]


REASON_SEARCH = "exhaustive-search-miss"


@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    reason: str | None = None
    witness: Word | None = None


def realizable_3braid(p: LaurentPoly2, cap: int = DEFAULT_MAX_BANDS) -> RealizabilityVerdict:
    """Decide whether a polynomial is the skein polynomial of some closed 3-braid.

    The laws of ``invariants.broken_laws`` run first, with chi = 1 - max deg_z
    and the component count's parity read from the top z-degree; the first
    broken law's reason is the verdict.  A polynomial that breaks none is
    searched for exhaustively at the only possible band length,
    2 + max deg_z.  A search beyond the cap raises ``CapExceededError``
    (inconclusive).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial is not a link polynomial")
    max_z = p.max_deg_z()
    # z-degrees of the parity of 1 - components: odd ones mean 2 components;
    # of an odd count the laws read only that it is not 2
    components = 2 if max_z & 1 else 1
    for reason, _ in broken_laws(p, 1 - max_z, components):
        return RealizabilityVerdict(False, reason)
    length = 2 + max_z
    if length < 0:
        return RealizabilityVerdict(False, REASON_SEARCH)
    for entry in enumerate_minimal(length, cap=cap):
        if entry.polynomial == p:
            return RealizabilityVerdict(True, witness=entry.word)
    return RealizabilityVerdict(False, REASON_SEARCH)
