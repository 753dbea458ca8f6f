"""Exhaustive generation of minimal band words, the orbit census and realizability.

Minimal words are generated constructively in their normal-form shapes
(never by filtering all words): positive delta^k R, negative L^{-1} delta^{-k},
and mixed L^{-1} R with both sides nonempty, non-decreasing and cyclically
reduced.  Words are identified up to the closure symmetries that preserve
every computed invariant: cyclic rotation and the subscript shift
(conjugation by delta).  Mirrors are kept distinct because chirality
matters for quasipositivity.  The census's orbit set is the keys of the
census pass.

The census reads each orbit's key and skein polynomial off the generated
word in one pass (``_orbit_pairs``): a type-B key from the word's negative
block (``_type_b_key``), a type-A key by ``canonical_key``, with the type-A
pairs made again in another subscript shift dropped there, so each inverse
pair of orbits comes once.  Every Burau trace is one product of two packed
integer matrices, trimmed to one integer (``_Skeins.trace``) and decoded
once per distinct trace.

The slow paths live outside the package.  ``scripts/census_oracles.py`` is
the census's one check: block keys against ``canonical_key``, packed
traces against dense Burau products, the rows against the
``canonical_key`` set and ``homfly`` of each key, and every orbit against
the laws of ``invariants.broken_laws``.  ``tests/census_oracle.py``
holds the brute-force orbit set over all 6^n words, a completeness oracle
for small n, and the grouping of census entries by polynomial up to mirror
image.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

from . import hecke, xu
from .errors import CapExceededError, ConsistencyError
from .invariants import broken_laws
from .laurent import LaurentPoly2, mirror_image
from .limits import MAX_BANDS_CEILING
from .words import (
    DELTA,
    Word,
    burau,
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


# A letter above every letter: it stands for the positive block that
# follows a negative block in a type-B word.
_BEYOND = (4,)


def _type_b_key(word: Word, starts: dict[Word, tuple[int, dict[int, int]]]) -> Word:
    """``canonical_key`` of a type-B normal form N P: its negative block N, then its positive block P.

    Every negative letter is less than every positive one, so the least
    rotation of N P starts inside N, at a letter shifted to -3.  Two such
    starts compare letter by letter inside N; when one shifted suffix of N
    is a prefix of the other, the shorter one next meets a positive letter
    of P and loses.  So the start and its shift depend on N alone, and
    ``starts`` caches them for each negative block met.
    """
    block = word[: bisect_right(word, 0)]  # the signs change once, so bisection finds P
    start = starts.get(block)
    if start is None:

        def shifted(i: int) -> Word:  # the suffix of N from i, its first letter shifted to -3
            return tuple(map(_SHIFT_TABLES[block[i] % 3].__getitem__, block[i:])) + _BEYOND

        i = min(range(len(block)), key=shifted)
        start = starts[block] = i, _SHIFT_TABLES[block[i] % 3]
    i, table = start
    u = tuple(map(table.__getitem__, word))
    return u[i:] + u[:i]


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
        # R[0] != L[0] == 1; the mate R^-1 L is shifted by the shift that
        # takes R[0] to 1, so each R and its shifted inverse are made once
        rights = []
        for first in (2, 3):
            shift = _SHIFT_TABLES[(1 - first) % 3].__getitem__
            group = [(r, tuple(map(shift, inverse(r)))) for r in nondecreasing_words(right_len, (first,))]
            rights.append((shift, group))
        for left in nondecreasing_words(left_len, firsts=(1,)):
            head = inverse(left)
            for shift, group in rights:
                tail = tuple(map(shift, left))
                for right, mate_head in group:
                    if left[-1] != right[-1]:
                        word = head + right
                        mate = mate_head + tail
                        if left_len < right_len or word < mate:
                            yield word
                            yield mate


def _kind(word: Sequence[int]) -> str:
    """Xu kind of a normal form or an orbit key, read from its first and largest letters.

    Both start with a negative letter unless they are positive throughout
    (the empty word is type A+).
    """
    if not word or word[0] > 0:
        return xu.TYPE_A_POSITIVE
    return xu.TYPE_A_NEGATIVE if max(word) < 0 else xu.TYPE_B


@dataclass(frozen=True, slots=True)
class CensusEntry:
    """One symmetry orbit of minimal words: its key and its polynomial.

    The other columns are properties: ``components`` read from the
    polynomial, and ``kind``, ``length`` and ``chi`` from the key.
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
        """1 - min deg_z P: the lowest z-term of P is z^(1-c) times a nonzero factor (Lickorish-Millett)."""
        return 1 - self.polynomial.min_deg_z()

    @property
    def chi(self) -> int:
        return 3 - len(self.word)


# ---------------------------------------------------------------------------
# Burau traces by Kronecker substitution: a reduced Burau matrix evaluated at
# t = 2^_K is four Python ints and a t-offset, and integer products multiply
# the polynomials exactly, so only the trace, the one value decoded, must
# fit.  Every band letter's matrix, inverse letters included, has row sums
# of coefficient L1 norms of at most 3, and that norm is submultiplicative,
# so the trace of a word of n <= MAX_BANDS_CEILING = 16 letters has
# coefficients below 2 * 3^16 < 2^27.
# With _K = 32 each coefficient is one signed digit, and a decoded digit of
# 2^(_K-2) or more means the bound failed.

_K = 32
_DIGIT = (1 << _K) - 1
_LIMIT = 1 << (_K - 2)

_PackedBurau = tuple[int, int, int, int, int]  # (t-offset, a, b, c, d) at t = 2^_K


def _packed(coeffs: Sequence[int]) -> int:
    return sum(c << (_K * i) for i, c in enumerate(coeffs))


def _packed_letter(letter: int) -> _PackedBurau:
    m = burau((letter,))
    return (m.offset, *map(_packed, (m.a, m.b, m.c, m.d)))


_PACKED_LETTERS = {l: _packed_letter(l) for l in _LETTERS}


def _digits(x: int, word: Sequence[int]) -> list[int]:
    """The coefficients of the packed polynomial ``x``, lowest first: its signed base-2^_K digits."""
    digits = []
    while x:
        digit = x & _DIGIT
        if digit >> (_K - 1):
            digit -= 1 << _K
        if not -_LIMIT < digit < _LIMIT:
            raise ConsistencyError(f"a Burau coefficient outgrew its packed digit for {render_word(word)}")
        digits.append(digit)
        x = (x - digit) >> _K
    return digits


class _Skeins:
    """Skein polynomials of one length's normal forms, one object per distinct polynomial.

    Each distinct trace's polynomial is stored with its mirror image.  A
    word's trace is tr(B(first half) B(second half)).  Each half is a block
    of at most 8 letters whose matrix is one product from its prefix's, so
    the block cache stays small at every length.
    """

    def __init__(self) -> None:
        self.blocks: dict[Word, _PackedBurau] = {(): (0, 1, 0, 0, 1)}
        self.by_trace: dict[tuple[int, int, int], tuple[LaurentPoly2, LaurentPoly2]] = {}
        self.by_value: dict[LaurentPoly2, LaurentPoly2] = {}

    def _block(self, block: Word) -> _PackedBurau:
        m = self.blocks.get(block)
        if m is None:
            o, a, b, c, d = self._block(block[:-1])
            p, e, f, g, h = _PACKED_LETTERS[block[-1]]
            m = self.blocks[block] = (o + p, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return m

    def trace(self, word: Word) -> tuple[int, int]:
        """(lo, x): the Burau trace of ``word`` packed over t^lo, t^(lo+1), ..., trimmed.

        Trimmed as ``hecke._trace`` trims: no zero lowest digit, and (0, 0)
        for the zero trace, so each trace has one value.
        """
        half = len(word) // 2
        o1, a1, b1, c1, d1 = self._block(word[:half])
        o2, a2, b2, c2, d2 = self._block(word[half:])
        lo, x = o1 + o2, a1 * a2 + b1 * c2 + c1 * b2 + d1 * d2
        if not x:
            return 0, 0
        while not x & _DIGIT:
            x >>= _K
            lo += 1
        return lo, x

    def of(self, word: Word, e: int) -> tuple[LaurentPoly2, LaurentPoly2]:
        """P of the closure of ``word``, whose exponent sum is ``e``, and its mirror image."""
        lo, x = self.trace(word)
        pair = self.by_trace.get((e, lo, x))
        if pair is None:
            share = self.by_value.setdefault
            poly = hecke._skein_from_trace(e, lo, _digits(x, word), word)
            poly = share(poly, poly)
            mirror = mirror_image(poly)
            pair = self.by_trace[e, lo, x] = poly, share(mirror, mirror)
        return pair


def _orbit_pairs(length: int) -> Iterator[tuple[Word, Word, Word, int]]:
    """``(word, key, mate_key, e)`` once for each inverse pair of orbits, e the word's exponent sum.

    Type-A pairs come first, each with its positive word first, so e =
    length for type A and e < length for type B.  The type-A words
    ``delta^k R`` with k > 0 come in all three subscript shifts, so a
    type-A pair met before, in another shift, is dropped here.  A pair
    whose type-A keys differ in length or lack opposite exponent sums is a
    bug (the kind follows from both: A+ at e = n, A- at e = -n, so this
    also checks that A+ and A- swap), and so is an orbit paired with two
    different orbits.  Type-B words come one per orbit, and their keys are
    rotations of their shifted words, so they pass by construction.
    """
    starts: dict[Word, tuple[int, dict[int, int]]] = {}
    partners: dict[Word, Word] = {}  # type-A orbits only
    left_len = 0
    words = generate_normal_forms(length)
    for word in words:
        # the empty word is its own inverse and comes alone
        mate = next(words) if word else word
        if word and word[0] < 0:
            split = bisect_right(word, 0)
            if split != left_len:
                # pairs come by left-factor length, type A first, so no
                # negative block or type-A orbit recurs after it changes
                starts.clear()
                partners.clear()
                left_len = split
            yield word, _type_b_key(word, starts), _type_b_key(mate, starts), length - 2 * split
            continue
        key, mate_key = canonical_key(word), canonical_key(mate)
        if len(mate_key) != len(key) or exponent_sum(mate_key) != -exponent_sum(key):
            raise ConsistencyError(
                f"{render_word(mate)} is not in the inverse orbit of {render_word(word)}"
            )
        new = key not in partners
        for k, partner in ((key, mate_key), (mate_key, key)):
            old = partners.setdefault(k, partner)
            if old != partner:
                raise ConsistencyError(
                    f"orbit {render_word(k)} has inverse orbits {render_word(old)} and {render_word(partner)}"
                )
        if new:
            yield word, key, mate_key, length


def enumerate_minimal(length: int, cap: int = DEFAULT_MAX_BANDS) -> list[CensusEntry]:
    """All minimal-word orbits of exactly the given length, sorted by key.

    The closure of a word's inverse is its mirror image with every
    orientation reversed, which leaves the skein polynomial unchanged, so
    only the first word of each inverse pair is evaluated; the other gets
    the mirror image of its polynomial.  Type-B words come one per orbit,
    so equal neighbours among the sorted keys are a bug.  Each distinct
    polynomial's component count is checked against the permutation of its
    first row.
    """
    if length > min(cap, MAX_BANDS_CEILING):
        if length <= MAX_BANDS_CEILING:
            bound = f"the enumeration cap {cap}; raise --max-bands"
        else:
            # past the ceiling no --max-bands reaches the length, and no cap lets it run
            over_cap = f"the enumeration cap {cap} and " if length > cap else ""
            bound = f"{over_cap}the ceiling {MAX_BANDS_CEILING} of --max-bands"
        raise CapExceededError(f"length {length} exceeds {bound}")
    skeins = _Skeins()
    rows: list[CensusEntry] = []
    for word, key, mate_key, e in _orbit_pairs(length):
        poly, mirror = skeins.of(word, e)
        rows.append(CensusEntry(key, poly))
        if word:
            rows.append(CensusEntry(mate_key, mirror))
    del skeins  # free the caches before the sort allocates
    rows.sort(key=attrgetter("word"))
    for before, entry in itertools.pairwise(rows):
        if before.word == entry.word:
            raise ConsistencyError(f"orbit {render_word(entry.word)} is generated twice")
    firsts: dict[int, CensusEntry] = {}  # by id: one object per distinct polynomial
    for e in rows:
        firsts.setdefault(id(e.polynomial), e)
    for e in firsts.values():
        if e.components != (walked := closure_components(e.word)):
            raise ConsistencyError(
                f"the polynomial of {render_word(e.word)} shows {e.components} components, "
                f"its permutation {walked}"
            )
    return rows


def genus_census(g: int, cap: int = DEFAULT_MAX_BANDS) -> list[CensusEntry]:
    """All knot orbits of genus g (minimal length 2g + 2)."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    rows = enumerate_minimal(2 * g + 2, cap=cap)
    # by id: the census shares one object per distinct polynomial, so each count is read once
    knots = {i for i, e in {id(e.polynomial): e for e in rows}.items() if e.components == 1}
    return [e for e in rows if id(e.polynomial) in knots]


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
    2 + max deg_z, which law 8 keeps non-negative.  A search beyond the cap
    raises ``CapExceededError`` (inconclusive).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial is not a link polynomial")
    max_z = p.max_deg_z()
    # z-degrees of the parity of 1 - components: odd ones mean 2 components;
    # of an odd count the laws read only that it is not 2
    components = 2 if max_z & 1 else 1
    for reason, _ in broken_laws(p, 1 - max_z, components):
        return RealizabilityVerdict(False, reason)
    for entry in enumerate_minimal(2 + max_z, cap=cap):
        if entry.polynomial == p:
            return RealizabilityVerdict(True, witness=entry.word)
    return RealizabilityVerdict(False, REASON_SEARCH)
