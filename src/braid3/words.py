"""Words in the band presentation of the 3-strand braid group.

The group is generated by the bands s1, s2 and s3 = s1^{-1} s2 s1, subject
to s2 s1 = s3 s2 = s1 s3; with subscripts read mod 3 the relations collapse
to s_{i+1} s_i = delta for the common value delta = [2 1].  A word is a
tuple of nonzero letters in {±1, ±2, ±3}; the notation [l_1 ... l_k]
writes the letter e*i for s_i^e.

Word equality is decided through the reduced Burau representation, which
is faithful on three strands, so the matrix (plus the exponent sum, kept
alongside for cheap sanity checks) is a complete invariant of the element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import WordSyntaxError
from .laurent import LaurentPoly1

Word = tuple[int, ...]

DELTA = (2, 1)  # the dual Garside element, as a word
HALF_TWIST = (1, 2, 1)  # Delta = [121]; its square generates the centre


def normalize_index(i: int) -> int:
    """Canonical residue of a generator subscript, always in {1, 2, 3}."""
    return (i - 1) % 3 + 1


def shift_letter(letter: int, by: int) -> int:
    sign = 1 if letter > 0 else -1
    return sign * normalize_index(abs(letter) + by)


def shift_indices(word: Sequence[int], by: int) -> Word:
    """Add ``by`` to every subscript mod 3; this conjugates by a delta power."""
    return tuple(shift_letter(l, by) for l in word)


_TOKEN_RE = re.compile(r"^(-?\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse ``[1 -2 3]`` style text into a word.

    Brackets are optional, separators are whitespace or commas, and a token
    ``g^k`` repeats the letter g k times (a negative k repeats the inverse
    letter).  Zero and out-of-range subscripts are rejected.
    """
    stripped = text.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    elif "[" in stripped or "]" in stripped:
        raise WordSyntaxError("unbalanced brackets", 0)
    letters: list[int] = []
    for pos, token in enumerate(t for t in re.split(r"[,\s]+", stripped) if t):
        m = _TOKEN_RE.match(token)
        if not m:
            raise WordSyntaxError(f"malformed token {token!r}", pos)
        letter = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if letter == 0:
            raise WordSyntaxError("letter 0 is not a generator", pos)
        if abs(letter) > 3:
            raise WordSyntaxError(f"subscript out of range in {token!r}", pos)
        if power < 0:
            letter, power = -letter, -power
        letters.extend([letter] * power)
    return tuple(letters)


def render_word(word: Sequence[int]) -> str:
    return "[" + " ".join(str(l) for l in word) + "]"


def exponent_sum(word: Sequence[int]) -> int:
    return sum(1 if l > 0 else -1 for l in word)


# Transpositions induced on strand positions; signs are irrelevant.
_PERM = {1: (1, 0, 2), 2: (0, 2, 1), 3: (2, 1, 0)}


def permutation(word: Sequence[int]) -> tuple[int, int, int]:
    perm = (0, 1, 2)
    for letter in word:
        tr = _PERM[abs(letter)]
        perm = (tr[perm[0]], tr[perm[1]], tr[perm[2]])
    return perm


def closure_components(word: Sequence[int]) -> int:
    """Number of components of the closed braid: cycles of the permutation."""
    perm = permutation(word)
    seen = [False] * 3
    cycles = 0
    for start in range(3):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def mirror(word: Sequence[int]) -> Word:
    """A word whose closure is the mirror image of the input's closure.

    Mirroring flips every crossing of the underlying diagram, which negates
    every letter of the Artin expansion.  Negating a band letter s3 in
    place would instead conjugate by a different band and can change the
    closure (s1^{-1} s2^{-1} s3 = s2^{-1} already shows the difference), so
    the expansion is taken first; words without s3 letters are negated
    letter by letter as expected.
    """
    return tuple(-l for l in to_artin(word))


def inverse(word: Sequence[int]) -> Word:
    return tuple(-l for l in reversed(word))


def cyclic_rotate(word: Sequence[int], k: int) -> Word:
    """Left-rotate by k (k = -1 moves the last letter to the front)."""
    w = tuple(word)
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def concat(*words: Sequence[int]) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def to_artin(word: Sequence[int]) -> Word:
    """Rewrite over s1, s2 only: the same element as an Artin word.

    Each maximal run of s3-letters is expanded as one conjugate
    s1^{-1} (s2-run) s1, so a run of k band letters costs k + 2 crossings.
    """
    out: list[int] = []
    i = 0
    letters = tuple(word)
    while i < len(letters):
        if abs(letters[i]) != 3:
            out.append(letters[i])
            i += 1
            continue
        j = i
        while j < len(letters) and abs(letters[j]) == 3:
            j += 1
        out.append(-1)
        out.extend(2 if l > 0 else -2 for l in letters[i:j])
        out.append(1)
        i = j
    return tuple(out)


# ---------------------------------------------------------------------------
# Reduced Burau representation (faithful on B3), the word-problem oracle.

def _p(terms: dict[int, int]) -> LaurentPoly1:
    return LaurentPoly1("t", terms)


@dataclass(frozen=True)
class BurauMatrix:
    """A 2x2 matrix over Z[t^{±1}] plus the tracked exponent sum."""

    a: LaurentPoly1
    b: LaurentPoly1
    c: LaurentPoly1
    d: LaurentPoly1
    exponent: int

    def __mul__(self, other: "BurauMatrix") -> "BurauMatrix":
        return BurauMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.exponent + other.exponent,
        )


_IDENTITY = BurauMatrix(_p({0: 1}), _p({}), _p({}), _p({0: 1}), 0)
_M1 = BurauMatrix(_p({1: -1}), _p({0: 1}), _p({}), _p({0: 1}), 1)
_M1I = BurauMatrix(_p({-1: -1}), _p({-1: 1}), _p({}), _p({0: 1}), -1)
_M2 = BurauMatrix(_p({0: 1}), _p({}), _p({1: 1}), _p({1: -1}), 1)
_M2I = BurauMatrix(_p({0: 1}), _p({}), _p({0: 1}), _p({-1: -1}), -1)
# s3 = s1^{-1} s2 s1; the product already carries the right exponent sum.
_M3 = _M1I * _M2 * _M1
_M3I = _M1I * _M2I * _M1

_BURAU = {1: _M1, -1: _M1I, 2: _M2, -2: _M2I, 3: _M3, -3: _M3I}


def burau(word: Sequence[int]) -> BurauMatrix:
    out = _IDENTITY
    for letter in word:
        out = out * _BURAU[letter]
    return out


def words_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the two words represent the same element of the group."""
    return exponent_sum(a) == exponent_sum(b) and burau(a) == burau(b)


def dual(word: Sequence[int]) -> Word:
    """Delta^{2e/3} times the inverse word; needs e divisible by 6.

    The divisibility makes the prefix an even, hence central, power of the
    half twist, and the closure of the dual has the same skein polynomial.
    """
    e = exponent_sum(word)
    if e % 6 != 0:
        raise ValueError(f"dual needs exponent sum divisible by 6, got {e}")
    block = HALF_TWIST * 2 if e >= 0 else inverse(HALF_TWIST * 2)
    return concat(block * (abs(e) // 3), inverse(word))
