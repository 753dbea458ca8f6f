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
from operator import add, neg
from typing import Sequence

from .errors import WordSyntaxError
from .limits import MAX_WORD_LETTERS

Word = tuple[int, ...]

DELTA = (2, 1)  # the dual Garside element, as a word
DELTA_INV = (-1, -2)  # its inverse
HALF_TWIST = (1, 2, 1)  # Delta = [121]; its square generates the centre


def normalize_index(i: int) -> int:
    """Canonical residue of a generator subscript, always in {1, 2, 3}."""
    return (i - 1) % 3 + 1


def shift_letter(letter: int, by: int) -> int:
    sign = 1 if letter > 0 else -1
    return sign * normalize_index(abs(letter) + by)


_TOKEN_RE = re.compile(r"^(-?\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse ``[1 -2 3]`` style text into a word.

    Brackets are optional, separators are whitespace or commas, and a token
    ``g^k`` repeats the letter g k times (a negative k repeats the inverse
    letter).  Zero and out-of-range subscripts are rejected, and so is a
    word of more than ``MAX_WORD_LETTERS`` letters, before it is built.
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
        if power > MAX_WORD_LETTERS - len(letters):
            raise WordSyntaxError(f"the word exceeds the limit of {MAX_WORD_LETTERS} letters", pos)
        letters.extend([letter] * power)
    return tuple(letters)


def render_word(word: Sequence[int]) -> str:
    return "[" + " ".join(map(str, word)) + "]"


def exponent_sum(word: Sequence[int]) -> int:
    return sum(1 if l > 0 else -1 for l in word)


# Transpositions induced on strand positions; signs are irrelevant.
_PERM = {1: (1, 0, 2), 2: (0, 2, 1), 3: (2, 1, 0)}
_CYCLES_BY_FIXED_POINTS = {3: 3, 1: 2, 0: 1}


def permutation(word: Sequence[int]) -> tuple[int, int, int]:
    perm = (0, 1, 2)
    for letter in word:
        tr = _PERM[abs(letter)]
        perm = (tr[perm[0]], tr[perm[1]], tr[perm[2]])
    return perm


def closure_components(word: Sequence[int]) -> int:
    """Components of the closed braid: 3, 2 or 1 as its permutation fixes 3, 1 or 0 points."""
    perm = permutation(word)
    return _CYCLES_BY_FIXED_POINTS[(perm[0] == 0) + (perm[1] == 1) + (perm[2] == 2)]


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


def to_artin(word: Sequence[int]) -> Word:
    """Rewrite over s1, s2 only: the same element as an Artin word.

    Each maximal run of s3-letters is expanded as one conjugate
    s1^{-1} (s2-run) s1, so a run of k band letters costs k + 2 crossings.
    """
    out: list[int] = []
    in_run = False
    for l in word:
        if l == 3 or l == -3:
            if not in_run:
                out.append(-1)
                in_run = True
            out.append(2 if l > 0 else -2)
        else:
            if in_run:
                out.append(1)
                in_run = False
            out.append(l)
    if in_run:
        out.append(1)
    return tuple(out)


# ---------------------------------------------------------------------------
# Reduced Burau representation (faithful on B3): it decides the word
# problem, and its trace gives the skein polynomial (``hecke``).
#
# A matrix is a raw tuple ``(offset, a, b, c, d)``: the entries of
# [[a, b], [c, d]] as dense integer sequences over t^offset, t^(offset+1),
# ..., all of one length and trimmed so that no end column is zero in all
# four.  Right multiplication by an Artin letter costs two shifts and two
# column adds:
#
#     s1 = [[-t, 1], [0, 1]]      s1^-1 = [[-1/t, 1/t], [0, 1]]
#     s2 = [[1, 0], [t, -t]]      s2^-1 = [[1, 0], [1, -1/t]]

RawBurau = tuple[int, Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

BURAU_ONE: RawBurau = (0, (1,), (0,), (0,), (1,))


def burau_step(m: RawBurau, letter: int) -> RawBurau:
    """The raw matrix ``m`` times the Burau matrix of the Artin letter."""
    lo, a, b, c, d = m
    if letter == 1:
        a, b = [0, *map(neg, a)], [*map(add, a, b), 0]
        c, d = [0, *map(neg, c)], [*map(add, c, d), 0]
    elif letter == 2:
        a, b = [*map(add, [*a, 0], [0, *b])], [0, *map(neg, b)]
        c, d = [*map(add, [*c, 0], [0, *d])], [0, *map(neg, d)]
    elif letter == -1:
        lo -= 1
        a, b = [*map(neg, a), 0], [*map(add, [*a, 0], [0, *b])]
        c, d = [*map(neg, c), 0], [*map(add, [*c, 0], [0, *d])]
    elif letter == -2:
        lo -= 1
        a, b = [0, *map(add, a, b)], [*map(neg, b), 0]
        c, d = [0, *map(add, c, d)], [*map(neg, d), 0]
    else:
        raise ValueError(f"burau_step takes an Artin letter in {{+-1, +-2}}, got {letter}")
    while not (a[-1] or b[-1] or c[-1] or d[-1]):
        del a[-1], b[-1], c[-1], d[-1]
    while not (a[0] or b[0] or c[0] or d[0]):
        lo += 1
        del a[0], b[0], c[0], d[0]
    return lo, a, b, c, d


@dataclass(frozen=True)
class Burau:
    """The reduced Burau matrix of a word, in trimmed dense form, and its exponent sum."""

    exponent: int
    offset: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]


def burau(word: Sequence[int]) -> Burau:
    m = BURAU_ONE
    for letter in to_artin(word):
        m = burau_step(m, letter)
    lo, a, b, c, d = m
    return Burau(exponent_sum(word), lo, tuple(a), tuple(b), tuple(c), tuple(d))


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
    return block * (abs(e) // 3) + inverse(word)
