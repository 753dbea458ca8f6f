"""Xu's minimal-length reduction for band-generator words.

Every element of the 3-strand braid group has a shortest representative in
the band generators of one of two shapes, writing delta = [2 1]:

  type A:  delta^k R  (all positive)   or   L^{-1} delta^{-k}  (all negative)
  type B:  L^{-1} R   with both parts nonempty,

where L and R are positive words with cyclically non-decreasing subscripts
(each s_i is followed by s_i or s_{i+1}) and a type B form is cyclically
reduced: L and R start with different letters and end with different
letters.  The reduction runs three steps, (ii) and (iii) in one pass each:

  (i)   sort inverse letters to the left with s_i s_j^{-1} = s_{i+1}^{-1} s_{j+1},
        cancelling free pairs as they appear;
  (ii)  extract descents: a factor s_{i+1} s_i equals delta, which commutes
        past s_j as s_j delta = delta s_{j+1}, so it migrates to the front;
  (iii) cancel across the middle with s_i^{-1} delta = s_{i-1}, one pair checked
        per slid letter, plus free and cyclic end reductions.

Cyclic end reduction conjugates the word, which is harmless for the closed
braid but can genuinely shorten below what the exact group element admits;
the conjugating letters are recorded so tests can certify that the output
equals the input up to the recorded conjugation (Burau is the judge).
The resulting minimal length is an invariant of the closure:
the closed braid bounds a surface of Euler characteristic 3 - length built
from 3 disks and one band per letter, and that surface is maximal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConsistencyError
from .words import (
    DELTA,
    DELTA_INV,
    Word,
    closure_components,
    inverse,
    normalize_index,
    render_word,
    shift_letter,
)

TYPE_A_POSITIVE = "type-A-positive"
TYPE_A_NEGATIVE = "type-A-negative"
TYPE_B = "type-B"

QP_POSITIVE = "positive"
QP_MIRROR = "mirror-positive"
QP_NO = "no"

_LETTERS = frozenset((1, 2, 3, -1, -2, -3))
_QUASIPOSITIVE = {TYPE_A_POSITIVE: QP_POSITIVE, TYPE_A_NEGATIVE: QP_MIRROR, TYPE_B: QP_NO}


@dataclass(frozen=True)
class XuNormalForm:
    """A classified minimal representative of a word's conjugacy class."""

    kind: str
    L: Word  # positive, non-decreasing; the inverted left factor
    k: int  # non-negative delta power (sign is carried by the kind)
    R: Word  # positive, non-decreasing
    conjugator: Word  # minimal_word equals conjugator . input . conjugator^{-1}

    @property
    def minimal_word(self) -> Word:
        if self.kind == TYPE_A_POSITIVE:
            return DELTA * self.k + self.R
        if self.kind == TYPE_A_NEGATIVE:
            return inverse(self.L) + DELTA_INV * self.k
        return inverse(self.L) + self.R

    @property
    def minimal_length(self) -> int:
        return len(self.L) + len(self.R) + 2 * self.k

    @property
    def chi(self) -> int:
        """Maximal Euler characteristic of a Seifert surface for the closure."""
        return 3 - self.minimal_length

    @property
    def components(self) -> int:
        """Number of components of the closure."""
        return closure_components(self.minimal_word)

    @property
    def genus(self) -> int:
        """Genus of the closure, (2c - chi - components) / 2.

        The band surface of the minimal word has c components: the three
        disks stay apart when the word is empty, two of them are joined when
        it uses a single band index, and all three are joined otherwise.
        """
        c = max(1, 3 - len({abs(l) for l in self.minimal_word}))
        return (2 * c - self.chi - self.components) // 2

    @property
    def quasipositive(self) -> str:
        """Whether the closure is a positive band-word closure, up to mirroring.

        A closure is strongly quasipositive iff its minimal form is a positive
        band word (Xu), so the kind decides: type A+ is positive, type A- is
        the mirror image of a positive form, and type B is neither.
        """
        return _QUASIPOSITIVE[self.kind]


def push_negatives_left(word: Sequence[int]) -> Word:
    """Step (i): an equal word with every inverse letter before every letter.

    Adjacent cancelling pairs are removed in both orders, so the result is
    also freely reduced at the seam.
    """
    letters = list(word)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(letters) - 1:
            x, y = letters[i], letters[i + 1]
            if x == -y:
                del letters[i : i + 2]
                i = max(i - 1, 0)
                changed = True
                continue
            if x > 0 > y:
                letters[i] = -shift_letter(x, 1)
                letters[i + 1] = shift_letter(-y, 1)
                changed = True
            i += 1
    return tuple(letters)


def extract_descents(word: Sequence[int]) -> tuple[int, Word]:
    """Step (ii): write a positive word as delta^k times a non-decreasing word.

    One pass keeps a stack without descents, each letter stored less the
    delta count at its push; a letter forming a descent with the top pops it.
    The form is unique (Birman-Ko-Lee), so the order of extraction is free.
    """
    if not {1, 2, 3}.issuperset(word):
        raise ValueError("descent extraction expects a positive word")
    kept: list[int] = []
    k = 0
    for l in word:
        if kept and l == normalize_index(kept[-1] + k - 1):
            kept.pop()
            k += 1
        else:
            kept.append(l - k)
    return k, tuple(normalize_index(x + k) for x in kept)


def cancel_factors(L: Sequence[int], k: int, R: Sequence[int]) -> XuNormalForm:
    """Step (iii): eliminate one factor of L^{-1} delta^k R and classify.

    Accepts any positive L and R and a delta power of either sign.  Cyclic
    end reductions are recorded in the returned conjugator.
    """
    kl, Lw = extract_descents(tuple(L))
    kr, Rw = extract_descents(tuple(R))
    k = k - kl + kr
    # L^{-1} delta^k R with k < 0 is the inverse of R^{-1} delta^{-k} L, which
    # the same steps reduce with the same conjugator: swap, reduce, swap back.
    flip = k < 0
    if flip:
        Lw, Rw, k = Rw, Lw, -k
    L_list, R_list = list(Lw), list(Rw)
    conj: list[int] = []

    while True:
        if k > 0 and L_list:
            # The letter next to the delta block inverts L's first letter:
            # L^{-1} ends with s_i^{-1} for i = L[0], and s_i^{-1} delta = s_{i-1}
            # slides right past the remaining deltas, gaining one subscript each;
            # R is non-decreasing, so it can form a descent only with R[0].
            x = normalize_index(L_list.pop(0) - 2 + k)
            if R_list and R_list[0] == normalize_index(x - 1):
                R_list.pop(0)
            else:
                R_list.insert(0, x)
                k -= 1
            continue
        if k == 0 and L_list and R_list:
            if L_list[0] == R_list[0]:  # free reduction at the seam
                L_list.pop(0)
                R_list.pop(0)
                continue
            if L_list[-1] == R_list[-1]:  # cyclic reduction, conjugates
                conj.insert(0, L_list[-1])
                L_list.pop()
                R_list.pop()
                continue
        break

    if flip:
        L_list, R_list, k = R_list, L_list, -k
    L_out, R_out = tuple(L_list), tuple(R_list)
    conjugator = tuple(conj)
    if not L_out and k >= 0:
        return XuNormalForm(TYPE_A_POSITIVE, (), k, R_out, conjugator)
    if not R_out and k <= 0:
        return XuNormalForm(TYPE_A_NEGATIVE, L_out, -k, (), conjugator)
    if k != 0:
        raise ConsistencyError(
            f"mixed form L={render_word(L_out)} R={render_word(R_out)} ended with delta power {k}"
        )
    return XuNormalForm(TYPE_B, L_out, 0, R_out, conjugator)


def reduce(word: Sequence[int]) -> XuNormalForm:
    """Full reduction of a word to its Xu normal form."""
    if not _LETTERS.issuperset(word):
        bad = next(l for l in word if l not in _LETTERS)
        raise ValueError(f"letter {bad} is not a band letter (±1, ±2 or ±3)")
    sorted_word = push_negatives_left(word)
    split = next((i for i, l in enumerate(sorted_word) if l > 0), len(sorted_word))
    neg, pos = sorted_word[:split], sorted_word[split:]
    return cancel_factors(inverse(neg), 0, pos)


def euler_characteristic(word: Sequence[int]) -> int:
    """Maximal Euler characteristic of a Seifert surface for the closure."""
    return reduce(word).chi


def genus(word: Sequence[int]) -> int:
    """Genus of the closure."""
    return reduce(word).genus


def is_strongly_quasipositive(word: Sequence[int]) -> str:
    """Whether the closure is a positive band-word closure, up to mirroring."""
    return reduce(word).quasipositive
