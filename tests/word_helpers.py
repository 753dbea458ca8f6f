"""Word operations that only the tests use: concatenation, the subscript shift and alternating words."""

from __future__ import annotations

import random
from typing import Sequence

from braid3.words import Word, shift_letter


def shift_indices(word: Sequence[int], by: int) -> Word:
    """Add ``by`` to every subscript mod 3; this conjugates by a delta power."""
    return tuple(shift_letter(l, by) for l in word)


def concat(*words: Sequence[int]) -> Word:
    out: list[int] = []
    for w in words:
        out.extend(w)
    return tuple(out)


def alternating_word(rng: random.Random, crossings: int) -> Word:
    """A seeded ``[1^a1 -2^b1 ... 1^an -2^bn]``, every a_i and b_i in 1..5, of at least ``crossings`` letters.

    Its closure is an alternating diagram with one crossing per letter.
    """
    word: list[int] = []
    while len(word) < crossings:
        word += [1] * rng.randint(1, 5) + [-2] * rng.randint(1, 5)
    return tuple(word)
