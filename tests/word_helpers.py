"""Word operations that only the tests use: concatenation and the subscript shift."""

from __future__ import annotations

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
