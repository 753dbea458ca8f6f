"""Xu's three steps by scans, kept as a test oracle for ``braid3.xu``.

``push_negatives_left`` (step (i)) bubbles inverse letters to the front,
one adjacent swap or cancellation at a time, rescanning until nothing
changes.  ``extract_descents`` removes the leftmost descent pair, shifts the
letters in front of it and rescans from the start; ``cancel_factors``
re-extracts the descents of all of R after each letter it slides through
the delta block.  None of them uses the stack or the one-pair check of
``braid3.xu``, and all take time at least quadratic in the word length.
Together they give the oracle ``reduce``, which shares no step with the
package, so a faster step (i) there is checked against this one.
"""

from __future__ import annotations

from typing import Sequence

from braid3.errors import ConsistencyError
from braid3.words import Word, inverse, normalize_index, render_word, shift_letter
from braid3.xu import TYPE_A_NEGATIVE, TYPE_A_POSITIVE, TYPE_B, XuNormalForm


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

    The leftmost descent pair s_{i+1} s_i is removed first; the letters in
    front of it pick up the index shift from commuting delta to the front.
    """
    if any(l < 0 for l in word):
        raise ValueError("descent extraction expects a positive word")
    letters = list(word)
    k = 0
    i = 0
    while i < len(letters) - 1:
        if letters[i + 1] == shift_letter(letters[i], -1):
            prefix = [shift_letter(l, 1) for l in letters[:i]]
            letters = prefix + letters[i + 2 :]
            k += 1
            i = 0
        else:
            i += 1
    return k, tuple(letters)


def cancel_factors(L: Sequence[int], k: int, R: Sequence[int]) -> XuNormalForm:
    """Step (iii): eliminate one factor of L^{-1} delta^k R and classify.

    Accepts any positive L and R (descents are re-extracted as needed) and
    a delta power of either sign.  Cyclic end reductions are recorded in the
    returned conjugator.
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
            # slides right past the remaining deltas, gaining one subscript each.
            i = L_list.pop(0)
            k -= 1
            R_list.insert(0, normalize_index(i - 1 + k))
            dk, R_new = extract_descents(tuple(R_list))
            k += dk
            R_list = list(R_new)
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
    sorted_word = push_negatives_left(word)
    split = next((i for i, l in enumerate(sorted_word) if l > 0), len(sorted_word))
    neg, pos = sorted_word[:split], sorted_word[split:]
    return cancel_factors(inverse(neg), 0, pos)
