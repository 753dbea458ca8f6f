"""Skein (HOMFLY) polynomials of closed 3-braids in time linear in the word.

The skein relation  v^{-1} P(L+) - v P(L-) = z P(L0)  turns each generator
into a root of the local quadratic  g^2 = v z g + v^2,  equivalently
g^{-1} = v^{-2} g - v^{-1} z.  Modulo these relations and the braid
relation, words in s1 = a and s2 = b span a 6-dimensional algebra with the
positive permutation braids B = {1, a, b, ab, ba, aba} as a basis.  A word
is evaluated by folding its letters into a coefficient vector over B
(a run of band letters s3^{e_1} ... s3^{e_k} is first rewritten as
s1^{-1} s2^{e_1} ... s2^{e_k} s1 by ``words.to_artin``) and then pairing
with the closure polynomial of each basis braid:

    1 -> delta^2   a, b -> delta   ab, ba -> 1   aba -> v z + v^2 delta

where delta = (v^{-1} - v)/z.  Those six values are forced by the skein
relation alone; ``trace_table_from_oracle`` rederives them at import time
from closed 2-braids (the closed form of the skein relation on a twist
region) and Markov moves, and refuses to run if they disagree with the
frozen constants.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .errors import ConsistencyError
from .laurent import LaurentPoly2, delta_unlink_factor, mirror_image
from .words import to_artin

# Basis indices: 0 = 1, 1 = a, 2 = b, 3 = ab, 4 = ba, 5 = aba.
_VZ = (1, 1)
_V2 = (2, 0)
_UNIT = (0, 0)

# Right multiplication by a and by b: basis index -> ((target, monomial), ...)
# where the monomial is an exponent pair scaling the moved coefficient.
# Derived from g^2 = vz g + v^2 and aba = bab; guarded by the skein fuzz tests.
_RIGHT_A = (
    ((1, _UNIT),),
    ((1, _VZ), (0, _V2)),
    ((4, _UNIT),),
    ((5, _UNIT),),
    ((4, _VZ), (2, _V2)),
    ((5, _VZ), (3, _V2)),
)
_RIGHT_B = (
    ((2, _UNIT),),
    ((3, _UNIT),),
    ((2, _VZ), (0, _V2)),
    ((3, _VZ), (1, _V2)),
    ((5, _UNIT),),
    ((5, _VZ), (4, _V2)),
)

_Raw = list[dict[tuple[int, int], int]]


def _raw_unit() -> _Raw:
    return [{(0, 0): 1}, {}, {}, {}, {}, {}]


def _raw_positive(vec: _Raw, table) -> _Raw:
    out: _Raw = [{}, {}, {}, {}, {}, {}]
    for i, coeff in enumerate(vec):
        if not coeff:
            continue
        for target, (dv, dz) in table[i]:
            acc = out[target]
            for (a, b), c in coeff.items():
                key = (a + dv, b + dz)
                acc[key] = acc.get(key, 0) + c
    return out


def _raw_fold(vec: _Raw, letter: int) -> _Raw:
    table = _RIGHT_A if abs(letter) == 1 else _RIGHT_B
    if letter > 0:
        return _raw_positive(vec, table)
    # x g^{-1} = v^{-2} (x g) - v^{-1} z x
    shifted = _raw_positive(vec, table)
    out: _Raw = []
    for moved, stay in zip(shifted, vec):
        acc: dict[tuple[int, int], int] = {}
        for (a, b), c in moved.items():
            key = (a - 2, b)
            acc[key] = acc.get(key, 0) + c
        for (a, b), c in stay.items():
            key = (a - 1, b + 1)
            acc[key] = acc.get(key, 0) - c
        out.append({k: v for k, v in acc.items() if v})
    return out


def _trace_table() -> tuple[LaurentPoly2, ...]:
    d = delta_unlink_factor()
    hopf = LaurentPoly2.monomial(1, 1, 1) + d.scale_by_monomial(1, 2, 0)
    return (d * d, d, d, LaurentPoly2.one(), LaurentPoly2.one(), hopf)


TRACE_TABLE: tuple[LaurentPoly2, ...] = _trace_table()


_TRACE_TERMS = tuple(p.terms_dict() for p in TRACE_TABLE)


def _close(raw: _Raw) -> LaurentPoly2:
    """Pair a raw fold vector with the closure values of the basis."""
    out: dict[tuple[int, int], int] = {}
    for coeff, closed in zip(raw, _TRACE_TERMS):
        for (a, b), c in coeff.items():
            for (x, y), d in closed.items():
                key = (a + x, b + y)
                out[key] = out.get(key, 0) + c * d
    return LaurentPoly2(out)


def homfly(word: Sequence[int]) -> LaurentPoly2:
    """Skein polynomial of the closure, via the linear-time basis fold."""
    raw = _raw_unit()
    for l in to_artin(word):
        raw = _raw_fold(raw, l)
    return _close(raw)


def homfly_many(words: Sequence[Sequence[int]]) -> list[LaurentPoly2]:
    """``homfly`` of each word, folding a prefix shared with the previous word once.

    ``stack[i]`` is the fold of the first i Artin letters of the previous
    word, so a sorted list of short words costs little more than its
    distinct suffixes.
    """
    out: list[LaurentPoly2] = []
    prev: tuple[int, ...] = ()
    stack = [_raw_unit()]
    for word in words:
        w = to_artin(word)
        common = 0
        for x, y in zip(prev, w):
            if x != y:
                break
            common += 1
        del stack[common + 1 :]
        raw = stack[common]
        for l in w[common:]:
            raw = _raw_fold(raw, l)
            stack.append(raw)
        out.append(_close(raw))
        prev = w
    return out


# ---------------------------------------------------------------------------
# Closed 2-braids from the closed form of the skein relation on a twist
# region.  They certify the trace table through Markov moves rather than
# trusting transcription, and they drive the torus and pretzel evaluations.

def skein_oracle(word: Sequence[int]) -> LaurentPoly2:
    """Closure polynomial of a word over s1 (2-strand closure).

    In the 2-strand group the word is s1^e for its exponent sum e, so this
    is ``_torus2(e)``.  The domain is words in {±1} with at most one
    trailing ±2 letter, the trailing letter being a stabilisation that does
    not change the closure.
    """
    letters = tuple(word)
    if letters and abs(letters[-1]) == 2:
        letters = letters[:-1]
    if any(abs(l) != 1 for l in letters):
        raise ValueError("skein_oracle handles s1-words with one optional trailing s2")
    return _torus2(sum(1 if l > 0 else -1 for l in letters))


def _chain(m: int) -> LaurentPoly2:
    """B_m = v^(m-1) sum_i C(m-1-i, i) z^(m-1-2i); zero for m = 0."""
    return LaurentPoly2(
        {(m - 1, m - 1 - 2 * i): comb(m - 1 - i, i) for i in range((m + 1) // 2)}
    )


def _twist(n: int) -> tuple[LaurentPoly2, LaurentPoly2]:
    """(A_n, B_n) with f(n) = A_n f(0) + B_n f(1) under f(j) = v z f(j-1) + v^2 f(j-2).

    This is the skein relation at a positive crossing of a twist region.
    B obeys it from (B_0, B_1) = (0, 1), which ``_chain`` solves in closed
    form, and A_n = v^2 B_(n-1) with A_0 = 1.
    """
    if n == 0:
        return LaurentPoly2.one(), LaurentPoly2.zero()
    return _chain(n - 1).scale_by_monomial(1, 2, 0), _chain(n)


def _torus2(k: int) -> LaurentPoly2:
    """P of the 2-strand closure of s1^k, from P(0) = delta and P(1) = 1."""
    if k < 0:
        return mirror_image(_torus2(-k))
    a, b = _twist(k)
    return a * delta_unlink_factor() + b


def trace_table_from_oracle() -> tuple[LaurentPoly2, ...]:
    """Rederive the six closure values from the oracle and Markov moves only."""
    d = delta_unlink_factor()
    split_unknot = d  # a split unknot multiplies the polynomial by delta
    return (
        split_unknot * skein_oracle(()),        # empty braid: 3 unknots
        split_unknot * skein_oracle((1,)),      # a: unknot plus split unknot
        split_unknot * skein_oracle((1,)),      # b: same closure by relabelling
        skein_oracle((1, 2)),                   # ab destabilises to s1
        skein_oracle((1, 2)),                   # ba is a rotation of ab
        skein_oracle((1, 1, 2)),                # aba rotates to s1^2 s2
    )


def _check_trace_table() -> None:
    if TRACE_TABLE != trace_table_from_oracle():
        raise ConsistencyError("frozen trace table disagrees with the skein oracle")


_check_trace_table()


# ---------------------------------------------------------------------------
# Torus and pretzel evaluations driven by the same closed form.

def torus_homfly(k: int) -> LaurentPoly2:
    """P of the (2,k) torus link, the closure of s1^k s2."""
    return _torus2(k)


def pretzel_homfly(twists: Sequence[int]) -> LaurentPoly2:
    """P of the parallel-oriented pretzel with the given twist counts.

    In the parallel orientation the two strands of every twist region point
    the same way.  Neighbouring regions then point opposite ways, so the
    orientation exists only for an even number of regions; an odd count is
    rejected.

    The skein relation at a crossing of a region with a crossings reads
    P(.., a, ..) = v z P(.., a-1, ..) + v^2 P(.., a-2, ..), so
    P(.., a, ..) = A_a P(.., 0, ..) + B_a P(.., 1, ..), where A and B obey
    the same recurrence from (A_0, A_1) = (1, 0) and (B_0, B_1) = (0, 1)
    (``_twist`` gives both in closed form).
    Expanding every region this way leaves regions of 0 or 1 crossings: with
    e >= 1 empty regions the cycle falls apart into e unknots
    (delta^(e-1)), and with none it is the necklace of ones.  Every
    expansion is a loop, so no recursion grows with the twist counts.
    """
    a = tuple(twists)
    if len(a) < 2:
        raise ValueError("a pretzel needs at least 2 twist regions")
    if len(a) % 2:
        raise ValueError(
            f"a parallel-oriented pretzel needs an even number of twist regions, got {len(a)}"
        )
    if any(t < 0 for t in a):
        raise ValueError("twist counts must be non-negative")
    # ``split`` sums the expansions with an empty region among those seen so
    # far; ``whole`` is the coefficient of the expansion with none.
    d = delta_unlink_factor()
    split, whole = LaurentPoly2.zero(), LaurentPoly2.one()
    for t in a:
        a_t, b_t = _twist(t)
        # Once some region is empty, this one adds delta A_t (emptied) + B_t
        # (kept), which is P of the (2, t) torus link.
        split, whole = split * (a_t * d + b_t) + whole * a_t, whole * b_t
    return split + whole * _ones_necklace(len(a))


def _ones_necklace(k: int) -> LaurentPoly2:
    """The pretzel whose k regions (k even) hold one positive crossing each.

    Unoriented this is the (2,k) torus link, but the parallel-pretzel
    orientation makes its two strands antiparallel as an annulus, where
    smoothing one crossing yields an unknot and switching removes two:
    A(k) = v z + v^2 A(k-2) with A(0) the two-component unlink.
    """
    out = delta_unlink_factor()
    for _ in range(k // 2):
        out = LaurentPoly2.monomial(1, 1, 1) + out.scale_by_monomial(1, 2, 0)
    return out
