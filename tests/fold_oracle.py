"""The 6-dimensional Hecke fold, kept as a test oracle for ``braid3.hecke``.

The skein relation  v^{-1} P(L+) - v P(L-) = z P(L0)  turns each generator
into a root of the local quadratic  g^2 = v z g + v^2,  equivalently
g^{-1} = v^{-2} g - v^{-1} z.  Modulo these relations and the braid
relation, words in s1 = a and s2 = b span a 6-dimensional algebra with the
positive permutation braids B = {1, a, b, ab, ba, aba} as a basis.  A word
is evaluated by folding the letters of its Artin expansion into a
coefficient vector over B and then pairing it with the closure polynomial
of each basis braid:

    1 -> delta^2   a, b -> delta   ab, ba -> 1   aba -> v z + v^2 delta

where delta = (v^{-1} - v)/z.  ``braid3.hecke.trace_table_from_oracle``
rederives those six values from closed 2-braids and Markov moves.

The fold shares nothing with the engine in ``braid3.hecke`` (the exponent
sum and the trace of one Burau product) beyond the Artin expansion and the
polynomial type.
"""

from __future__ import annotations

from typing import Sequence

from braid3.laurent import LaurentPoly2, delta_unlink_factor
from braid3.words import to_artin

# Basis indices: 0 = 1, 1 = a, 2 = b, 3 = ab, 4 = ba, 5 = aba.
_VZ = (1, 1)
_V2 = (2, 0)
_UNIT = (0, 0)

# Right multiplication by a and by b: basis index -> ((target, monomial), ...)
# where the monomial is an exponent pair scaling the moved coefficient.
# Derived from g^2 = vz g + v^2 and aba = bab.
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


# The closure polynomials of the six basis braids, frozen.
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


def fold_word(word: Sequence[int]) -> tuple[LaurentPoly2, ...]:
    """The basis-coefficient vector of a word, as six polynomials."""
    raw = _raw_unit()
    for letter in to_artin(word):
        raw = _raw_fold(raw, letter)
    return tuple(LaurentPoly2(terms) for terms in raw)


def fold_homfly(word: Sequence[int]) -> LaurentPoly2:
    """Skein polynomial of the closure, by the linear-time basis fold."""
    raw = _raw_unit()
    for letter in to_artin(word):
        raw = _raw_fold(raw, letter)
    return _close(raw)
