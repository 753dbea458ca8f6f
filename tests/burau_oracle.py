"""Reduced Burau matrices over ``LaurentPoly1``, kept as a test oracle.

``braid3.words.burau`` multiplies dense integer lists along the Artin
expansion of a word.  This oracle multiplies whole 2x2 matrices of sparse
Laurent polynomials in t, letter by band letter, with s3 = s1^{-1} s2 s1
built by matrix products, so the two share nothing beyond the generator
matrices

    s1 = [[-t, 1], [0, 1]]      s2 = [[1, 0], [t, -t]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from braid3.laurent import LaurentPoly1


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


def burau_matrix(word: Sequence[int]) -> BurauMatrix:
    out = _IDENTITY
    for letter in word:
        out = out * _BURAU[letter]
    return out


def entries(m) -> tuple[dict[int, int], ...]:
    """The four entries of a dense ``braid3.words.Burau`` or a ``BurauMatrix``
    as ``{exponent: coefficient}`` dicts without zero terms."""
    if isinstance(m, BurauMatrix):
        return tuple(dict(p.items()) for p in (m.a, m.b, m.c, m.d))
    return tuple(
        {m.offset + i: x for i, x in enumerate(entry) if x} for entry in (m.a, m.b, m.c, m.d)
    )
