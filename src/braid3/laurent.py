"""Exact sparse Laurent polynomials in one and two variables.

Coefficients are Python integers, so nothing overflows no matter how many
terms get multiplied.  Two rings cover everything in this package:

* ``LaurentPoly2`` is Z[v^{±1}, z^{±1}] and carries the skein polynomial in
  the convention  v^{-1} P(L+) - v P(L-) = z P(L0),  normalised so that
  P(unknot) = 1.  A split unknot multiplies P by delta = (v^{-1} - v)/z.
* ``LaurentPoly1`` is Z[x^{±1}] for a tagged variable x: Conway
  polynomials (z), Alexander and Jones values in s = t^{1/2}, and
  z-leading coefficients as polynomials in v.

Values are immutable once built; every operation returns a fresh value.
The two-variable text grammar (used by the CLI and table files) is

    poly := term ('+' term)*          term := int '*v^' int '*z^' int

with all whitespace ignored, integers in signed decimal, a bare integer
allowed as a constant term, and the zero polynomial written "0".
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import PolySyntaxError


class _LaurentPoly:
    """The ring code of ``LaurentPoly1`` and ``LaurentPoly2``.

    ``_terms`` maps each exponent to its nonzero coefficient.  A subclass
    supplies ``var``, ``_like`` (a value in the same ring), ``_ONE`` (the
    exponent of 1), ``items`` and ``_term`` (one rendered term).  Values in
    different rings are never equal, and ``+``, ``-`` and ``*`` refuse them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check_ring(self, other) -> None:
        if type(other) is not type(self) or other.var != self.var:
            raise ValueError(f"variable mismatch: {self.var} vs {getattr(other, 'var', other)}")

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = self._like({self._ONE: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.var == self.var and other._terms == self._terms

    def __hash__(self) -> int:
        return hash((self.var, frozenset(self._terms.items())))

    def render(self) -> str:
        return " + ".join([self._term(e, c) for e, c in self.items()]) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.var!r}, {self.render()!r})"


class LaurentPoly1(_LaurentPoly):
    """A Laurent polynomial over Z in one tagged variable."""

    __slots__ = ("var",)
    _ONE = 0

    def __init__(self, var: str, terms: Mapping[int, int] | None = None):
        self.var = var
        _LaurentPoly.__init__(self, terms)

    def _like(self, terms: Mapping[int, int]) -> "LaurentPoly1":
        return LaurentPoly1(self.var, terms)

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly1":
        return cls(var)

    @classmethod
    def one(cls, var: str) -> "LaurentPoly1":
        return cls(var, {0: 1})

    @classmethod
    def monomial(cls, var: str, coeff: int, exp: int) -> "LaurentPoly1":
        return cls(var, {exp: coeff})

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def __mul__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        self._check_ring(other)
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly1(self.var, out)

    def max_deg(self) -> int:
        if self.is_zero:
            raise ValueError("degree of the zero polynomial")
        return max(self._terms)

    def min_deg(self) -> int:
        if self.is_zero:
            raise ValueError("degree of the zero polynomial")
        return min(self._terms)

    def leading_coefficient(self) -> int:
        return self._terms[self.max_deg()]

    def invert_variable(self) -> "LaurentPoly1":
        """Substitute x -> x^{-1}."""
        return LaurentPoly1(self.var, {-e: c for e, c in self._terms.items()})

    def shifted(self, k: int) -> "LaurentPoly1":
        """Multiply by x^k."""
        return LaurentPoly1(self.var, {e + k: c for e, c in self._terms.items()})

    def div_exact(self, other: "LaurentPoly1") -> "LaurentPoly1":
        """Exact division; raises ValueError if the quotient is not in the ring."""
        self._check_ring(other)
        if other.is_zero:
            raise ValueError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly1.zero(self.var)
        nlo, dlo = self.min_deg(), other.min_deg()
        num = [self._terms.get(e, 0) for e in range(nlo, self.max_deg() + 1)]
        den = [other._terms.get(e, 0) for e in range(dlo, other.max_deg() + 1)]
        quo = exact_quotient(num, den)
        if quo is None:
            raise ValueError("division is not exact")
        return LaurentPoly1(self.var, dict(enumerate(quo, nlo - dlo)))

    def _term(self, e: int, c: int) -> str:
        return f"{c}*{self.var}^{e}"


class LaurentPoly2(_LaurentPoly):
    """A Laurent polynomial over Z in v and z, keyed by (deg_v, deg_z)."""

    __slots__ = ()
    var = "v,z"
    _ONE = (0, 0)

    def _like(self, terms: Mapping[tuple[int, int], int]) -> "LaurentPoly2":
        return LaurentPoly2(terms)

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, dv: int, dz: int) -> "LaurentPoly2":
        return cls({(dv, dz): coeff})

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        # Canonical order: (dz, dv) ascending, used for rendering too.
        return iter(sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0])))

    def coefficient(self, dv: int, dz: int) -> int:
        return self._terms.get((dv, dz), 0)

    def terms_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        self._check_ring(other)
        out: dict[tuple[int, int], int] = {}
        for (v1, z1), c1 in self._terms.items():
            for (v2, z2), c2 in other._terms.items():
                e = (v1 + v2, z1 + z2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly2(out)

    def scale_by_monomial(self, coeff: int, dv: int, dz: int) -> "LaurentPoly2":
        return LaurentPoly2(
            {(a + dv, b + dz): coeff * c for (a, b), c in self._terms.items()}
        )

    def _degs(self, axis: int, fn) -> int:
        if self.is_zero:
            raise ValueError("degree of the zero polynomial")
        return fn(e[axis] for e in self._terms)

    def max_deg_v(self) -> int:
        return self._degs(0, max)

    def min_deg_v(self) -> int:
        return self._degs(0, min)

    def max_deg_z(self) -> int:
        return self._degs(1, max)

    def min_deg_z(self) -> int:
        return self._degs(1, min)

    def z_coefficient(self, dz: int) -> LaurentPoly1:
        """The polynomial in v multiplying z^dz (zero if absent)."""
        return LaurentPoly1("v", {a: c for (a, b), c in self._terms.items() if b == dz})

    def _term(self, e: tuple[int, int], c: int) -> str:
        return f"{c}*v^{e[0]}*z^{e[1]}"


def delta_unlink_factor() -> LaurentPoly2:
    """(v^{-1} - v)/z, the factor contributed by a split unknot."""
    return LaurentPoly2({(-1, -1): 1, (1, -1): -1})


def mirror_image(p: LaurentPoly2) -> LaurentPoly2:
    """The skein polynomial of the mirror link: v -> -v^{-1}, z fixed.

    Validated against the trefoil and Hopf pairs in the test suite before
    anything else relies on it.
    """
    return LaurentPoly2({(-a, b): c * (-1) ** (a & 1) for (a, b), c in p.terms_dict().items()})


def conway(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute v = 1, giving the Conway polynomial in z.

    The result can in principle carry negative z-exponents; for polynomials
    of actual links those coefficients cancel, and consumers that need a
    genuine polynomial (``alexander``) reject leftovers.
    """
    out: dict[int, int] = {}
    for (_, b), c in p.terms_dict().items():
        out[b] = out.get(b, 0) + c
    return LaurentPoly1("z", out)


def exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """num / den for dense integer polynomials, lowest degree first.

    Synthetic division from the bottom: each quotient coefficient is what is
    left of the numerator at that degree, divided by ``den[0]`` (nonzero).
    Returns ``None`` if a coefficient does not divide or a remainder is left.
    """
    q = list(num)
    cut = max(len(q) - len(den) + 1, 0)
    for i in range(cut):
        c, r = divmod(q[i], den[0])
        if r:
            return None
        q[i] = c
        for j in range(1, len(den)):
            q[i + j] -= c * den[j]
    return None if any(q[cut:]) else q[:cut]


def _from_z(terms: Iterable[tuple[int, int, int]]) -> LaurentPoly1:
    """The sum of c * s^shift * (s - s^{-1})^k over (shift, k, c) in ``terms``."""
    s_minus = LaurentPoly1("s", {1: 1, -1: -1})
    out = LaurentPoly1.zero("s")
    for shift, k, c in terms:
        out = out + (s_minus**k).shifted(shift) * LaurentPoly1.monomial("s", c, 0)
    return out


def alexander(nabla: LaurentPoly1) -> LaurentPoly1:
    """Substitute z = s - s^{-1} into a Conway polynomial (s = t^{1/2}).

    With this normalisation Delta(1) = 1 for knots and Delta(t) = Delta(1/t).
    """
    if nabla.var != "z":
        raise ValueError("alexander expects a polynomial in z")
    if not nabla.is_zero and nabla.min_deg() < 0:
        raise ValueError("Conway polynomial has negative z-exponents")
    return _from_z((0, e, c) for e, c in nabla.items())


def jones(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute v = t = s^2 and z = s - s^{-1}, giving the Jones polynomial.

    Negative z-powers are cleared by an exact division, which succeeds for
    every polynomial actually satisfying the skein relation.
    """
    bmin = min([0] + [b for _, b in p.terms_dict()])
    acc = _from_z((2 * a, b - bmin, c) for (a, b), c in p.terms_dict().items())
    return acc.div_exact(LaurentPoly1("s", {1: 1, -1: -1}) ** -bmin)


_TERM_RE = re.compile(r"^(-?\d+)(?:\*v\^(-?\d+)\*z\^(-?\d+))?$")


def parse_poly(text: str) -> LaurentPoly2:
    """Parse the two-variable grammar; see the module docstring."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise PolySyntaxError("empty polynomial text", 0)
    out: dict[tuple[int, int], int] = {}
    for i, chunk in enumerate(stripped.split("+")):
        m = _TERM_RE.match(chunk)
        if not m:
            raise PolySyntaxError(f"malformed term {chunk!r}", i)
        coeff = int(m.group(1))
        dv = int(m.group(2)) if m.group(2) is not None else 0
        dz = int(m.group(3)) if m.group(3) is not None else 0
        out[(dv, dz)] = out.get((dv, dz), 0) + coeff
    return LaurentPoly2(out)


def render_poly(p: LaurentPoly2) -> str:
    return p.render()
