"""Per-link reports and the laws of 3-braid closures' skein polynomials.

The laws are necessary conditions on the skein polynomial P of a closed
3-braid of maximal Euler characteristic chi, checked in this order by
``broken_laws``:

1. the Morton-Franks-Williams bound v-span/2 + 1 is at most 3;
2. every z-degree has the parity of 1 - components;
3. the top z-degree equals 1 - chi (so P shows the genus);
4. the coefficient of z^{1-chi} is, up to a unit +-v^k, one of 1, 1+v^2,
   1-v^2 and (1-v^2)^2;
5. the bottom v-degree never exceeds 1 - chi;
6. -(1+v^2) occurs only for 2-component links;
7. (1-v^2)^2 occurs only for chi = 3, the 3-component unlink;
8. the top z-degree is at least -2 (chi is at most 3).

Each law has a reason code, which ``realizable_3braid`` reports for the
first law a polynomial breaks.  ``check_laws`` holds a computed polynomial
to them, where a broken law raises ``ConsistencyError`` (a bug), never a
user error.  Reference tables take only law 2, since they also hold links
that are not closed 3-braids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import xu
from .errors import ConsistencyError
from .hecke import homfly
from .laurent import LaurentPoly1, LaurentPoly2, alexander, conway
from .words import Word, render_word

UNIT_MONOMIAL = "unit-monomial"
ONE_PLUS_V2 = "monomial-times-one-plus-v2"
ONE_MINUS_V2 = "monomial-times-one-minus-v2"
THREE_UNLINK_SQUARE = "three-unlink-square"
OTHER = "other"


@dataclass(frozen=True)
class CoeffClass:
    """Exact shape of the z-leading coefficient: sign * v^k * factor."""

    tag: str
    sign: int = 0
    k: int = 0

    def __str__(self) -> str:
        return self.tag if self.tag == OTHER else f"{self.tag}(sign={self.sign:+d}, k={self.k})"


def classify_leading_coefficient(p: LaurentPoly2, chi: int) -> CoeffClass:
    """Pattern-match the coefficient of z^{1-chi}."""
    if p.is_zero:
        raise ValueError("cannot classify the zero polynomial")
    lead = p.z_coefficient(1 - chi)
    if lead.is_zero:
        return CoeffClass(OTHER)
    items = dict(lead.items())
    lo = min(items)
    sign = items[lo]
    if sign not in (1, -1):
        return CoeffClass(OTHER)
    if items == {lo: sign}:
        return CoeffClass(UNIT_MONOMIAL, sign, lo)
    if items == {lo: sign, lo + 2: sign}:
        return CoeffClass(ONE_PLUS_V2, sign, lo)
    if items == {lo: sign, lo + 2: -sign}:
        return CoeffClass(ONE_MINUS_V2, sign, lo)
    if items == {lo: sign, lo + 2: -2 * sign, lo + 4: sign}:
        return CoeffClass(THREE_UNLINK_SQUARE, sign, lo)
    return CoeffClass(OTHER)


REASON_MWF = "mwf-span-exceeds-3"
REASON_PARITY = "degree-parity-mismatch"
REASON_TOP_Z = "top-z-degree"
REASON_LEADING = "leading-coefficient-class"
REASON_BOTTOM_V = "bottom-v-degree"
REASON_COMPONENTS = "leading-coefficient-components"
REASON_CHI = "euler-characteristic-exceeds-3"


def mwf_lower_bound(p: LaurentPoly2) -> int:
    """Morton-Franks-Williams: braid index >= v-span/2 + 1."""
    if p.is_zero:
        raise ValueError("MWF bound of the zero polynomial")
    span = p.max_deg_v() - p.min_deg_v()
    return -(-span // 2) + 1


def z_parity_law(p: LaurentPoly2, components: int) -> str | None:
    """Law 2, which every link obeys: the message when a z-degree of ``p``
    lacks the parity of 1 - ``components``, else None."""
    if {dz & 1 for (_, dz) in p.terms_dict()} != {(1 - components) & 1}:
        return f"z-degrees inconsistent with {components} components"
    return None


def broken_laws(
    p: LaurentPoly2, chi: int, components: int, leading: CoeffClass | None = None
) -> Iterator[tuple[str, str]]:
    """The laws of the module docstring, in order: ``(reason, message)`` for
    each that ``p`` breaks as the polynomial of a closed 3-braid with maximal
    Euler characteristic ``chi`` and ``components`` components.

    Only the parity of ``components``, and whether it is 2, is read.
    ``leading``, when given, is ``classify_leading_coefficient(p, chi)``.
    """
    if (bound := mwf_lower_bound(p)) > 3:
        yield REASON_MWF, f"MWF bound {bound} exceeds 3"
    if (parity := z_parity_law(p, components)) is not None:
        yield REASON_PARITY, parity
    if (max_z := p.max_deg_z()) != 1 - chi:
        yield REASON_TOP_Z, f"top z-degree {max_z} differs from 1 - chi = {1 - chi}"
    if leading is None:
        leading = classify_leading_coefficient(p, chi)
    if leading.tag == OTHER:
        yield REASON_LEADING, "leading coefficient outside the allowed classes"
    if (min_v := p.min_deg_v()) > 1 - chi:
        yield REASON_BOTTOM_V, f"bottom v-degree {min_v} exceeds 1 - chi = {1 - chi}"
    if leading.tag == ONE_PLUS_V2 and leading.sign == -1 and components != 2:
        yield REASON_COMPONENTS, f"-(1 + v^2) leading coefficient with {components} component(s)"
    if leading.tag == THREE_UNLINK_SQUARE and chi != 3:
        yield REASON_COMPONENTS, f"(1 - v^2)^2 leading coefficient with chi = {chi}"
    if max_z < -2:
        yield REASON_CHI, f"top z-degree {max_z} is below -2, so chi exceeds 3"


def check_laws(p: LaurentPoly2, chi: int, word: Sequence[int], components: int) -> CoeffClass:
    """Hold the polynomial ``p`` of the closure of ``word`` to the laws.

    ``chi`` is the closure's maximal Euler characteristic and ``components``
    its component count.  Returns the class of the z-leading coefficient;
    the first broken law raises ``ConsistencyError`` naming the law and the
    word.
    """
    leading = classify_leading_coefficient(p, chi)
    for _, message in broken_laws(p, chi, components, leading):
        raise ConsistencyError(f"{message} for {render_word(word)}")
    return leading


def c3_bound(chi: int) -> int:
    """Crossing-number bound for a 3-braid representation: floor(5(3-chi)/3)."""
    if chi > 3:
        raise ValueError("Euler characteristic of a 3-braid closure is at most 3")
    return 5 * (3 - chi) // 3


def crossing_obstruction(p: LaurentPoly2, crossings: int) -> bool:
    """True when the crossing number certifies the knot is not a closed 3-braid.

    The test is  c > 2 * floor(5/6 * (max deg_z P + 2)); the crossing number
    itself must be supplied by the caller.
    """
    return crossings > 2 * (5 * (p.max_deg_z() + 2) // 6)


def pmcf_predicate(p: LaurentPoly2) -> bool:
    """Strong-quasipositivity criterion from the Conway polynomial.

    True iff max deg nabla < max deg_z P or the leading Conway coefficient
    is +-2.  For a 3-braid closure this forces a positive band form.
    """
    if p.is_zero:
        raise ValueError("predicate undefined for the zero polynomial")
    nabla = conway(p)
    if nabla.is_zero:
        return True
    return nabla.max_deg() < p.max_deg_z() or nabla.leading_coefficient() in (2, -2)


def maximally_monic(alex: LaurentPoly1, g: int) -> bool:
    """Leading coefficient +-1 and degree (in t = s^2) equal to the genus."""
    if alex.is_zero:
        return False
    return alex.leading_coefficient() in (1, -1) and alex.max_deg() == 2 * g


@dataclass(frozen=True)
class InvariantReport:
    word: Word
    minimal_length: int
    chi: int
    components: int
    genus: int
    quasipositive: str
    polynomial: LaurentPoly2
    max_deg_z: int
    min_deg_v: int
    max_deg_v: int
    leading_class: CoeffClass
    mwf_bound: int
    conway: LaurentPoly1
    alexander: LaurentPoly1


def report(word: Sequence[int]) -> InvariantReport:
    """Compute every invariant of the closure and check the built-in laws."""
    w = tuple(word)
    nf = xu.reduce(w)
    p = homfly(w)
    leading = check_laws(p, nf.chi, w, nf.components)
    nabla = conway(p)
    return InvariantReport(
        word=w,
        minimal_length=nf.minimal_length,
        chi=nf.chi,
        components=nf.components,
        genus=nf.genus,
        quasipositive=nf.quasipositive,
        polynomial=p,
        max_deg_z=p.max_deg_z(),
        min_deg_v=p.min_deg_v(),
        max_deg_v=p.max_deg_v(),
        leading_class=leading,
        mwf_bound=mwf_lower_bound(p),
        conway=nabla,
        alexander=alexander(nabla),
    )
