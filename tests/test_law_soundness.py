"""Soundness of the law list against the exhaustive census.

Every law of ``invariants.broken_laws`` is a necessary condition, so no
closed 3-braid's polynomial may break one, and a law may reject a
polynomial only when the exhaustive scan at its band length finds no
match.  The scan here is the census of 0-10 bands, indexed by polynomial;
the near-misses are seeded perturbations of each of its polynomials.
"""

import random

import pytest

from braid3 import enumeration
from braid3.enumeration import REASON_SEARCH, enumerate_minimal, realizable_3braid
from braid3.invariants import (
    REASON_BOTTOM_V,
    REASON_CHI,
    REASON_COMPONENTS,
    REASON_LEADING,
    REASON_MWF,
    REASON_PARITY,
    broken_laws,
)
from braid3.laurent import LaurentPoly2, mirror_image

MAX_BANDS = 10


@pytest.fixture(scope="module")
def scan():
    """Length -> {polynomial: the first census row that has it}, in census order.

    Those rows are all that the search at a length can return, so the
    search below reads them instead of every row.
    """
    firsts = {}
    for n in range(MAX_BANDS + 1):
        for e in enumerate_minimal(n, cap=MAX_BANDS):
            firsts.setdefault(n, {}).setdefault(e.polynomial, e)
    return firsts


def first_broken_law(p):
    # the count a polynomial shows: odd z-degrees for 2 components, even for an odd count
    max_z = p.max_deg_z()
    return next(broken_laws(p, 1 - max_z, 2 if max_z & 1 else 1), None)


def near_misses(polys, seed=0x9E49):
    """Per polynomial: one added monomial near its support, its negative, a
    v^2k multiple and its mirror image (a sure hit)."""
    rng = random.Random(seed)
    for p in polys:
        dv, dz = rng.choice(sorted(p.terms_dict()))
        extra = LaurentPoly2.monomial(
            rng.choice((-2, -1, 1, 2)), dv + rng.choice((-4, -2, 0, 2, 4)), dz + rng.choice((-2, -1, 0, 1, 2))
        )
        yield from (p + extra, -p, p.scale_by_monomial(1, 2 * rng.choice((-2, -1, 1, 2)), 0), mirror_image(p))


def test_every_census_polynomial_passes_the_laws(scan):
    polys = {p for by_poly in scan.values() for p in by_poly}
    assert len(polys) == 699
    assert [p for p in polys if first_broken_law(p) is not None] == []


def test_a_law_rejects_only_what_the_scan_misses(scan, monkeypatch):
    monkeypatch.setattr(enumeration, "enumerate_minimal", lambda n, cap: list(scan[n].values()))
    polys = sorted({p for by_poly in scan.values() for p in by_poly}, key=lambda p: sorted(p.terms_dict().items()))
    seen = set()
    for q in near_misses(polys):
        if q.is_zero or not 0 <= (length := 2 + q.max_deg_z()) <= MAX_BANDS:
            continue
        hit = scan[length].get(q)
        witness = hit.word if hit is not None else None
        law = first_broken_law(q)
        if law is not None:
            assert witness is None, (law, q)
            seen.add(law[0])
            continue
        verdict = realizable_3braid(q, cap=MAX_BANDS)
        if witness is None:
            assert (verdict.realizable, verdict.reason, verdict.witness) == (False, REASON_SEARCH, None)
        else:
            assert (verdict.realizable, verdict.reason, verdict.witness) == (True, None, witness)
        seen.add(verdict.reason)
    # every reason check-poly can give is reached, and so is a hit
    assert seen == {REASON_MWF, REASON_PARITY, REASON_LEADING, REASON_BOTTOM_V, REASON_COMPONENTS, REASON_SEARCH, None}


def test_polynomials_below_the_empty_word_break_law_8(scan, monkeypatch):
    # every census polynomial and near-miss moved below z^-2, where the band
    # length 2 + max deg_z would be negative: law 8 answers before any search,
    # unless an earlier law already broke
    monkeypatch.setattr(enumeration, "enumerate_minimal", None)
    polys = sorted({p for by_poly in scan.values() for p in by_poly}, key=lambda p: sorted(p.terms_dict().items()))
    reasons = set()
    for q in near_misses(polys):
        if q.is_zero:
            continue
        low = q.scale_by_monomial(1, 0, -3 - q.max_deg_z() - (q.max_deg_z() & 1))
        law = first_broken_law(low)
        verdict = realizable_3braid(low, cap=MAX_BANDS)
        assert law is not None and (verdict.realizable, verdict.reason) == (False, law[0]), low
        reasons.add(law[0])
    assert REASON_CHI in reasons
