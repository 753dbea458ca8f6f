"""Braid-index-4 certification of 4-region pretzel links, a test helper.

It checks the Morton-Franks-Williams bound of ``braid3.pretzel_homfly`` on
the parallel-oriented pretzels with every twist count at least 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from braid3.errors import ConsistencyError
from braid3.hecke import pretzel_homfly
from braid3.invariants import mwf_lower_bound


@dataclass(frozen=True)
class PretzelReport:
    twists: tuple[int, int, int, int]
    chi: int
    max_deg_v: int
    mwf_bound: int


def braid_index_check_pretzel(p: int, q: int, r: int, s: int) -> PretzelReport:
    """Certify braid index 4 for a pretzel with all twist counts >= 2.

    Seifert's algorithm on the standard parallel diagram leaves one circle
    per twist region and one band per crossing, so chi = 4 - (p+q+r+s).
    The check asserts max deg_v P = 7 - chi and an MWF bound of exactly 4
    (the two statements are equivalent given min deg_v = 1 - chi, which
    holds for these positive links).
    """
    twists = (p, q, r, s)
    if any(t < 2 for t in twists):
        raise ValueError("all twist counts must be at least 2")
    poly = pretzel_homfly(twists)
    chi = len(twists) - sum(twists)
    max_v = poly.max_deg_v()
    bound = mwf_lower_bound(poly)
    if poly.min_deg_v() != 1 - chi or poly.max_deg_z() != 1 - chi:
        raise ConsistencyError(f"bottom v-degree is not 1 - chi for pretzel {twists}")
    if max_v != 7 - chi:
        raise ConsistencyError(f"max deg_v {max_v} != {7 - chi} for pretzel {twists}")
    if bound != 4:
        raise ConsistencyError(f"MWF bound {bound} != 4 for pretzel {twists}")
    return PretzelReport(twists=twists, chi=chi, max_deg_v=max_v, mwf_bound=bound)
