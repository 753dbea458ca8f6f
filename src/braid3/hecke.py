"""Skein (HOMFLY) polynomials of closed 3-braids from one Burau product.

The skein relation  v^{-1} P(L+) - v P(L-) = z P(L0)  factors through the
Hecke algebra of the 3-strand braid group, which splits into two
1-dimensional representations, where a generator acts as s or as -s^{-1},
and the 2-dimensional reduced Burau representation (Jones, *Hecke algebra
representations of braid groups and link polynomials*, Ann. Math. 1987).
The closure polynomial of a braid is therefore fixed by its exponent sum e
and the trace T(s) of its reduced Burau matrix at t = s^{-2}.  With
z = s - s^{-1} and u = s^2,

    v^(2-e) z^2 P = (c0 + c2 v^2 + c4 v^4) / ((1 + u)(1 + u + u^2)),

    c0 = s^(e+6) + (-1)^e s^(-e) + s^(e+2) (1 + s^2) T
    c2 = -(s^2 + s^4) (s^e + (-1)^e s^(-e)) - s^e (1 + s^4) (1 + s^2) T
    c4 = s^e + (-1)^e s^(6-e) + s^(e+2) (1 + s^2) T.

``homfly`` multiplies the dense Burau matrices of the Artin expansion
(``words.to_artin``, ``words.burau_step``), divides each c_k exactly by
(1 + u)(1 + u + u^2) = 1 + 2u + 2u^2 + u^3 in one synthetic division
(``laurent.exact_quotient``), and maps the quotient, a polynomial
symmetric under s -> -s^{-1}, to z through s^j + (-1)^j s^{-j} = L_j(z) with
L_j = z L_(j-1) + L_(j-2).  A division that leaves a remainder or a
quotient that is not symmetric means a broken identity and raises
``ConsistencyError`` naming the word.  The census (``enumeration``) takes
its traces from Burau matrices packed into integers, trims and decodes them
itself (``_Skeins.trace``), and shares only ``_skein_from_trace``.

At import time the six basis braids 1, a, b, ab, ba, aba must give the
closure values that ``trace_table_from_oracle`` rederives from closed
2-braids and Markov moves.  The former evaluation, a fold through the
6-dimensional positive-permutation-braid basis, is kept as an independent
test oracle in ``tests/fold_oracle.py``.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Sequence

from .errors import ConsistencyError
from .laurent import LaurentPoly2, delta_unlink_factor, exact_quotient, mirror_image
from .limits import MAX_REGIONS, MAX_TWISTS
from .words import burau, exponent_sum, render_word


def _trace(lo: int, a: Sequence[int], d: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(offset, coefficients) of a + d, both over t^lo, t^(lo+1), ..., trimmed."""
    tr = list(map(add, a, d))
    hi = len(tr)
    while hi and not tr[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    start = 0
    while not tr[start]:
        start += 1
    return lo + start, tuple(tr[start:hi])


def _to_z(bottom: int, coeffs: list[int], word: Sequence[int]) -> list[int]:
    """z-coefficients of the s-polynomial sum_i coeffs[i] s^(bottom + 2i).

    The polynomial must be symmetric under s -> -s^{-1}, so that it is
    c_0 + sum_(j>=1) c_j (s^j + (-1)^j s^{-j}) = c_0 + sum_(j>=1) c_j L_j(z)
    with the Lucas polynomials L_0 = 2, L_1 = z, L_j = z L_(j-1) + L_(j-2).
    The sum is evaluated by Clenshaw's recurrence
    b_j = c_j + z b_(j+1) + b_(j+2), and equals c_0 + z b_1 + 2 b_2.
    """
    top = -bottom
    mirrored = [-x for x in coeffs] if top & 1 else coeffs
    if bottom + 2 * (len(coeffs) - 1) != top or coeffs[::-1] != mirrored:
        raise ConsistencyError(f"the trace formula gave a polynomial not one in z for {render_word(word)}")
    c = [0] * (top + 1)  # c[j]: coefficient of s^j, j >= 0
    c[top::-2] = coeffs[::-1][: top // 2 + 1]
    b1: list[int] = []  # b_(j+1) as z-coefficients, one shorter than b_j
    b2: list[int] = []  # b_(j+2)
    for j in range(top, 0, -1):
        bj = list(map(add, [0, *b1], [*b2, 0, 0]))
        bj[0] += c[j]
        b1, b2 = bj, b1
    out = list(map(add, [0, *b1], [*(2 * x for x in b2), 0, 0]))
    out[0] += c[0]
    return out


def _numerators(e: int):
    """The numerators f_k = c_k / s^e, k = 0, 2, 4, as polynomials in u = s^2.

    Each is ``(w_terms, monomials)``: the sum of coeff * u^shift * W over
    ``w_terms``, where W = (1 + u) T(u^-1), plus coeff * u^exp over
    ``monomials``.
    """
    sigma = -1 if e & 1 else 1
    return (
        # u^3 + sigma u^-e + u W
        (((1, 1),), ((3, 1), (-e, sigma))),
        # -(u + u^2)(1 + sigma u^-e) - (1 + u^2) W
        (((0, -1), (2, -1)), ((1, -1), (2, -1), (1 - e, -sigma), (2 - e, -sigma))),
        # 1 + sigma u^(3-e) + u W
        (((1, 1),), ((0, 1), (3 - e, sigma))),
    )


def _skein_from_trace(e: int, lo: int, trace: tuple[int, ...], word: Sequence[int]) -> LaurentPoly2:
    """P of the closure of ``word``, a braid with exponent sum e and Burau trace T.

    ``trace`` holds the coefficients of T over t^lo, t^(lo+1), ...
    """
    # T(u^-1) runs from u^-(lo + n - 1) up to u^-lo, so W = (1 + u) T(u^-1)
    # starts at u^base.
    base = -(lo + len(trace) - 1)
    rev = trace[::-1]
    w = list(map(add, [*rev, 0], [0, *rev]))
    out: dict[tuple[int, int], int] = {}
    for k, (w_terms, monomials) in enumerate(_numerators(e)):
        f: dict[int, int] = {}
        for shift, coeff in w_terms:
            for i, x in enumerate(w, base + shift):
                f[i] = f.get(i, 0) + coeff * x
        for exp, coeff in monomials:
            f[exp] = f.get(exp, 0) + coeff
        exps = [x for x, c in f.items() if c]
        if not exps:
            continue
        low = min(exps)
        num = [f.get(x, 0) for x in range(low, max(exps) + 1)]
        quo = exact_quotient(num, (1, 2, 2, 1))  # (1 + u)(1 + u + u^2)
        if quo is None:
            raise ConsistencyError(
                f"the trace formula does not divide exactly by (1+u)(1+u+u^2) for {render_word(word)}"
            )
        dv = e - 2 + 2 * k
        for dz, c in enumerate(_to_z(e + 2 * low, quo, word)):
            if c:
                out[(dv, dz - 2)] = c
    return LaurentPoly2(out)


def homfly(word: Sequence[int]) -> LaurentPoly2:
    """Skein polynomial of the closure, from the exponent sum and one Burau product."""
    m = burau(word)
    return _skein_from_trace(m.exponent, *_trace(m.offset, m.a, m.d), word)


# ---------------------------------------------------------------------------
# Closed 2-braids from the closed form of the skein relation on a twist
# region.  They certify the trace table through Markov moves rather than
# trusting transcription, and they drive the torus and pretzel evaluations.

def skein_oracle(word: Sequence[int]) -> LaurentPoly2:
    """Closure polynomial of a word over s1 (2-strand closure).

    In the 2-strand group the word is s1^e for its exponent sum e, so this
    is ``torus_homfly(e)``.  The domain is words in {±1} with at most one
    trailing ±2 letter, the trailing letter being a stabilisation that does
    not change the closure.
    """
    letters = tuple(word)
    if letters and abs(letters[-1]) == 2:
        letters = letters[:-1]
    if any(abs(l) != 1 for l in letters):
        raise ValueError("skein_oracle handles s1-words with one optional trailing s2")
    return torus_homfly(exponent_sum(letters))


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


def torus_homfly(k: int) -> LaurentPoly2:
    """P of the (2,k) torus link, the closure of s1^k s2, from P(0) = delta and P(1) = 1."""
    if abs(k) > MAX_TWISTS:
        raise ValueError(f"torus: {abs(k)} crossings exceed the limit of {MAX_TWISTS}")
    if k < 0:
        return mirror_image(torus_homfly(-k))
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


_BASIS_BRAIDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))


def _check_basis_closures() -> None:
    if tuple(homfly(w) for w in _BASIS_BRAIDS) != trace_table_from_oracle():
        raise ConsistencyError("the basis braid closures disagree with the skein oracle")


_check_basis_closures()


# ---------------------------------------------------------------------------
# Pretzel evaluations driven by the same closed form.

def pretzel_homfly(twists: Sequence[int]) -> LaurentPoly2:
    """P of the parallel-oriented pretzel with the given twist counts.

    In the parallel orientation the two strands of every twist region point
    the same way.  Neighbouring regions then point opposite ways, so the
    orientation exists only for an even number of regions; an odd count is
    rejected, and so are more than ``MAX_REGIONS`` regions or more than
    ``MAX_TWISTS`` crossings in one region.

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
    if len(a) > MAX_REGIONS:
        raise ValueError(f"pretzel: {len(a)} twist regions exceed the limit of {MAX_REGIONS}")
    if max(a) > MAX_TWISTS:
        raise ValueError(f"pretzel: {max(a)} crossings exceed the limit of {MAX_TWISTS}")
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
