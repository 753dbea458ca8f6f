import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braid3.errors import PolySyntaxError
from braid3.laurent import (
    LaurentPoly1,
    LaurentPoly2,
    alexander,
    conway,
    delta_unlink_factor,
    exact_quotient,
    jones,
    mirror_image,
    parse_poly,
    render_poly,
)


poly2_st = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
).map(LaurentPoly2)


def test_delta_values():
    d = delta_unlink_factor()
    assert d.coefficient(-1, -1) == 1
    assert d.coefficient(1, -1) == -1
    assert len(list(d.items())) == 2


def test_delta_squared():
    d = delta_unlink_factor()
    assert d * d == LaurentPoly2({(-2, -2): 1, (0, -2): -2, (2, -2): 1})


def test_delta_times_z():
    d = delta_unlink_factor()
    z = LaurentPoly2.monomial(1, 0, 1)
    assert d * z == LaurentPoly2({(-1, 0): 1, (1, 0): -1})


def test_product_difference_of_squares():
    v = LaurentPoly2.monomial(1, 1, 0)
    z = LaurentPoly2.monomial(1, 0, 1)
    assert (v + z) * (v - z) == LaurentPoly2({(2, 0): 1, (0, 2): -1})


def test_add_zero_is_identity():
    p = LaurentPoly2({(1, 2): 3})
    assert p + LaurentPoly2.zero() == p


def test_degrees_and_z_coefficient():
    d2 = delta_unlink_factor() ** 2
    assert d2.max_deg_z() == -2
    assert d2.min_deg_v() == -2
    assert d2.z_coefficient(-2) == LaurentPoly1("v", {-2: 1, 0: -2, 2: 1})
    assert d2.z_coefficient(5).is_zero


def test_degree_of_zero_raises():
    with pytest.raises(ValueError):
        LaurentPoly2.zero().max_deg_z()
    with pytest.raises(ValueError):
        LaurentPoly1.zero("v").max_deg()


@given(poly2_st, poly2_st, poly2_st)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(poly2_st)
def test_mirror_is_involution(p):
    assert mirror_image(mirror_image(p)) == p


def test_conway_of_delta_vanishes():
    assert conway(delta_unlink_factor()).is_zero


def test_conway_of_unit():
    assert conway(LaurentPoly2.one()) == LaurentPoly1("z", {0: 1})


def test_alexander_basic():
    assert alexander(LaurentPoly1("z", {0: 1})) == LaurentPoly1("s", {0: 1})
    a = alexander(LaurentPoly1("z", {2: 1, 0: 1}))
    assert a == LaurentPoly1("s", {2: 1, 0: -1, -2: 1})
    assert a == a.invert_variable()


def test_alexander_rejects_negative_exponents():
    with pytest.raises(ValueError):
        alexander(LaurentPoly1("z", {-1: 1}))


def test_jones_of_unit_and_delta():
    assert jones(LaurentPoly2.one()) == LaurentPoly1("s", {0: 1})
    assert jones(delta_unlink_factor()) == LaurentPoly1("s", {1: -1, -1: -1})


def test_div_exact():
    s_minus = LaurentPoly1("s", {1: 1, -1: -1})
    p = s_minus * s_minus * LaurentPoly1("s", {3: 2, 0: -1})
    assert p.div_exact(s_minus * s_minus) == LaurentPoly1("s", {3: 2, 0: -1})
    with pytest.raises(ValueError):
        LaurentPoly1.one("s").div_exact(s_minus)


def _random_poly1(rng):
    # negative exponents and end coefficients other than +-1
    coeffs = (-7, -3, -2, -1, 1, 2, 3, 5)
    return LaurentPoly1("s", {rng.randint(-6, 6): rng.choice(coeffs) for _ in range(rng.randint(1, 5))})


def _dense(p):
    return [p.coefficient(e) for e in range(p.min_deg(), p.max_deg() + 1)]


def test_div_exact_inverts_multiplication():
    rng = random.Random(1987)
    remainders = 0
    for _ in range(600):
        a, b = _random_poly1(rng), _random_poly1(rng)
        assert (a * b).div_exact(b) == a
        assert exact_quotient(_dense(a * b), _dense(b)) == _dense(a)
        span = b.max_deg() - b.min_deg()
        if span == 0:
            continue  # no nonzero remainder spans fewer degrees than a monomial
        # a nonzero remainder spanning fewer degrees than b is no multiple of b
        lo = rng.randint(-8, 8)
        r = LaurentPoly1("s", {lo + i: rng.randint(-4, 4) for i in range(span)})
        if r.is_zero:
            continue
        remainders += 1
        with pytest.raises(ValueError, match="^division is not exact$"):
            (a * b + r).div_exact(b)
        assert exact_quotient(_dense(a * b + r), _dense(b)) is None
    assert remainders > 300


def test_exact_quotient_examples():
    # (1 + u)^2 (1 + u + u^2) over (1 + u)(1 + u + u^2)
    assert exact_quotient([1, 3, 4, 3, 1], [1, 2, 2, 1]) == [1, 1]
    assert exact_quotient([1, 3, 4, 3, 2], [1, 2, 2, 1]) is None  # remainder u^4
    assert exact_quotient([6, -4], [2]) == [3, -2]
    assert exact_quotient([3], [2]) is None  # 3 / 2 leaves a remainder
    assert exact_quotient([-2, 0, 2], [-1, 1]) == [2, 2]
    assert exact_quotient([1], [1, 1]) is None  # fewer terms than the divisor
    assert exact_quotient([], [1, 1]) == []
    assert exact_quotient([0, 0], [1, 1]) == [0]


def test_div_exact_errors():
    s = LaurentPoly1("s", {1: 1})
    with pytest.raises(ValueError, match="^division by zero polynomial$"):
        s.div_exact(LaurentPoly1.zero("s"))
    with pytest.raises(ValueError, match="^variable mismatch"):
        s.div_exact(LaurentPoly1("z", {1: 1}))
    with pytest.raises(ValueError, match="^division is not exact$"):
        LaurentPoly1("s", {0: 3}).div_exact(LaurentPoly1("s", {0: 2}))
    assert LaurentPoly1.zero("s").div_exact(s) == LaurentPoly1.zero("s")


def test_jones_of_zero():
    assert jones(LaurentPoly2.zero()) == LaurentPoly1.zero("s")


def test_parse_render_examples():
    assert parse_poly("1") == LaurentPoly2.one()
    assert parse_poly("0").is_zero
    assert render_poly(LaurentPoly2.zero()) == "0"
    p = parse_poly("-1*v^4*z^0 + 2*v^2*z^0 + 1*v^2*z^2")
    assert p.coefficient(4, 0) == -1
    assert p.coefficient(2, 0) == 2
    assert p.coefficient(2, 2) == 1
    assert parse_poly("1*v^-1*z^-1 + -1*v^1*z^-1") == delta_unlink_factor()


def test_render_order_is_canonical():
    p = parse_poly("-1*v^4*z^0 + 2*v^2*z^0 + 1*v^2*z^2")
    assert render_poly(p) == "2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2"


@given(poly2_st)
def test_parse_render_round_trip(p):
    assert parse_poly(render_poly(p)) == p


def test_parse_errors_carry_position():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("1*v^2*z^0 + 2*v^bad*z^0")
    assert exc.value.term_index == 1
    with pytest.raises(PolySyntaxError):
        parse_poly("")


poly1_st = st.builds(
    LaurentPoly1,
    st.sampled_from(("z", "s")),
    st.dictionaries(st.integers(-4, 4), st.integers(-2, 2), max_size=3),
)


@pytest.mark.parametrize(
    "p, q",
    [
        (LaurentPoly2.one(), LaurentPoly1("z", {1: 1})),
        (LaurentPoly1("z", {1: 1}), LaurentPoly2.one()),
        (LaurentPoly1("z", {1: 1}), LaurentPoly1("s", {1: 1})),
        (LaurentPoly2.zero(), LaurentPoly1.zero("z")),
    ],
)
def test_arithmetic_across_rings_raises(p, q):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(p, q)


def _twin(p):
    # an equal value built afresh from the terms
    if isinstance(p, LaurentPoly1):
        return LaurentPoly1(p.var, dict(p.items()))
    return LaurentPoly2(p.terms_dict())


@given(st.one_of(poly1_st, poly2_st), st.one_of(poly1_st, poly2_st))
def test_equal_values_have_equal_hashes(p, q):
    for a, b in ((p, q), (p, _twin(p))):
        if a == b:
            assert hash(a) == hash(b)
    assert p == _twin(p)
    if type(p) is not type(q) or p.var != q.var:
        assert p != q and q != p


@given(poly1_st)
def test_one_variable_never_equals_another_ring(p):
    terms = dict(p.items())
    assert p != LaurentPoly2({(e, 0): c for e, c in terms.items()})
    assert p != LaurentPoly2({(0, e): c for e, c in terms.items()})
    assert p != LaurentPoly1("s" if p.var == "z" else "z", terms)
