import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braid3 import hecke
from braid3.errors import ConsistencyError
from braid3.hecke import (
    homfly,
    pretzel_homfly,
    skein_oracle,
    torus_homfly,
    trace_table_from_oracle,
)
from braid3.laurent import (
    LaurentPoly2,
    delta_unlink_factor,
    mirror_image,
    parse_poly,
)
from braid3.words import dual, exponent_sum, mirror, parse_word, render_word
from braid3.xu import reduce
from census_oracle import constructive_orbits
from conftest import random_word, words_st
from fold_oracle import TRACE_TABLE, fold_homfly, fold_word
from word_helpers import concat

TREFOIL = parse_poly("2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2")

# Band words whose Artin prefixes differ where the band prefixes agree: a
# run of s3 letters closes with one s1, wherever the run ends.
RUN_SEAM_WORDS = [(3, 3), (3, 3, 3), (3, 3, 1), (3, -3), (-3, 3), (3, 3), (3,), (3, 3, 3, -2)]


@pytest.fixture(scope="module")
def orbit_keys():
    return sorted(k for n in range(9) for k in constructive_orbits(n))


@pytest.fixture(scope="module")
def long_mixed_words():
    rng = random.Random(400)
    return [random_word(rng, 400) for _ in range(12)] + [random_word(rng, 400, 400)]


class TestFold:
    def test_unit_times_a(self):
        vec = fold_word((1,))
        assert vec[1] == LaurentPoly2.one()
        assert all(vec[i].is_zero for i in (0, 2, 3, 4, 5))

    def test_quadratic_relation(self):
        vec = fold_word((1, 1))
        assert vec[1] == LaurentPoly2.monomial(1, 1, 1)  # v z * a
        assert vec[0] == LaurentPoly2.monomial(1, 2, 0)  # v^2 * 1

    def test_braid_relation_in_fold(self):
        assert fold_word((2, 1, 2)) == fold_word((1, 2, 1))

    def test_ba_times_b_is_aba(self):
        vec = fold_word((2, 1, 2))
        assert vec[5] == LaurentPoly2.one()

    def test_inverse_letter_cancels(self):
        assert fold_word((1, -1, 2, -2)) == fold_word(())

    def test_engine_equals_fold_on_orbit_keys(self, orbit_keys):
        assert [w for w in orbit_keys if homfly(w) != fold_homfly(w)] == []

    def test_engine_equals_fold_on_seams_and_long_words(self, long_mixed_words):
        for w in [(), *RUN_SEAM_WORDS, *long_mixed_words]:
            assert homfly(w) == fold_homfly(w), w


class TestBasisSelfCheck:
    def test_basis_braids_close_to_the_oracle_table(self):
        assert tuple(homfly(w) for w in hecke._BASIS_BRAIDS) == trace_table_from_oracle()
        assert hecke._BASIS_BRAIDS == ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))

    def test_corrupted_trace_raises_consistency_error(self, monkeypatch):
        trace = hecke._trace

        def corrupted(*matrix):
            lo, coeffs = trace(*matrix)
            return lo, (coeffs[0] + 1,) + coeffs[1:]

        monkeypatch.setattr(hecke, "_trace", corrupted)
        for w in [(), (1,), (1, 1, 1, 2), (1, -2, 3, -3)]:
            with pytest.raises(ConsistencyError, match="divide exactly") as info:
                homfly(w)
            assert str(info.value).endswith(f" for {render_word(w)}")
        with pytest.raises(ConsistencyError):
            hecke._check_basis_closures()

    def test_asymmetric_quotient_raises_consistency_error(self):
        with pytest.raises(ConsistencyError, match=r"not one in z for \[1 -2\]$"):
            hecke._to_z(-2, [1, 0, 0], (1, -2))


class TestTraceTable:
    def test_values(self):
        d = delta_unlink_factor()
        assert TRACE_TABLE[0] == d * d
        assert TRACE_TABLE[1] == d and TRACE_TABLE[2] == d
        assert TRACE_TABLE[3] == LaurentPoly2.one() == TRACE_TABLE[4]
        assert TRACE_TABLE[5] == parse_poly("1*v^1*z^-1 + -1*v^3*z^-1 + 1*v^1*z^1")


class TestSkeinOracle:
    def test_bases(self):
        assert skein_oracle(()) == delta_unlink_factor()
        assert skein_oracle((1,)) == LaurentPoly2.one()

    def test_hopf(self):
        assert skein_oracle((1, 1)) == parse_poly("1*v^1*z^-1 + -1*v^3*z^-1 + 1*v^1*z^1")

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            skein_oracle((1, 2, 1))
        with pytest.raises(ValueError):
            skein_oracle((3,))

    def test_free_cancellation(self):
        assert skein_oracle((1, -1, 1)) == skein_oracle((1,))


def _homfly_by_basis_products(word):
    # pair the folded vector with the trace table in LaurentPoly2 arithmetic
    out = LaurentPoly2.zero()
    for coeff, closed in zip(fold_word(word), TRACE_TABLE):
        out = out + coeff * closed
    return out


class TestHomfly:
    def test_unlinks(self):
        d = delta_unlink_factor()
        assert homfly(()) == d * d
        assert homfly((1,)) == d

    @given(words_st)
    def test_raw_closing_equals_polynomial_pairing(self, w):
        assert homfly(w) == _homfly_by_basis_products(w)

    def test_unknot(self):
        assert homfly((1, 2)) == LaurentPoly2.one()

    def test_trefoil_frozen(self):
        assert homfly((1, 1, 1, 2)) == TREFOIL

    def test_band_letter_closure(self):
        assert homfly((3,)) == delta_unlink_factor()

    def test_destabilization_matches_oracle(self):
        for word in [(), (1,), (1, 1), (1, 1, 1), (1, -1, 1), (-1, -1)]:
            assert homfly(word + (2,)) == skein_oracle(word)

    @given(words_st, words_st)
    def test_conjugation_invariance(self, u, v):
        assert homfly(concat(u, v)) == homfly(concat(v, u))

    @given(words_st)
    def test_mirror_substitution(self, w):
        assert homfly(mirror(w)) == mirror_image(homfly(w))

    @given(words_st)
    def test_degree_bound(self, w):
        assert homfly(w).max_deg_z() <= len(w) - 2

    @given(words_st)
    def test_component_parity_of_z_degrees(self, w):
        from braid3.words import closure_components

        m = closure_components(w)
        assert {(dz - (1 - m)) % 2 for (_, dz) in homfly(w).terms_dict()} <= {0}

    @given(words_st, st.integers(0, 9), st.sampled_from((1, 2, 3)))
    @settings(max_examples=120)
    def test_skein_identity(self, w, pos, idx):
        if not w:
            w = (1,)
        pos %= len(w)
        plus = w[:pos] + (idx,) + w[pos + 1 :]
        minus = w[:pos] + (-idx,) + w[pos + 1 :]
        zero = w[:pos] + w[pos + 1 :]
        lhs = homfly(plus).scale_by_monomial(1, -1, 0) - homfly(minus).scale_by_monomial(1, 1, 0)
        assert lhs == homfly(zero).scale_by_monomial(1, 0, 1)

    @given(words_st, st.integers(0, 9), st.sampled_from((1, 2, 3)))
    @settings(max_examples=60)
    def test_conway_respects_skein(self, w, pos, idx):
        from braid3.laurent import LaurentPoly1, conway

        if not w:
            w = (1,)
        pos %= len(w)
        plus = w[:pos] + (idx,) + w[pos + 1 :]
        minus = w[:pos] + (-idx,) + w[pos + 1 :]
        zero = w[:pos] + w[pos + 1 :]
        z = LaurentPoly1("z", {1: 1})
        assert conway(homfly(plus)) - conway(homfly(minus)) == z * conway(homfly(zero))

    @given(words_st)
    @settings(max_examples=60)
    def test_jones_mirror_inverts_variable(self, w):
        from braid3.laurent import jones

        assert jones(homfly(mirror(w))) == jones(homfly(w)).invert_variable()

    def test_duality_example(self):
        w = (1, 1, 1, 2, 2, 2)
        assert homfly(dual(w)) == homfly(w)

    @given(words_st)
    def test_duality(self, w):
        w = concat(w, (1,) * ((-exponent_sum(w)) % 6))
        assert homfly(dual(w)) == homfly(w)

    @given(words_st)
    @settings(max_examples=60)
    def test_theorem_degree_equality(self, w):
        # the strongest cross-check: top z-degree against the Xu length
        assert homfly(w).max_deg_z() == reduce(w).minimal_length - 2


class TestTorus:
    def test_bases_and_small_values(self):
        d = delta_unlink_factor()
        assert torus_homfly(0) == d
        assert torus_homfly(1) == LaurentPoly2.one()
        assert torus_homfly(2) == parse_poly("1*v^1*z^-1 + -1*v^3*z^-1 + 1*v^1*z^1")
        assert torus_homfly(3) == TREFOIL

    def test_matches_braid_closures(self):
        for k in range(0, 8):
            assert torus_homfly(k) == homfly((1,) * k + (2,))

    def test_negative_is_mirror(self):
        for k in range(0, 6):
            assert torus_homfly(-k) == mirror_image(torus_homfly(k))
            assert torus_homfly(-k) == homfly((-1,) * k + (2,))


class TestPretzel:
    def test_validation(self):
        with pytest.raises(ValueError):
            pretzel_homfly((3,))
        with pytest.raises(ValueError):
            pretzel_homfly((2, -1))

    def test_odd_region_count_rejected(self):
        # the parallel orientation alternates between neighbouring regions,
        # so it closes up only around an even number of them
        for twists in [(2, 2, 2), (3, 3, 3), (1, 2, 3), (2, 3, 4), (0, 1, 2, 3, 4)]:
            with pytest.raises(ValueError, match="even number"):
                pretzel_homfly(twists)

    def test_zero_region_is_torus(self):
        for q in range(0, 6):
            assert pretzel_homfly((0, q)) == torus_homfly(q)

    def test_two_regions_concatenate(self):
        assert pretzel_homfly((1, 2)) == torus_homfly(3)
        assert pretzel_homfly((2, 2)) == torus_homfly(4)

    def test_rotation_and_reflection_invariance(self):
        a = (2, 3, 2, 2)
        base = pretzel_homfly(a)
        for r in range(1, 4):
            assert pretzel_homfly(a[r:] + a[:r]) == base
        assert pretzel_homfly(tuple(reversed(a))) == base

    def test_band_word_identity(self):
        # P(1, q, r, s) is the closure of [1^q 2^s 3^r]
        for q, r, s in [(1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 1, 2)]:
            word = parse_word(f"1^{q} 2^{s} 3^{r}")
            assert pretzel_homfly((1, q, r, s)) == homfly(word)

    def test_2222_degrees(self):
        # chi of the parallel standard diagram is 4 - 8; both Bennequin-type
        # equalities and the braid-index-4 span follow
        p = pretzel_homfly((2, 2, 2, 2))
        assert p.min_deg_v() == p.max_deg_z() == 5
        assert p.max_deg_v() == 11
        assert p.max_deg_v() - p.min_deg_v() == 6


# The former recursive evaluations, one call per crossing, kept as oracles
# for the iterative ones on inputs small enough for the recursion.

@lru_cache(maxsize=None)
def _torus2_recursive(k):
    if k == 0:
        return delta_unlink_factor()
    if k == 1:
        return LaurentPoly2.one()
    if k >= 2:
        return _torus2_recursive(k - 1).scale_by_monomial(1, 1, 1) + _torus2_recursive(
            k - 2
        ).scale_by_monomial(1, 2, 0)
    return _torus2_recursive(k + 2).scale_by_monomial(1, -2, 0) - _torus2_recursive(
        k + 1
    ).scale_by_monomial(1, -1, 1)


def _necklace_recursive(k):
    if k == 0:
        return delta_unlink_factor()
    return LaurentPoly2.monomial(1, 1, 1) + _necklace_recursive(k - 2).scale_by_monomial(1, 2, 0)


@lru_cache(maxsize=None)
def _pretzel_recursive(a):
    if 0 in a:
        # cut the cycle at every empty region: connected sums of torus
        # links, one delta per extra split piece
        out = LaurentPoly2.one()
        for t in a:
            if t:
                out = out * _torus2_recursive(t)
        for _ in range(a.count(0) - 1):
            out = out * delta_unlink_factor()
        return out
    if all(t == 1 for t in a):
        return _necklace_recursive(len(a))
    i = max(range(len(a)), key=lambda j: a[j])
    minus1 = a[:i] + (a[i] - 1,) + a[i + 1 :]
    minus2 = a[:i] + (a[i] - 2,) + a[i + 1 :]
    return _pretzel_recursive(minus1).scale_by_monomial(1, 1, 1) + _pretzel_recursive(
        minus2
    ).scale_by_monomial(1, 2, 0)


class TestIterativeEqualsRecursive:
    def test_torus(self):
        for k in range(-12, 13):
            assert torus_homfly(k) == _torus2_recursive(k)
            assert torus_homfly(k) == (
                _torus2_recursive(k) if k >= 0 else mirror_image(_torus2_recursive(-k))
            )

    @pytest.mark.parametrize(
        "twists",
        list(itertools.product(range(1, 5), repeat=2))
        + list(itertools.product((2, 3), repeat=4))
        + [(0, 0), (0, 3), (3, 0, 0, 2), (0, 2, 3, 0, 1, 4), (1, 1, 1, 1, 1, 1)],
    )
    def test_pretzel(self, twists):
        assert pretzel_homfly(twists) == _pretzel_recursive(twists)
