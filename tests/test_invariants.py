import pytest
from hypothesis import given, settings

from braid3 import xu
from braid3.errors import ConsistencyError
from braid3.hecke import homfly, pretzel_homfly
from braid3.invariants import (
    ONE_MINUS_V2,
    ONE_PLUS_V2,
    OTHER,
    THREE_UNLINK_SQUARE,
    REASON_CHI,
    REASON_LEADING,
    REASON_MWF,
    REASON_PARITY,
    REASON_TOP_Z,
    UNIT_MONOMIAL,
    broken_laws,
    c3_bound,
    check_laws,
    classify_leading_coefficient,
    crossing_obstruction,
    maximally_monic,
    mwf_lower_bound,
    pmcf_predicate,
    report,
)
from braid3.laurent import LaurentPoly2, delta_unlink_factor, parse_poly
from braid3.words import closure_components, render_word
from conftest import words_st


class TestClassify:
    def test_three_unlink(self):
        assert classify_leading_coefficient(delta_unlink_factor() ** 2, 3).tag == THREE_UNLINK_SQUARE

    def test_trefoil_is_unit_monomial(self):
        cls = classify_leading_coefficient(homfly((1, 1, 1, 2)), -1)
        assert cls.tag == UNIT_MONOMIAL
        assert (cls.sign, cls.k) == (1, 2)

    def test_torus5_class_is_allowed(self):
        cls = classify_leading_coefficient(homfly((1, 1, 1, 1, 1, 2)), -3)
        assert cls.tag != OTHER
        assert not (cls.tag == ONE_PLUS_V2 and cls.sign == -1)

    def test_binomial_classes(self):
        assert classify_leading_coefficient(parse_poly("1*v^3*z^0 + 1*v^5*z^0"), 1).tag == ONE_PLUS_V2
        assert classify_leading_coefficient(parse_poly("-1*v^3*z^0 + 1*v^5*z^0"), 1).tag == ONE_MINUS_V2

    def test_other(self):
        assert classify_leading_coefficient(parse_poly("3*v^0*z^2"), -1).tag == OTHER


class TestCheckLaws:
    # the trefoil [1 1 1 2]: chi = -1, P = 2v^2 - v^4 + v^2 z^2
    WORD = (1, 1, 1, 2)

    def test_returns_leading_class(self):
        p = homfly(self.WORD)
        assert check_laws(p, -1, self.WORD, closure_components(self.WORD)) == classify_leading_coefficient(p, -1)

    def test_sign_rule_allows_two_components(self):
        # [-3 -2 -1] closes to a 2-component link with z-leading coefficient -(1 + v^2) v^-3
        w = (-3, -2, -1)
        leading = check_laws(homfly(w), 0, w, closure_components(w))
        assert (leading.tag, leading.sign, leading.k) == (ONE_PLUS_V2, -1, -3)

    @pytest.mark.parametrize(
        "doctored, law",
        [
            # z^2 times P: top z-degree 4, not 1 - chi = 2
            pytest.param(
                lambda p: p.scale_by_monomial(1, 0, 2),
                "top z-degree 4 differs from 1 - chi = 2",
                id="max-deg-z",
            ),
            # v^2 times P: bottom v-degree 4 > 2
            pytest.param(
                lambda p: p.scale_by_monomial(1, 2, 0),
                "bottom v-degree 4 exceeds 1 - chi = 2",
                id="min-deg-v",
            ),
            # z^2 coefficient 4 v^2: degrees hold, the leading class is OTHER
            pytest.param(
                lambda p: p + parse_poly("3*v^2*z^2"),
                "leading coefficient outside the allowed classes",
                id="leading-class",
            ),
            # z^2 coefficient -(v^2 + v^4) on a knot: the sign rule
            pytest.param(
                lambda p: p + parse_poly("-2*v^2*z^2 + -1*v^4*z^2"),
                "-(1 + v^2) leading coefficient with 1 component(s)",
                id="sign-rule",
            ),
            # v-span 2..12: MWF bound 6, checked before the degrees
            pytest.param(
                lambda p: p.scale_by_monomial(1, 0, 2) + parse_poly("1*v^12*z^0"),
                "MWF bound 6 exceeds 3",
                id="mwf",
            ),
            # an odd z-degree on a knot, whose z-degrees are even
            pytest.param(
                lambda p: p + parse_poly("1*v^2*z^1"),
                "z-degrees inconsistent with 1 components",
                id="parity",
            ),
            # z^2 coefficient v^2 (1 - v^2)^2 off the 3-component unlink
            pytest.param(
                lambda p: p + parse_poly("-2*v^4*z^2 + 1*v^6*z^2"),
                "(1 - v^2)^2 leading coefficient with chi = -1",
                id="unlink-square",
            ),
        ],
    )
    def test_each_law_raises_naming_law_and_word(self, doctored, law):
        p = doctored(homfly(self.WORD))
        with pytest.raises(ConsistencyError) as info:
            check_laws(p, -1, self.WORD, closure_components(self.WORD))
        assert law in str(info.value)
        assert str(info.value).endswith(f" for {render_word(self.WORD)}")


    def test_unlink_square_allowed_on_the_empty_word(self):
        leading = check_laws(delta_unlink_factor() ** 2, 3, (), closure_components(()))
        assert (leading.tag, leading.sign, leading.k) == (THREE_UNLINK_SQUARE, 1, -2)

    def test_chi_law_comes_last(self):
        # z^-4 alone obeys laws 1-7 read at chi = 5; law 8 says chi <= 3
        p = parse_poly("1*v^-10*z^-4")
        assert [reason for reason, _ in broken_laws(p, 5, 1)] == [REASON_CHI]
        q = p + parse_poly("1*v^10*z^-4")
        assert [reason for reason, _ in broken_laws(q, 5, 1)] == [REASON_MWF, REASON_LEADING, REASON_CHI]
        with pytest.raises(ConsistencyError, match=r"top z-degree -4 is below -2, so chi exceeds 3 for \[\]$"):
            check_laws(p, 5, (), closure_components(()))

    def test_given_component_count_is_the_one_read(self):
        # the trefoil's even z-degrees contradict a count of 2
        p = homfly(self.WORD)
        with pytest.raises(ConsistencyError, match="z-degrees inconsistent with 2 components"):
            check_laws(p, -1, self.WORD, 2)

    def test_report_takes_components_from_the_normal_form(self, monkeypatch):
        # a normal form that claims 2 components breaks the trefoil's parity law
        assert report(self.WORD).components == 1
        monkeypatch.setattr(xu.XuNormalForm, "components", property(lambda nf: 2))
        with pytest.raises(ConsistencyError, match="z-degrees inconsistent with 2 components"):
            report(self.WORD)

    def test_first_broken_law_is_reported(self):
        # breaks MWF, parity and the top z-degree: the list order decides
        p = homfly(self.WORD) + parse_poly("1*v^20*z^5")
        assert [reason for reason, _ in broken_laws(p, -1, 1)] == [REASON_MWF, REASON_PARITY, REASON_TOP_Z]
        with pytest.raises(ConsistencyError, match="MWF bound 10 exceeds 3"):
            check_laws(p, -1, self.WORD, closure_components(self.WORD))


class TestBounds:
    def test_mwf_examples(self):
        assert mwf_lower_bound(LaurentPoly2.one()) == 1
        assert mwf_lower_bound(homfly((1, 1, 1, 2))) == 2
        assert mwf_lower_bound(pretzel_homfly((2, 2, 2, 2))) == 4

    @given(words_st)
    def test_mwf_at_most_three_for_closures(self, w):
        assert mwf_lower_bound(homfly(w)) <= 3

    def test_c3_bound(self):
        assert c3_bound(-1) == 6
        assert c3_bound(-3) == 10
        assert c3_bound(3) == 0
        with pytest.raises(ValueError):
            c3_bound(4)

    def test_crossing_obstruction(self):
        p2 = parse_poly("1*v^0*z^2")
        assert crossing_obstruction(p2, 12)
        assert not crossing_obstruction(p2, 6)
        p4 = parse_poly("1*v^0*z^4")
        assert not crossing_obstruction(p4, 10)


class TestPmcf:
    def test_split_link_trivial_conway(self):
        assert pmcf_predicate(delta_unlink_factor())

    def test_figure_eight_fails_hypothesis(self):
        assert not pmcf_predicate(homfly((1, -2, 1, -2)))

    def test_five_two_satisfies(self):
        # leading Conway coefficient 2 forces strong quasipositivity
        assert pmcf_predicate(homfly((1, 2, 3, 3)))

    @given(words_st)
    @settings(max_examples=80)
    def test_predicate_implies_quasipositive(self, w):
        from braid3.xu import is_strongly_quasipositive

        if pmcf_predicate(homfly(w)):
            assert is_strongly_quasipositive(w) != "no"


class TestMaximallyMonic:
    def test_unknot(self):
        rep = report((1, 2))
        assert maximally_monic(rep.alexander, rep.genus)

    def test_trefoil(self):
        rep = report((1, 1, 1, 2))
        assert maximally_monic(rep.alexander, rep.genus)

    def test_five_two_is_not(self):
        rep = report((1, 2, 3, 3))
        assert rep.genus == 1
        assert not maximally_monic(rep.alexander, rep.genus)


class TestReport:
    def test_unknot_report(self):
        rep = report((1, 2))
        assert rep.chi == 1 and rep.genus == 0
        assert rep.polynomial == LaurentPoly2.one()
        assert rep.leading_class.tag == UNIT_MONOMIAL
        assert rep.mwf_bound == 1

    def test_trefoil_report(self):
        rep = report((1, 1, 1, 2))
        assert rep.chi == -1 and rep.genus == 1 and rep.max_deg_z == 2
        assert rep.quasipositive == "positive"
        assert rep.conway.items().__next__() == (0, 1)  # constant term one

    def test_figure_eight_report(self):
        rep = report((1, -2, 1, -2))
        assert rep.genus == 1
        assert rep.quasipositive == "no"
        assert rep.components == 1

    @given(words_st)
    @settings(max_examples=60)
    def test_report_laws_hold_everywhere(self, w):
        rep = report(w)
        assert rep.max_deg_z == 1 - rep.chi
        assert rep.min_deg_v <= 1 - rep.chi
        assert rep.mwf_bound <= 3
        # Alexander symmetry: palindromic, with sign (-1)^(components - 1)
        alex = rep.alexander
        if not alex.is_zero:
            flipped = alex.invert_variable()
            assert flipped == (alex if rep.components % 2 else -alex)
        if rep.components == 1:
            # knot normalisation: nabla(0) = 1, so Delta(1) = 1
            assert rep.conway.coefficient(0) == 1
            assert sum(c for _, c in alex.items()) == 1
