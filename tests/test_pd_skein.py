"""The PD-code skein oracle against the fast evaluators, and what it shows
about the orientations of 4-region pretzel diagrams."""

import itertools
import random

import pytest

from braid3.hecke import homfly, pretzel_homfly
from braid3.invariants import mwf_lower_bound
from braid3.laurent import LaurentPoly2, delta_unlink_factor, mirror_image
from braid3.words import to_artin
from conftest import random_word
from pd_skein import braid_closure_pd, pd_homfly, pretzel_diagrams

SMALL_PRETZELS = list(itertools.product((2, 3), repeat=4))


def parallel_pd(twists, mirror=False):
    return next(pd for pd, parallel in pretzel_diagrams(twists, mirror) if parallel)


class TestOracle:
    def test_unlinks_and_kinks(self):
        d = delta_unlink_factor()
        assert pd_homfly((), loops=1) == LaurentPoly2.one()
        assert pd_homfly((), loops=3) == d * d
        # a one-crossing curl of either sign is an unknot
        assert pd_homfly([(2, 2, 1, 1, 1)]) == LaurentPoly2.one()
        assert pd_homfly([(2, 1, 1, 2, -1)]) == LaurentPoly2.one()

    def test_rejects_malformed_codes(self):
        with pytest.raises(ValueError):
            pd_homfly([(1, 2, 2, 1, 0)])
        with pytest.raises(ValueError):
            pd_homfly([(1, 2, 3, 1, 1)])
        with pytest.raises(ValueError):
            pd_homfly(())

    def test_braid_closures_match_homfly(self):
        rng = random.Random(0x9D5)
        for _ in range(300):
            word = random_word(rng, 8)
            pd, loops = braid_closure_pd(to_artin(word))
            assert pd_homfly(pd, loops) == homfly(word), word

    @pytest.mark.parametrize(
        "twists", SMALL_PRETZELS + [(3, 4), (1, 1), (1, 1, 1, 1), (2, 2, 3, 3, 2, 2)]
    )
    def test_parallel_pretzels_match_pretzel_homfly(self, twists):
        assert pd_homfly(parallel_pd(twists)) == pretzel_homfly(twists)
        assert pd_homfly(parallel_pd(twists, mirror=True)) == mirror_image(pretzel_homfly(twists))

    def test_odd_region_counts_have_no_parallel_orientation(self):
        for twists in [(2, 2, 2), (3, 3, 3), (1, 2, 3), (2, 3, 4)]:
            assert not any(parallel for _, parallel in pretzel_diagrams(twists))


class TestPretzelOrientations:
    """Every orientation of both mirror images of the {2,3}^4 pretzels."""

    @pytest.mark.parametrize("twists", SMALL_PRETZELS)
    def test_only_the_parallel_orientation_matches(self, twists):
        target = {pretzel_homfly(twists), mirror_image(pretzel_homfly(twists))}
        for mirror in (False, True):
            for pd, parallel in pretzel_diagrams(twists, mirror):
                assert (pd_homfly(pd) in target) == parallel

    @pytest.mark.parametrize("twists", SMALL_PRETZELS)
    def test_no_orientation_has_max_v_degree_nine(self, twists):
        for mirror in (False, True):
            for pd, _ in pretzel_diagrams(twists, mirror):
                assert pd_homfly(pd).max_deg_v() != 9

    def test_all_antiparallel_orientation(self):
        # An all-antiparallel orientation (chi = 2 - 4 = -2) makes every
        # crossing of the mirrored diagram positive.  Only two of the
        # sixteen diagrams admit one, and neither has max deg_v = 9.
        found = {}
        for twists in SMALL_PRETZELS:
            for pd, _ in pretzel_diagrams(twists, mirror=True):
                if all(sign == 1 for *_, sign in pd):
                    p = pd_homfly(pd)
                    found[twists] = (p.min_deg_v(), p.max_deg_v(), mwf_lower_bound(p))
        assert found == {(2, 2, 2, 2): (3, 11, 5), (3, 3, 3, 3): (3, 13, 6)}
