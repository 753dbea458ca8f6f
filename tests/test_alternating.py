"""Alternating closed 3-braids: classical closed forms as oracles at every length.

The braid ``[1^a1 -2^b1 ... 1^an -2^bn]`` (every a_i and b_i at least 1)
closes to an alternating diagram with c = sum a + sum b crossings and 3
Seifert circles, connected because both generators occur.  Three theorems
fix some of its invariants without computing them, so they check ``xu`` and
``hecke`` on words far longer than the brute-force, fold, PD-skein and
restart-scan oracles reach:

* Crowell (*Genus of alternating link types*, Ann. of Math. 1959) and
  Murasugi (*On the genus of the alternating knot*, J. Math. Soc. Japan
  1958): Seifert's algorithm on a connected alternating diagram gives a
  surface of maximal Euler characteristic, here chi = 3 - c, so Xu's minimal
  band length is c.  By the same theorems the Alexander polynomial has
  degree span 1 - chi in t, that is s-span 2(c - 2) in s = t^(1/2), with
  nonzero coefficients alternating in sign.  Since the Conway polynomial is
  P at v = 1 and max deg_z P <= 1 - chi (Morton, *Seifert circles and knot
  polynomials*, Math. Proc. Cambridge Philos. Soc. 1986), max deg_z P is
  c - 2.
* Kauffman (*State models and the Jones polynomial*), Murasugi (*Jones
  polynomials and classical conjectures in knot theory*) and Thistlethwaite
  (*A spanning tree expansion of the Jones polynomial*), all Topology 1987:
  the Jones polynomial of a connected reduced alternating diagram has
  t-span c and extreme coefficients +-1.  The diagram is reduced when
  sum a >= 2 and sum b >= 2, so that no crossing is nugatory.
"""

import itertools
import random

import pytest

from braid3.hecke import homfly
from braid3.laurent import alexander, conway, jones
from braid3.xu import reduce
from word_helpers import alternating_word


@pytest.fixture(scope="module")
def seeded():
    # 200 words with their polynomials; targets of 4-23 letters, and a word
    # stops within 9 letters past its target, so c runs over 4-32
    rng = random.Random(1958)
    words = [alternating_word(rng, rng.randint(4, 23)) for _ in range(200)]
    return [(w, homfly(w)) for w in words]


def test_family_spans_four_to_thirty_two_crossings(seeded):
    lengths = {len(w) for w, _ in seeded}
    assert min(lengths) >= 4 and max(lengths) <= 32
    assert len(lengths) > 20


def test_minimal_length_and_top_z_degree_are_c_and_c_minus_two(seeded):
    for w, p in seeded:
        c = len(w)
        assert reduce(w).minimal_length == c, w
        assert p.max_deg_z() == c - 2, w


def test_alexander_has_span_two_c_minus_four_and_alternating_signs(seeded):
    for w, p in seeded:
        c = len(w)
        delta = alexander(conway(p))
        lo, hi = delta.min_deg(), delta.max_deg()
        assert hi - lo == 2 * (c - 2), w
        assert sorted(e for e, _ in delta.items()) == list(range(lo, hi + 1, 2)), w
        coeffs = [delta.coefficient(e) for e in range(lo, hi + 1, 2)]
        assert all(x * y < 0 for x, y in itertools.pairwise(coeffs)), w


def test_jones_of_a_reduced_diagram_has_span_two_c_and_unit_ends(seeded):
    reduced = [(w, p) for w, p in seeded if w.count(1) >= 2 and w.count(-2) >= 2]
    assert len(reduced) > 150
    for w, p in reduced:
        v = jones(p)
        lo, hi = v.min_deg(), v.max_deg()
        assert hi - lo == 2 * len(w), w
        assert abs(v.coefficient(lo)) == 1 == abs(v.coefficient(hi)), w


@pytest.mark.parametrize("seed, crossings", [(1, 1_000), (2, 2_000)])
def test_long_words_keep_minimal_length_and_top_z_degree(seed, crossings):
    w = alternating_word(random.Random(seed), crossings)
    c = len(w)
    assert crossings <= c < crossings + 10
    assert reduce(w).minimal_length == c
    assert homfly(w).max_deg_z() == c - 2
