import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braid3.invariants import report
from braid3.words import cyclic_rotate, inverse, mirror, words_equal
from braid3.xu import (
    TYPE_A_NEGATIVE,
    TYPE_A_POSITIVE,
    TYPE_B,
    XuNormalForm,
    cancel_factors,
    euler_characteristic,
    extract_descents,
    genus,
    is_strongly_quasipositive,
    push_negatives_left,
    reduce,
)
from conftest import LETTERS, random_word, words_st
from word_helpers import concat
import xu_oracle


def quasipositive_oracle(w) -> str:
    """Quasipositivity by reducing the word and, when needed, its mirror image."""
    if reduce(w).kind == TYPE_A_POSITIVE:
        return "positive"
    if reduce(mirror(w)).kind == TYPE_A_POSITIVE:
        return "mirror-positive"
    return "no"


def certify(w, nf: XuNormalForm) -> bool:
    """minimal_word must equal conjugator . w . conjugator^{-1} as an element."""
    return words_equal(concat(nf.conjugator, w, inverse(nf.conjugator)), nf.minimal_word)


class TestPushNegativesLeft:
    def test_examples(self):
        assert push_negatives_left((1, -2)) == (-2, 3)
        assert push_negatives_left((1, -1)) == ()
        assert push_negatives_left((1, -2, 1, -2)) == (-2, -1, 3, 3)

    @given(words_st)
    def test_sorted_and_equal(self, w):
        out = push_negatives_left(w)
        assert words_equal(w, out)
        split = [l > 0 for l in out]
        assert split == sorted(split)  # no positive before a negative


class TestExtractDescents:
    def test_examples(self):
        assert extract_descents((2, 1)) == (1, ())
        assert extract_descents((1, 2, 3)) == (0, (1, 2, 3))
        k, rest = extract_descents((1, 3, 2))
        assert k == 1 and len(rest) == 1

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError):
            extract_descents((1, -2))

    @given(st.lists(st.sampled_from((1, 2, 3)), max_size=10).map(tuple))
    def test_element_preserved_and_nondecreasing(self, w):
        k, rest = extract_descents(w)
        assert words_equal(w, (2, 1) * k + rest)
        for x, y in zip(rest, rest[1:]):
            assert y in (x, x % 3 + 1)


class TestCancelFactors:
    def test_single_delta_against_letter(self):
        nf = cancel_factors((2,), 1, ())
        assert nf.minimal_length == 1
        assert certify(concat(inverse((2,)), (2, 1)), nf)

    def test_plain_positive_passthrough(self):
        nf = cancel_factors((), 0, (1, 2, 3))
        assert nf.kind == TYPE_A_POSITIVE
        assert nf.k == 0 and nf.R == (1, 2, 3)

    def test_figure_eight_form(self):
        nf = cancel_factors((1, 2), 0, (3, 3))
        assert nf.kind == TYPE_B
        assert nf.minimal_length == 4


_SWAPPED_KIND = {TYPE_A_POSITIVE: TYPE_A_NEGATIVE, TYPE_A_NEGATIVE: TYPE_A_POSITIVE, TYPE_B: TYPE_B}


def positive_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((1, 2, 3), repeat=n)


def assert_inverse_symmetry(L, k, R):
    # L^-1 delta^k R is the inverse of R^-1 delta^-k L: the two reduce to
    # mirrored forms under the same conjugator, except that the empty word
    # is type A+ from both sides
    nf, swapped = cancel_factors(L, k, R), cancel_factors(R, -k, L)
    if nf.minimal_length == 0:
        assert swapped == nf
        return
    assert swapped == XuNormalForm(_SWAPPED_KIND[nf.kind], nf.R, nf.k, nf.L, nf.conjugator)


class TestInverseSymmetry:
    def test_all_short_factors(self):
        words = list(positive_words(3))
        for L, R in itertools.product(words, repeat=2):
            for k in range(-4, 5):
                assert_inverse_symmetry(L, k, R)

    def test_seeded_factors_up_to_five_letters(self):
        rng = random.Random(1992)
        for _ in range(3000):
            L = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 5)))
            R = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 5)))
            assert_inverse_symmetry(L, rng.randint(-4, 4), R)

    def test_negative_power_certifies(self):
        for L, k, R in [((1, 2), -3, (3,)), ((), -2, (1, 1)), ((2,), -1, (2, 3, 3)), ((3, 1), -4, ())]:
            nf = cancel_factors(L, k, R)
            w = concat(inverse(L), inverse((2, 1) * -k), R)
            assert certify(w, nf)
            assert nf.minimal_length <= len(w)


class TestReduce:
    @pytest.mark.parametrize("w", [(4,), (0,), (1, -4)])
    @pytest.mark.parametrize(
        "f", [reduce, genus, euler_characteristic, is_strongly_quasipositive, report]
    )
    def test_rejects_letters_outside_the_bands(self, f, w):
        bad = next(l for l in w if abs(l) not in (1, 2, 3))
        with pytest.raises(ValueError, match=f"letter {bad} "):
            f(w)

    def test_free_pair(self):
        nf = reduce((1, -1))
        assert nf.kind == TYPE_A_POSITIVE
        assert nf.minimal_length == 0

    def test_figure_eight(self):
        nf = reduce((1, -2, 1, -2))
        assert nf.kind == TYPE_B
        assert nf.minimal_length == 4

    def test_reducible_eleven_letter_word(self):
        nf = reduce((-1, -2, -1, -3, -2, 1, 2, 3, 1, 2, 3))
        assert nf.minimal_length < 11
        assert nf.minimal_length == 9  # frozen from the run, cross-checked below

    def test_cyclic_reduction_tracks_conjugator(self):
        nf = reduce((-1, -1, 3, 1))
        assert nf.minimal_length == 2
        assert nf.conjugator == (1,)
        assert certify((-1, -1, 3, 1), nf)

    @given(words_st)
    @settings(max_examples=150)
    def test_certificate_always_holds(self, w):
        assert certify(w, reduce(w))

    @given(words_st)
    def test_no_longer_than_input(self, w):
        assert reduce(w).minimal_length <= len(w)

    @given(words_st, st.integers(0, 12))
    def test_conjugacy_invariance(self, w, j):
        assert reduce(cyclic_rotate(w, j)).minimal_length == reduce(w).minimal_length

    @given(words_st)
    def test_mirror_symmetry(self, w):
        assert reduce(mirror(w)).minimal_length == reduce(w).minimal_length

    @given(words_st)
    def test_idempotent_on_normal_forms(self, w):
        nf = reduce(w)
        again = reduce(nf.minimal_word)
        assert again.minimal_word == nf.minimal_word
        assert again.conjugator == ()

    @given(words_st)
    def test_reduced_parts_are_normal(self, w):
        nf = reduce(w)
        for part in (nf.L, nf.R):
            for x, y in zip(part, part[1:]):
                assert y in (x, x % 3 + 1)
        if nf.kind == TYPE_B:
            assert nf.k == 0 and nf.L and nf.R
            assert nf.L[0] != nf.R[0] and nf.L[-1] != nf.R[-1]
        if nf.kind == TYPE_A_POSITIVE:
            assert not nf.L and nf.k >= 0
        if nf.kind == TYPE_A_NEGATIVE:
            assert not nf.R and nf.k >= 0


def test_degree_equality_bulk(rng):
    # Two independent routes to 1 - chi: the reduction length and the top
    # z-degree of the skein polynomial.  Any over- or under-reduction on
    # arbitrary words shows up here.
    from braid3.hecke import homfly
    from conftest import random_word

    for _ in range(2000):
        w = random_word(rng, 12)
        assert homfly(w).max_deg_z() == reduce(w).minimal_length - 2, w


class TestDerivedInvariants:
    def test_euler_characteristic(self):
        assert euler_characteristic(()) == 3
        assert euler_characteristic((1, 1, 1, 2)) == -1
        assert euler_characteristic((1, 2)) == 1

    def test_genus(self):
        assert genus((1, 1, 1, 2)) == 1
        assert genus((1, 2)) == 0
        assert genus((1, 1, 1, 1, 1, 2)) == 2
        # split closures: the band surface of the minimal word is disconnected
        assert genus(()) == 0  # 3-component unlink
        assert genus((1,)) == 0  # 2-component unlink
        assert genus((1, 1, 1)) == 1  # trefoil and an unknot
        assert genus((1, 1, 1, 1)) == 1  # T(2,4) and an unknot
        assert genus((3, 3, 3, 3, 3)) == 2  # T(2,5) and an unknot
        assert genus((-1, -1, -1)) == 1

    @pytest.mark.parametrize("index", [1, 2, 3, -1, -2, -3])
    def test_genus_of_split_powers(self, index):
        # s_i^n closes to T(2,n) and an unknot: genus (n-1)/2 for a knot,
        # (n-2)/2 for a two-component torus link
        for n in range(1, 13):
            w = (index,) * n
            assert genus(w) == genus(cyclic_rotate(w + (1, -1), 1)) == (n - 1) // 2, w

    @given(words_st)
    def test_genus_non_negative(self, w):
        assert genus(w) >= 0

    def test_quasipositivity(self):
        assert is_strongly_quasipositive((1, 2, 3)) == "positive"
        assert is_strongly_quasipositive((-1, -2, -3)) == "mirror-positive"
        assert is_strongly_quasipositive((1, -2, 1, -2)) == "no"

    def test_quasipositivity_equals_mirror_oracle_on_short_words(self):
        words = [w for n in range(6) for w in itertools.product(LETTERS, repeat=n)]
        assert len(words) == 9331
        assert [w for w in words if is_strongly_quasipositive(w) != quasipositive_oracle(w)] == []

    def test_quasipositivity_equals_mirror_oracle_on_seeded_words(self):
        rng = random.Random(0x51C0)
        words = [random_word(rng, 40) for _ in range(4000)]
        assert [w for w in words if is_strongly_quasipositive(w) != quasipositive_oracle(w)] == []

    def test_one_reduction_per_call(self, monkeypatch):
        from braid3 import invariants, xu

        calls = []
        monkeypatch.setattr(xu, "reduce", lambda w: calls.append(w) or reduce(w))
        for w in [(), (1, 1, 1, 2), (-1, -1, -1), (1, -2, 1, -2), (3, 3, -2, 1, -3)]:
            del calls[:]
            is_strongly_quasipositive(w)
            assert len(calls) == 1, w
            del calls[:]
            invariants.report(w)
            assert len(calls) == 1, w

    @given(words_st)
    def test_mirror_flips_type_a(self, w):
        nf, mf = reduce(w), reduce(mirror(w))
        assert (nf.kind == TYPE_B) == (mf.kind == TYPE_B)
        if nf.minimal_length > 0:
            assert (nf.kind == TYPE_A_POSITIVE) == (mf.kind == TYPE_A_NEGATIVE)


class TestRestartOracle:
    """Xu's three steps against the scans kept in ``tests/xu_oracle.py``."""

    def test_step_one_on_every_word_up_to_six_letters(self):
        for n in range(7):
            for w in itertools.product(LETTERS, repeat=n):
                assert push_negatives_left(w) == xu_oracle.push_negatives_left(w), w

    def test_every_word_up_to_six_letters(self):
        # step (i) is checked above, so the oracle reduces each sorted word
        # once; every word still gets its own reduce
        expected = {}
        for n in range(7):
            for w in itertools.product(LETTERS, repeat=n):
                sorted_word = push_negatives_left(w)
                if sorted_word not in expected:
                    expected[sorted_word] = xu_oracle.reduce(sorted_word)
                assert reduce(w) == expected[sorted_word], w

    def test_extract_descents_on_every_positive_word_up_to_ten_letters(self):
        # both commute with the subscript shift, so the oracle runs on the
        # words that start with 1 and its answers are shifted for the rest
        starts = [(1,) + w for w in positive_words(9)]
        expected = list(map(xu_oracle.extract_descents, starts))
        shift = {1: 2, 2: 3, 3: 1}.__getitem__
        assert extract_descents(()) == xu_oracle.extract_descents(()) == (0, ())
        for _ in range(3):
            assert list(map(extract_descents, starts)) == expected
            starts = [tuple(map(shift, w)) for w in starts]
            expected = [(k, tuple(map(shift, rest))) for k, rest in expected]

    def test_seeded_factors(self):
        rng = random.Random(1998)
        for _ in range(1000):
            L = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 12)))
            R = tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 12)))
            k = rng.randint(-8, 8)
            assert cancel_factors(L, k, R) == xu_oracle.cancel_factors(L, k, R), (L, k, R)

    def test_worst_cases_of_the_restart_scans(self):
        # one restart per descent in step (ii), one re-extraction of R per
        # slid letter in step (iii); the second ends in a cyclic reduction
        descents = (1, 2, 3) * 500 + (2,) * 500
        slid = (-1,) * 1000 + (2, 1) * 500
        assert reduce(descents) == xu_oracle.reduce(descents)
        nf = reduce(slid)
        assert nf == xu_oracle.reduce(slid)
        assert nf.kind == TYPE_B and nf.conjugator
        assert certify(slid, nf)
