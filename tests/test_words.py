import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braid3.errors import WordSyntaxError
from braid3.limits import MAX_WORD_LETTERS
from braid3.words import (
    BURAU_ONE,
    DELTA,
    HALF_TWIST,
    burau,
    burau_step,
    closure_components,
    cyclic_rotate,
    dual,
    exponent_sum,
    inverse,
    mirror,
    normalize_index,
    parse_word,
    render_word,
    to_artin,
    words_equal,
)
from burau_oracle import burau_matrix, entries
from conftest import random_word, words_st
from word_helpers import concat, shift_indices


def norm(i):
    return normalize_index(i)


class TestParsing:
    def test_bracketed(self):
        assert parse_word("[1 -2 3]") == (1, -2, 3)

    def test_empty(self):
        assert parse_word("") == ()
        assert parse_word("[]") == ()

    def test_powers(self):
        assert parse_word("1^3 2") == (1, 1, 1, 2)
        assert parse_word("2^0") == ()
        assert parse_word("2^-2") == (-2, -2)

    def test_commas(self):
        assert parse_word("1, -2, 3") == (1, -2, 3)

    def test_rejects_zero_and_big_index(self):
        with pytest.raises(WordSyntaxError):
            parse_word("[1 0 2]")
        with pytest.raises(WordSyntaxError):
            parse_word("[4]")
        with pytest.raises(WordSyntaxError):
            parse_word("[1 x]")

    def test_letter_limit(self):
        # counted before the word is built: 1^(10^20) would not fit in memory
        assert len(parse_word(f"1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
        assert len(parse_word(f"[1 -2^{MAX_WORD_LETTERS - 2} 3]")) == MAX_WORD_LETTERS
        for text in (f"1^{MAX_WORD_LETTERS + 1}", f"2 1^{MAX_WORD_LETTERS}", "3^-" + "9" * 20):
            with pytest.raises(WordSyntaxError, match=f"limit of {MAX_WORD_LETTERS} letters"):
                parse_word(text)

    def test_render(self):
        assert render_word((1, -2, 3)) == "[1 -2 3]"
        assert parse_word(render_word(())) == ()


class TestCounting:
    def test_exponent_sum(self):
        assert exponent_sum((1, -2, 3)) == 1
        assert exponent_sum(()) == 0
        assert exponent_sum((-2, -1, -3, -2, 1, 2, 3, 1, 2, 3, 1)) == 3

    def test_closure_components(self):
        assert closure_components(()) == 3
        assert closure_components((1, 2)) == 1
        assert closure_components((1, 1)) == 3

    @given(words_st)
    def test_component_parity(self, w):
        assert (closure_components(w) - (3 - exponent_sum(w))) % 2 == 0

    @given(words_st, st.integers(-5, 5))
    def test_components_rotation_mirror_invariant(self, w, k):
        assert closure_components(cyclic_rotate(w, k)) == closure_components(w)
        assert closure_components(mirror(w)) == closure_components(w)


class TestArtin:
    def test_runs(self):
        assert to_artin((3, 3)) == (-1, 2, 2, 1)
        assert to_artin((3,)) == (-1, 2, 1)
        assert to_artin((1, 2)) == (1, 2)
        assert to_artin((-3,)) == (-1, -2, 1)

    @given(words_st)
    def test_artin_word_is_equal_element(self, w):
        artin = to_artin(w)
        assert all(abs(l) != 3 for l in artin)
        assert words_equal(w, artin)


class TestBurauEquality:
    def test_identity(self):
        m = burau(())
        assert m.exponent == 0
        assert m.a == burau((1, -1)).a

    def test_braid_relation(self):
        assert burau((1, 2, 1)) == burau((2, 1, 2))

    def test_step_i_relation(self):
        assert burau((1, -2)) == burau((-2, 3))

    def test_words_equal_examples(self):
        assert words_equal((1, -1), ())
        assert words_equal((1, 2, 1), (2, 1, 2))
        assert not words_equal((1,), (2,))

    def test_dense_product_equals_matrix_oracle(self):
        rng = random.Random(1984)
        words = [random_word(rng, 60) for _ in range(400)] + [random_word(rng, 400, 400)]
        words += [(), (1, 2, -2, -1) * 50, (3, -3) * 20, (1,) * 30, (-2,) * 30]
        for w in words:
            m, oracle = burau(w), burau_matrix(w)
            assert entries(m) == entries(oracle), w
            assert m.exponent == oracle.exponent == exponent_sum(w)

    def test_dense_product_is_trimmed(self):
        rng = random.Random(7)
        for w in [random_word(rng, 40) for _ in range(200)] + [(1, -1) * 5, (2, 1, -1, -2)]:
            m = burau(w)
            columns = list(zip(m.a, m.b, m.c, m.d))
            assert len(columns) == len(m.a) == len(m.b) == len(m.c) == len(m.d)
            assert any(columns[0]) and any(columns[-1])

    @given(words_st, words_st)
    def test_words_equal_agrees_with_matrix_oracle(self, a, b):
        same = burau_matrix(a) == burau_matrix(b)
        assert words_equal(a, b) == same
        assert words_equal(concat(a, b, inverse(b)), a)

    def test_step_rejects_band_letters(self):
        for letter in (3, -3, 0):
            with pytest.raises(ValueError):
                burau_step(BURAU_ONE, letter)

    @given(words_st, words_st, words_st)
    def test_equality_respects_common_affixes(self, a, b, c):
        if words_equal(a, b):
            assert words_equal(concat(a, c), concat(b, c))
            assert words_equal(concat(c, a), concat(c, b))

    def test_band_relations_all_indices(self):
        # s_{i+1} s_i is the same element for every i
        for i in (1, 2, 3):
            assert words_equal((norm(i + 1), norm(i)), DELTA)

    def test_exchange_rule_all_indices(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert words_equal((i, -j), (-norm(i + 1), norm(j + 1)))

    def test_delta_commutation_all_indices(self):
        for i in (1, 2, 3):
            assert words_equal(concat((i,), DELTA), concat(DELTA, (norm(i + 1),)))

    def test_cancellation_rules_all_indices(self):
        for i in (1, 2, 3):
            assert words_equal(concat(inverse(DELTA), (norm(i + 1),)), (-i,))
            assert words_equal(concat((-i,), DELTA), (norm(i - 1),))

    def test_sigma3_expansion(self):
        assert words_equal((3,), (-1, 2, 1))
        assert words_equal((-3,), (-1, -2, 1))

    def test_half_twist_cube_relation(self):
        # Delta^2 s_{i+1}^{-1} s_i^{-1} s_{i-1}^{-1} = s_i^3
        d2 = HALF_TWIST * 2
        for i in (1, 2, 3):
            lhs = concat(d2, (-norm(i + 1), -norm(i), -norm(i - 1)))
            assert words_equal(lhs, (i,) * 3)

    def test_index_shift_is_delta_conjugation(self):
        w = (1, -2, 3, 3, -1)
        assert words_equal(concat(inverse(DELTA), w, DELTA), shift_indices(w, 1))


class TestSymmetries:
    def test_mirror_example(self):
        assert mirror((1, -2)) == (-1, 2)

    def test_mirror_expands_band_letters(self):
        # negating a band letter in place is not the diagram mirror
        assert mirror((3,)) == (1, -2, -1)
        assert not words_equal(mirror((1, 2, -3)), (-1, -2, 3))

    @given(words_st)
    def test_mirror_is_involution_up_to_equality(self, w):
        assert words_equal(mirror(mirror(w)), w)

    def test_inverse_example(self):
        assert inverse((1, 2)) == (-2, -1)

    def test_rotation_example(self):
        w = (-2, -1, -3, -2, 1, 2, 3, 1, 2, 3, -1)
        assert cyclic_rotate(w, -1) == (-1, -2, -1, -3, -2, 1, 2, 3, 1, 2, 3)

    @given(words_st)
    def test_exponent_sum_negates(self, w):
        assert exponent_sum(mirror(w)) == -exponent_sum(w)
        assert exponent_sum(inverse(w)) == -exponent_sum(w)

    @given(words_st)
    def test_inverse_cancels(self, w):
        assert words_equal(concat(w, inverse(w)), ())


class TestDual:
    def test_rejects_bad_exponent_sum(self):
        with pytest.raises(ValueError):
            dual((1,))

    def test_empty(self):
        assert dual(()) == ()

    def test_half_twist_square_is_self_dual(self):
        w = HALF_TWIST * 2
        assert words_equal(dual(w), w)

    @given(st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=8).map(tuple))
    def test_double_dual_is_identity_element(self, w):
        pad = (-exponent_sum(w)) % 6
        w = concat(w, (1,) * pad)
        assert words_equal(dual(dual(w)), w)
