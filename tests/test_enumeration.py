import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braid3 import enumeration, xu
from braid3.cli import run
from braid3.enumeration import (
    REASON_SEARCH,
    CensusEntry,
    canonical_key,
    enumerate_minimal,
    generate_normal_forms,
    genus_census,
    nondecreasing_words,
    realizable_3braid,
)
from braid3.errors import CapExceededError, ConsistencyError
from braid3.hecke import homfly
from braid3.invariants import REASON_LEADING, REASON_MWF, REASON_PARITY
from braid3.knot_table import make_table
from braid3.laurent import mirror_image, parse_poly
from braid3.words import DELTA, DELTA_INV, cyclic_rotate, inverse, permutation, render_word
from braid3.xu import reduce
from census_oracle import census_classes, constructive_orbits
from conftest import random_word, words_st
from pretzel_check import braid_index_check_pretzel
from word_helpers import shift_indices

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census_oracles", ROOT / "scripts" / "census_oracles.py")
census_oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census_oracles)


def run_oracles_script(max_bands):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "census_oracles.py"), "--max-bands", str(max_bands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def canonical_key_by_definition(word):
    # the least of all 3n shifted rotations, built one by one
    w = tuple(word)
    if not w:
        return w
    return min(shift_indices(cyclic_rotate(w, r), s) for r in range(len(w)) for s in range(3))


class TestCanonicalKey:
    def test_equals_definition_on_seeded_words(self, rng):
        special = [
            (),
            *[(l,) for l in (1, 2, 3, -1, -2, -3)],
            (-1, -2, -3, -1),
            (-3, -3, -2, -2, -1),
            (1, 2) * 6,
            (1, -2) * 5,
            (2, 1) * 4,
            (3,) * 7,
            (-2,) * 5,
            (1, 2, 3) * 3,
            (-1, -1, 2) * 3,
        ]
        seeded = [random_word(rng, 14) for _ in range(600)]
        negative = [tuple(-abs(l) for l in random_word(rng, 10, 1)) for _ in range(100)]
        for w in special + seeded + negative:
            assert canonical_key(w) == canonical_key_by_definition(w), w

    @given(words_st)
    def test_equals_definition(self, w):
        assert canonical_key(w) == canonical_key_by_definition(w)

    @given(words_st, st.integers(0, 11), st.integers(0, 2))
    def test_constant_on_orbits(self, w, r, s):
        assert canonical_key(w) == canonical_key(shift_indices(cyclic_rotate(w, r), s))

    @given(words_st)
    def test_idempotent(self, w):
        assert canonical_key(canonical_key(w)) == canonical_key(w)


def all_shift_normal_forms(length):
    """The normal forms with every subscript shift of every type-B word.

    This generated three words for each type-B orbit; ``generate_normal_forms``
    keeps only the one with ``L[0] == 1``.
    """
    for k in range(length // 2 + 1):
        rest = length - 2 * k
        for r in nondecreasing_words(rest):
            yield xu.TYPE_A_POSITIVE, DELTA * k + r
        if length > 0:
            for l in nondecreasing_words(rest):
                yield xu.TYPE_A_NEGATIVE, inverse(l) + DELTA_INV * k
    for left_len in range(1, length):
        for left in nondecreasing_words(left_len):
            for right in nondecreasing_words(length - left_len):
                if left[0] != right[0] and left[-1] != right[-1]:
                    yield xu.TYPE_B, inverse(left) + right


def cycle_count(perm):
    # components of a closure by walking the cycles of its permutation
    seen, cycles = set(), 0
    for start in range(3):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


class TestGeneration:
    def test_nondecreasing_counts(self):
        assert sum(1 for _ in nondecreasing_words(0)) == 1
        assert sum(1 for _ in nondecreasing_words(1)) == 3
        assert sum(1 for _ in nondecreasing_words(5)) == 3 * 2**4

    def test_generated_words_are_minimal_and_normal(self):
        for n in range(0, 7):
            for word in generate_normal_forms(n):
                nf = reduce(word)
                assert nf.minimal_length == n == len(word)
                assert nf.minimal_word == word
                assert nf.kind == enumeration._kind(word)

    def test_length_zero(self):
        entries = enumerate_minimal(0)
        assert len(entries) == 1
        assert entries[0].components == 3
        assert entries[0].chi == 3

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_minimal(15)

    def test_no_cap_reaches_past_the_ceiling(self, monkeypatch):
        # the CLI refuses --max-bands above the ceiling, but a library caller
        # may pass any cap: the census is refused before any generation
        def no_generation(length):
            raise AssertionError("generation started")

        monkeypatch.setattr(enumeration, "generate_normal_forms", no_generation)
        with pytest.raises(CapExceededError, match=r"^length 17 exceeds the ceiling 16 of --max-bands$"):
            enumerate_minimal(17, cap=17)
        # a polynomial of top z-degree 20 keeps every law and needs 22 bands
        with pytest.raises(CapExceededError, match=r"^length 22 exceeds the ceiling 16 of --max-bands$"):
            realizable_3braid(parse_poly("1*v^0*z^20"), cap=30)
        with pytest.raises(CapExceededError, match=r"^length 18 exceeds the ceiling 16 of --max-bands$"):
            genus_census(8, cap=20)
        with pytest.raises(CapExceededError, match=r"^length 18 exceeds the enumeration cap 17 and the ceiling"):
            enumerate_minimal(18, cap=17)

    def test_one_type_b_word_per_orbit_against_all_shifts(self):
        # the same orbits (so the same census rows, whose kind is read from
        # the key) as the all-shifts generator, with three times fewer type-B words
        for n in range(0, 13):
            old = list(all_shift_normal_forms(n))
            new = list(generate_normal_forms(n))
            assert constructive_orbits(n) == {canonical_key(w) for _, w in old}, n
            new_b = [canonical_key(w) for w in new if enumeration._kind(w) == xu.TYPE_B]
            old_b = [w for kind, w in old if kind == xu.TYPE_B]
            assert len(set(new_b)) == len(new_b), n
            assert 3 * len(new_b) == len(old_b), n

    def test_census_rows_against_reduction_and_permutation(self):
        # kind and components are read from the key; xu.reduce and a cycle
        # walk of the permutation derive them independently
        for n in range(0, 11):
            for e in enumerate_minimal(n):
                assert e.kind == reduce(e.word).kind, e.word
                assert e.components == cycle_count(permutation(e.word)), e.word
                assert (e.length, e.chi) == (n, 3 - n)

    def test_census_row_stores_only_key_and_polynomial(self):
        # the other columns are properties read from the key
        entry = enumerate_minimal(4)[0]
        assert [f.name for f in dataclasses.fields(CensusEntry)] == ["word", "polynomial"]
        assert not hasattr(entry, "__dict__")

    def test_repeated_type_b_orbit_is_a_consistency_error(self, monkeypatch, capsys):
        # [-1 2] and [-1 3] are the two type-B words of length 2, in
        # different orbits; a key that collapses them breaks the identity
        key = enumeration._type_b_key

        def collapsing(word, starts):
            return key((-1, 2), starts) if tuple(word) == (-1, 3) else key(word, starts)

        monkeypatch.setattr(enumeration, "_type_b_key", collapsing)
        assert render_word(canonical_key((-1, 2))) == "[-3 1]"
        with pytest.raises(ConsistencyError, match=r"^orbit \[-3 1\] is generated twice$"):
            enumerate_minimal(2)
        assert run(["enumerate", "--max-bands", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: orbit [-3 1] is generated twice\n"


class TestInversePairs:
    def test_second_word_of_each_pair_is_in_the_inverse_orbit(self):
        for n in range(0, 12):
            words = list(generate_normal_forms(n))
            if n == 0:
                assert words == [()]
                continue
            assert len(words) % 2 == 0, n
            for first, second in zip(words[::2], words[1::2]):
                assert canonical_key(second) == canonical_key(inverse(first)), (first, second)

    def test_word_and_orbit_counts_up_to_eleven_bands(self):
        # type A keeps R[0] == 1 when k == 0: 8,167 type-A words instead of
        # 16,355 with every shift; type B stays one word per orbit
        words = [w for n in range(0, 12) for w in generate_normal_forms(n)]
        type_b = sum(enumeration._kind(w) == xu.TYPE_B for w in words)
        assert (len(words), len(words) - type_b, type_b) == (20_457, 8_167, 12_290)
        assert sum(len(constructive_orbits(n)) for n in range(0, 12)) == 15_993

    def test_partners_are_an_involution_onto_the_inverse_orbit(self):
        # 7,997 of the 15,993 orbits of 0-11 bands are evaluated: the lesser
        # key of each pair, and the empty word, its own inverse
        evaluated = 0
        for n in range(0, 12):
            pairs = [(key, mate_key) for _, key, mate_key, _ in enumeration._orbit_pairs(n)]
            partners = {}
            for key, mate_key in pairs:
                partners[key] = mate_key
                partners[mate_key] = key
            # every orbit comes in one pair only
            assert len(partners) == 2 * len(pairs) - (n == 0), n
            for key, partner in partners.items():
                assert partners[partner] == key
                assert partner == canonical_key(inverse(key))
                assert (partner == key) == (key == ())
            evaluated += sum(key <= partner for key, partner in partners.items())
        assert evaluated == 7_997
        # the census pass yields each of those pairs once
        keys = [key for n in range(0, 12) for _, key, _, _ in enumeration._orbit_pairs(n)]
        assert len(keys) == len(set(keys)) == 7_997

    def test_inverse_closure_has_the_mirror_polynomial(self):
        # the identity the census relies on, checked without it
        for n in range(0, 10):
            for key in constructive_orbits(n):
                assert homfly(inverse(key)) == mirror_image(homfly(key)), key

    def test_pair_with_unswapped_signs_is_a_consistency_error(self, monkeypatch, capsys):
        # [1] and [-1] are the one pair of length 1; a key that sends [-1]
        # to [1] gives both halves the exponent sum +1
        key = canonical_key
        monkeypatch.setattr(enumeration, "canonical_key", lambda w: (1,) if w == (-1,) else key(w))
        with pytest.raises(ConsistencyError, match=r"\[-1\] is not in the inverse orbit of \[1\]"):
            enumerate_minimal(1)
        assert run(["enumerate", "--max-bands", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: [-1] is not in the inverse orbit of [1]")

    def test_orbit_with_two_inverse_orbits_is_a_consistency_error(self, monkeypatch):
        # [-1 -1] and [-1 -2] are the inverses of [1 1] and delta = [2 1];
        # a key that merges them leaves one orbit two inverses
        key = canonical_key
        merged = key((-1, -2))
        monkeypatch.setattr(enumeration, "canonical_key", lambda w: merged if w == (-1, -1) else key(w))
        with pytest.raises(ConsistencyError, match="has inverse orbits"):
            enumerate_minimal(2)


class TestCensusShortcuts:
    def test_oracles_script_to_twelve_bands(self):
        # block keys against canonical_key on every type-B normal form and
        # its mate, packed traces against dense Burau traces on every census
        # key, and the rows of enumerate_minimal against the sorted
        # canonical_key set, homfly of each key (mirrored mates included) and
        # one object per distinct polynomial; on all 34,661 orbits of 0-12
        # bands the component count, every degree law, the sign rule and the
        # PMCF law; 52 is the largest decoded coefficient of 0-12 bands, far
        # below the 2^30 at which decoding raises
        done = run_oracles_script(12)
        assert done.returncode == 0, done.stderr
        *_, laws, last = done.stdout.splitlines()
        assert laws == "all degree and coefficient laws hold on 34661 orbits"
        assert last == "block keys and packed traces agree up to 12 bands; largest |coefficient| 52"
        assert 52 < 2 ** (enumeration._K - 2)

    @pytest.mark.parametrize("max_bands", [-1, 17])
    def test_oracles_script_refuses_a_cap_it_cannot_check(self, max_bands):
        # argparse's usage error, before the table header or any census
        done = run_oracles_script(max_bands)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "--max-bands must be 0..16" in done.stderr

    @pytest.mark.parametrize(
        "row, fault",
        [
            # an unknot's polynomial on a 4-band knot: max deg_z P is 0, not 1 - chi = 2
            (CensusEntry((1, 2, 1, 2), homfly((1, 2))), "top z-degree"),
            # one component read from P, two from the permutation
            (CensusEntry((1, 1, 2), homfly((1, 2))), "components from min deg_z P"),
            # the trefoil's polynomial keeps every law and meets PMCF on a word with no positive band form
            (CensusEntry((-3, -3, 1), homfly((1, 1, 1))), "PMCF"),
        ],
    )
    def test_law_checks_name_a_doctored_row(self, row, fault):
        with pytest.raises(ConsistencyError, match=fault) as raised:
            census_oracles.check_orbit(row)
        assert render_word(row.word) in str(raised.value)

    def test_check_rows_holds_every_row_to_the_laws(self, monkeypatch):
        # the orbit count of the laws line is len(rows), so only this shows
        # that check_rows hands each row to check_orbit
        held = []
        monkeypatch.setattr(census_oracles, "check_orbit", held.append)
        keys, _ = census_oracles.orbit_keys(6)
        traces, _ = census_oracles.packed_traces(keys)
        rows = enumerate_minimal(6)
        census_oracles.check_rows(rows, keys, traces)
        assert held == rows

    def test_block_key_of_the_length_two_pair(self):
        # [-1 3] is [-3 2] shifted by 2: its least start is its one letter
        assert enumeration._type_b_key((-1, 2), {}) == (-3, 1)
        assert enumeration._type_b_key((-1, 3), {}) == (-3, 2)
        assert canonical_key((-1, 3)) == (-3, 2)

    def test_a_longer_negative_run_wins_over_its_prefix(self):
        # N = [-2 -1 -1]: starting at the run -1 -1 (shifted to -3 -3) beats
        # starting at -2, and the start is found from N alone
        starts = {}
        word = (-2, -1, -1, 2, 3)
        assert enumeration._type_b_key(word, starts) == canonical_key(word)
        assert list(starts) == [(-2, -1, -1)]

    def test_oversized_packed_digit_is_a_consistency_error(self):
        limit = 1 << (enumeration._K - 2)
        assert enumeration._digits(limit - 1, (1, 2)) == [limit - 1]
        assert enumeration._digits(-(limit - 1) << enumeration._K, (1, 2)) == [0, -(limit - 1)]
        with pytest.raises(ConsistencyError, match=r"outgrew its packed digit for \[1 2\]$"):
            enumeration._digits(limit, (1, 2))
        with pytest.raises(ConsistencyError, match=r"for \[1 2\]$"):
            enumeration._digits(-limit << enumeration._K, (1, 2))


class TestCensus:
    def test_genus_zero(self):
        classes = census_classes(genus_census(0))
        assert len(classes) == 1
        assert classes[0][0].polynomial == homfly((1, 2))

    def test_genus_one_names(self):
        table = make_table()
        entries = genus_census(1)
        names = {table.match(e.polynomial) for e in entries}
        assert names == {"3_1", "4_1", "5_2"}
        assert len(census_classes(entries)) == 3

    def test_every_census_consumer_gets_the_component_check(self, monkeypatch):
        # the census reads each row's count from its polynomial and checks
        # the first row of each polynomial against its permutation, so a
        # walk that disagrees fails the genus census and the search alike
        monkeypatch.setattr(enumeration, "closure_components", lambda word: 3)
        message = r"the polynomial of \[[-0-9 ]*\] shows \d+ components, its permutation 3$"
        with pytest.raises(ConsistencyError, match=message):
            genus_census(1)
        with pytest.raises(ConsistencyError, match=message):
            realizable_3braid(homfly((1, 1, 1, 2)))


class TestRealizability:
    def test_unknot_polynomial(self):
        verdict = realizable_3braid(parse_poly("1"))
        assert verdict.realizable
        assert homfly(verdict.witness) == parse_poly("1")

    def test_trefoil_polynomial(self):
        verdict = realizable_3braid(homfly((1, 1, 1, 2)))
        assert verdict.realizable

    def test_mwf_rejection(self):
        # v-span 8 needs braid index at least 5
        verdict = realizable_3braid(parse_poly("1*v^0*z^0 + 1*v^8*z^0"))
        assert not verdict.realizable and verdict.reason == REASON_MWF

    def test_parity_rejection(self):
        verdict = realizable_3braid(parse_poly("1*v^0*z^0 + 1*v^0*z^1"))
        assert not verdict.realizable and verdict.reason == REASON_PARITY

    def test_leading_class_rejection(self):
        verdict = realizable_3braid(parse_poly("3*v^0*z^2 + 1*v^0*z^0"))
        assert not verdict.realizable and verdict.reason == REASON_LEADING

    def test_search_rejection(self):
        # legal leading shape and span, but not a 3-braid polynomial
        p = homfly((1, 1, 1, 2)) + parse_poly("1*v^2*z^0")
        verdict = realizable_3braid(p)
        assert not verdict.realizable and verdict.reason == REASON_SEARCH

    def test_cap_is_inconclusive(self):
        p = parse_poly("1*v^0*z^40")
        with pytest.raises(CapExceededError):
            realizable_3braid(p, cap=10)


class TestPretzelCheck:
    def test_2222(self):
        rep = braid_index_check_pretzel(2, 2, 2, 2)
        assert rep.mwf_bound == 4
        assert rep.max_deg_v == 7 - rep.chi

    def test_rejects_small_twists(self):
        with pytest.raises(ValueError):
            braid_index_check_pretzel(1, 2, 2, 2)
