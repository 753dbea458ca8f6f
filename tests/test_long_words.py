"""Relations of the skein polynomial and the Xu length on words of 2,000 letters.

Each relation holds for every closed 3-braid, so it checks ``homfly`` and
``xu.reduce`` at lengths where no slow oracle runs:

- conjugation: the closure of c w c^-1 is the closure of w, so P agrees,
  and Xu's minimal band length, a conjugacy invariant (Xu 1992), agrees too;
- inverse and mirror: the closure of w^-1 is the mirror image of the
  closure of w with every orientation reversed, which leaves P unchanged,
  so P(w^-1) = P(mirror w) = P(w)(-v^-1, z) (Lickorish-Millett);
- degree: max deg_z P = 1 - chi of the closure, and chi = 3 - Xu length
  (Stoimenow, The skein polynomial of closed 3-braids).

The words: a seeded mixed word and a seeded alternating word of 2,000
letters, and [1]^500 [-2]^500, step (i)'s worst case.  To keep the file
within about 5 s, m is 500 (at m = 1,000 one reduction alone takes about
1.6 s) and the alternating word, whose ``homfly`` costs about 1 s and
``xu.reduce`` 0.5 s, gets the degree relation only.  Each word's P and Xu
length are computed once.
"""

import functools
import random

import pytest

from braid3 import xu
from braid3.hecke import homfly
from braid3.laurent import mirror_image
from braid3.words import inverse, mirror
from word_helpers import alternating_word


def _mixed(seed: int, letters: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(letters))


WORDS = {
    "mixed": _mixed(7, 2000),
    "alternating": alternating_word(random.Random(1), 2000)[:2000],
    "1^500 -2^500": (1,) * 500 + (-2,) * 500,
}
# the alternating word gets the degree relation only
EVERY_RELATION = ("mixed", "1^500 -2^500")
CONJUGATOR = _mixed(29, 12)


@functools.cache
def skein(name):
    return homfly(WORDS[name])


@functools.cache
def xu_length(name):
    return xu.reduce(WORDS[name]).minimal_length


@pytest.mark.parametrize("name", EVERY_RELATION)
def test_conjugation_keeps_p_and_the_xu_length(name):
    conjugate = CONJUGATOR + WORDS[name] + inverse(CONJUGATOR)
    assert homfly(conjugate) == skein(name)
    assert xu.reduce(conjugate).minimal_length == xu_length(name)


@pytest.mark.parametrize("name", EVERY_RELATION)
def test_inverse_and_mirror_have_the_mirror_polynomial(name):
    expected = mirror_image(skein(name))
    assert homfly(inverse(WORDS[name])) == expected
    assert homfly(mirror(WORDS[name])) == expected


@pytest.mark.parametrize("name", WORDS)
def test_top_z_degree_is_the_xu_length_less_two(name):
    assert skein(name).max_deg_z() == xu_length(name) - 2
