"""Every bound on the size of an input, in one place.

The limits are fixed: no option or environment variable changes them.  An
input over a limit raises ``ValueError`` (CLI exit 1) with a message naming
the limit, before anything is built from it.  This module imports nothing,
so every module of the package can import it.
"""

# Letters of one word, counted after ``g^k`` powers are expanded.
MAX_WORD_LETTERS = 10_000
# Crossings in one twist region of ``torus`` and ``pretzel``: as many as in
# the longest word s1^k.
MAX_TWISTS = MAX_WORD_LETTERS
# Twist regions of one pretzel.
MAX_REGIONS = 100
# The largest --max-bands: the census doubles with each band, and 16 bands
# is about 400k orbits.
MAX_BANDS_CEILING = 16
