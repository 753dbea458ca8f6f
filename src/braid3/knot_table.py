"""Reference tables of named skein polynomials.

A table is a CSV file with records ``name,components,polynomial`` in the
shared polynomial grammar, ``#`` comment lines, and an optional convention
header as its first directive line (a later one is rejected, since it would
switch the convention for the records after it):

    #convention: morton     (default; the convention used throughout)
    #convention: az         (skein  a P(L+) - a^{-1} P(L-) = z P(L0);
                             loaded by substituting a = v^{-1})

Unknown conventions are rejected rather than guessed.  No polynomial value
is baked into the package: the bundled generator computes every entry from
a braid word, so a table for 3-braid-realizable names can always be rebuilt
from scratch, while entries for links that are not closed 3-braids (the
interesting realizability queries) must be supplied externally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import TableFormatError
from .hecke import homfly
from .invariants import z_parity_law
from .laurent import LaurentPoly2, mirror_image, parse_poly, render_poly
from .words import closure_components, parse_word

_CONVENTIONS = ("morton", "az")


@dataclass(frozen=True)
class KnotTable:
    entries: tuple[tuple[str, LaurentPoly2, int], ...]

    def names(self) -> list[str]:
        return [name for name, _, _ in self.entries]

    def get(self, name: str) -> LaurentPoly2 | None:
        for n, p, _ in self.entries:
            if n == name:
                return p
        return None

    @cached_property
    def _first_by_polynomial(self) -> dict[LaurentPoly2, str]:
        # each entry under its polynomial and its mirror image; the first entry is written last, so it wins
        return {q: name for name, poly, _ in reversed(self.entries) for q in (poly, mirror_image(poly))}

    def match(self, p: LaurentPoly2) -> str | None:
        """First name whose polynomial equals p or its mirror image."""
        return self._first_by_polynomial.get(p)


def _apply_convention(p: LaurentPoly2, convention: str) -> LaurentPoly2:
    if convention == "morton":
        return p
    # az: the variable a plays the role of v^{-1}.
    return LaurentPoly2({(-dv, dz): c for (dv, dz), c in p.terms_dict().items()})


def load_table(path: str) -> KnotTable:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_table(fh.read().splitlines())


def parse_table(lines: Iterable[str]) -> KnotTable:
    convention = None
    entries: list[tuple[str, LaurentPoly2, int]] = []
    names: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.lower().startswith("convention:"):
                if convention is not None or entries:
                    raise TableFormatError("convention header after a record or another header", lineno)
                convention = directive.split(":", 1)[1].strip().lower()
                if convention not in _CONVENTIONS:
                    raise TableFormatError(f"unknown convention {convention!r}", lineno)
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise TableFormatError("expected name,components,polynomial", lineno)
        name = parts[0].strip()
        if not name:
            raise TableFormatError("empty name", lineno)
        if name in names:
            raise TableFormatError(f"duplicate name {name!r}", lineno)
        try:
            components = int(parts[1])
        except ValueError:
            raise TableFormatError(f"bad component count {parts[1]!r}", lineno) from None
        if components < 1:
            raise TableFormatError(f"bad component count {components}", lineno)
        try:
            poly = _apply_convention(parse_poly(parts[2]), convention or "morton")
        except ValueError as exc:
            raise TableFormatError(f"bad polynomial: {exc}", lineno) from None
        if poly.is_zero:
            raise TableFormatError("zero polynomial", lineno)
        # the one law of 3-braid closures that every link obeys
        if (parity := z_parity_law(poly, components)) is not None:
            raise TableFormatError(parity, lineno)
        names.add(name)
        entries.append((name, poly, components))
    return KnotTable(tuple(entries))


def render_table(table: KnotTable) -> str:
    lines = ["#convention: morton"]
    for name, poly, components in table.entries:
        lines.append(f"{name},{components},{render_poly(poly)}")
    return "\n".join(lines) + "\n"


# Braid words for named links, taken from standard tables; every polynomial
# below is computed from its word, never stored.  Entries whose naming is
# pinned down computationally (censuses plus classical determinants) carry
# their derivation in the test suite.
REFERENCE_WORDS: tuple[tuple[str, str], ...] = (
    ("unknot", "[1 2]"),
    ("hopf+", "[1 1 2]"),
    ("3_1", "[1 1 1 2]"),
    ("4_1", "[1 -2 1 -2]"),
    ("5_1", "[1^5 2]"),
    ("5_2", "[1 2 3 3]"),
    ("6_2", "[1 1 1 -2 1 -2]"),
    ("6_3", "[1 1 -2 -2 1 -2]"),
    ("7_1", "[1^7 2]"),
    ("7_3", "[1 2 2 2 2 3]"),
    ("7_5", "[1 2 2 2 3 3]"),
    ("8_20", "[1 1 1 -2 -1 -1 -1 -2]"),
    ("8_21", "[-3 -3 -2 -2 -1 2]"),
    ("3_1#3_1", "[1 1 1 2 2 2]"),
    ("3_1#-3_1", "[1 1 1 -2 -2 -2]"),
)


def make_table() -> KnotTable:
    """Build a table by computing the polynomial of each named braid word."""
    entries = []
    for name, text in REFERENCE_WORDS:
        word = parse_word(text)
        entries.append((name, homfly(word), closure_components(word)))
    return KnotTable(tuple(entries))
