"""Command-line front end.

Exit codes: 0 on success, 1 on bad input, a file that cannot be read or
written, or an inconclusive enumeration, 2 when an internal identity fails
(a bug, not an input problem).  From the console, 130 on an interrupt and
141 when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import enumeration, invariants, knot_table, xu
from .errors import ConsistencyError
from .hecke import homfly, pretzel_homfly, torus_homfly
from .invariants import CoeffClass
from .laurent import LaurentPoly1, LaurentPoly2, parse_poly, render_poly
from .limits import MAX_BANDS_CEILING
from .words import parse_word, render_word


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is bad input (exit 1), not argparse's exit 2
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braid3",
        description="Exact invariants of closed 3-braids in the band presentation.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="human-readable text or JSON records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="minimal band word, Euler characteristic, genus")
    p.add_argument("word")

    p = sub.add_parser("homfly", help="skein polynomial of a closed braid word")
    p.add_argument("word")

    p = sub.add_parser("invariants", help="full invariant report for a word")
    p.add_argument("word")

    p = sub.add_parser("enumerate", help="minimal-word census up to a band count")
    p.add_argument("--max-bands", type=int, default=enumeration.DEFAULT_MAX_BANDS)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--table", default=None)

    p = sub.add_parser("check-poly", help="decide 3-braid realizability of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--table", default=None)
    p.add_argument("--max-bands", type=int, default=enumeration.DEFAULT_MAX_BANDS)

    p = sub.add_parser("torus", help="skein polynomial of the (2,k) torus link")
    p.add_argument("k", type=int)

    p = sub.add_parser("pretzel", help="skein polynomial of a parallel pretzel link")
    p.add_argument("twists", help="an even number of comma-separated non-negative twist counts")

    p = sub.add_parser("make-table", help="write a reference table from braid words")
    p.add_argument("-o", "--output", default=None)

    return parser


# one encoder for every record, built once: a dumps call with options builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(args, payload: dict, lines: list[str] | None = None) -> None:
    """One record: a JSON object, or text lines (``key: value`` unless given)."""
    if args.format == "structured":
        print(_ENCODER.encode(payload))
    else:
        for line in lines if lines is not None else (f"{k}: {v}" for k, v in payload.items()):
            print(line)


_CSV_HEADER = "length,word,kind,components,chi,polynomial,name\n"


def _census_cell(entry, table, structured: bool) -> tuple[int, str]:
    """The component count and the encoded polynomial and table name of a row's polynomial."""
    p = entry.polynomial
    text = render_poly(p)
    name = (table.match(p) if table is not None else None) or ""
    if structured:
        return entry.components, f'"name": {_ENCODER.encode(name)}, "polynomial": {_ENCODER.encode(text)}'
    return entry.components, f'"{text}",{name}'


def _write_census(entries, table, structured: bool) -> None:
    """Write census rows one at a time: CSV lines, or one JSON array framed as
    the encoder frames a list (``[``, rows joined by ``, ``, ``]``).

    A row is a fixed template, its JSON fields in ``sort_keys`` order.  The
    component count and the encoded polynomial and table name are made once
    per distinct polynomial; kinds and rendered words need no JSON escapes.
    """
    # by id: the census shares one object per distinct polynomial
    cells: dict[int, tuple[int, str]] = {}
    out = sys.stdout
    out.write("[" if structured else _CSV_HEADER)
    separator = ""
    for e in entries:
        cell = cells.get(id(e.polynomial))
        if cell is None:
            cell = cells[id(e.polynomial)] = _census_cell(e, table, structured)
        components, poly_cell = cell
        n = len(e.word)
        word = render_word(e.word)
        if structured:
            out.write(
                f'{separator}{{"chi": {3 - n}, "components": {components}, "kind": "{e.kind}", '
                f'"length": {n}, {poly_cell}, "word": "{word}"}}'
            )
            separator = ", "
        else:
            out.write(f'{n},"{word}",{e.kind},{components},{3 - n},{poly_cell}\n')
    if structured:
        out.write("]\n")


def _plain(value):
    """A report field as JSON-ready data: words, polynomials and classes as text."""
    if isinstance(value, tuple):
        return render_word(value)
    if isinstance(value, LaurentPoly2):
        return render_poly(value)
    if isinstance(value, LaurentPoly1):
        return value.render()
    if isinstance(value, CoeffClass):
        return str(value)
    return value


def _reduce_payload(word) -> dict:
    nf = xu.reduce(word)
    return {
        "kind": nf.kind,
        "L": render_word(nf.L),
        "k": nf.k,
        "R": render_word(nf.R),
        "minimal_word": render_word(nf.minimal_word),
        "minimal_length": nf.minimal_length,
        "chi": nf.chi,
        "genus": xu.genus(word),
        "quasipositive": xu.is_strongly_quasipositive(word),
    }


def _max_bands(args) -> int:
    """``--max-bands``, refused outside 0..MAX_BANDS_CEILING before any generation."""
    n = args.max_bands
    if not 0 <= n <= MAX_BANDS_CEILING:
        raise ValueError(
            f"{args.command}: --max-bands must be between 0 and {MAX_BANDS_CEILING}, got {n}"
        )
    return n


def _run(args) -> None:
    if args.command == "reduce":
        _emit(args, _reduce_payload(parse_word(args.word)))

    elif args.command == "invariants":
        rep = invariants.report(parse_word(args.word))
        _emit(args, {f.name: _plain(getattr(rep, f.name)) for f in dataclasses.fields(rep)})

    elif args.command in ("homfly", "torus", "pretzel"):
        if args.command == "homfly":
            p = homfly(parse_word(args.word))
        elif args.command == "torus":
            p = torus_homfly(args.k)
        else:
            fields = args.twists.split(",")
            if not all(f.strip() for f in fields):
                raise ValueError(f"pretzel: empty twist count in {args.twists!r}")
            p = pretzel_homfly([int(f) for f in fields])
        text = render_poly(p)
        _emit(args, {"polynomial": text}, [text])

    elif args.command == "enumerate":
        cap = _max_bands(args)
        table = knot_table.load_table(args.table) if args.table is not None else None
        if args.genus is not None:
            entries = enumeration.genus_census(args.genus, cap=cap)
        else:
            entries = [e for n in range(cap + 1) for e in enumeration.enumerate_minimal(n, cap=cap)]
        # the census is complete before the first byte, so a failure leaves stdout empty
        _write_census(entries, table, args.format == "structured")

    elif args.command == "check-poly":
        cap = _max_bands(args)
        p = parse_poly(args.poly)
        table = knot_table.load_table(args.table) if args.table is not None else None
        verdict = enumeration.realizable_3braid(p, cap=cap)
        name = table.match(p) if table is not None else None
        payload = {
            "realizable": verdict.realizable,
            "reason": verdict.reason,
            # the 3-component unlink's witness is the empty word, so compare with None
            "witness": render_word(verdict.witness) if verdict.witness is not None else None,
            "matched_name": name,
        }
        lines = ["realizable" if verdict.realizable else f"not realizable ({verdict.reason})"]
        if payload["witness"] is not None:
            lines.append(f"witness: {payload['witness']}")
        if name is not None:
            lines.append(f"matched name: {name}")
        _emit(args, payload, lines)

    elif args.command == "make-table":
        content = knot_table.render_table(knot_table.make_table())
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(content)
        else:
            sys.stdout.write(content)

    else:
        raise AssertionError("unreachable")


def run(argv) -> int:
    try:
        _run(_build_parser().parse_args(argv))
        return 0
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # a closed stdout is the caller's to handle, not bad input
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early: send the rest of the output to devnull,
        # so that the flush at exit does not raise again, and exit as a tool
        # killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    main()
