import contextlib
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braid3 import cli, enumeration, hecke, invariants
from braid3.cli import run
from braid3.errors import ConsistencyError
from braid3.hecke import homfly
from braid3.knot_table import load_table
from braid3.laurent import LaurentPoly2, parse_poly, render_poly
from braid3.words import parse_word, render_word


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_text(capsys):
    code, out, _ = run_cli(capsys, "reduce", "[1 -2 1 -2]")
    assert code == 0
    assert "kind: type-B" in out
    assert "minimal_length: 4" in out
    assert "chi: -1" in out
    assert "genus: 1" in out


@pytest.mark.parametrize(
    "word, genus",
    [
        ("[]", 0),
        ("[1]", 0),
        ("[1 1 1]", 1),
        ("[1 1 1 1]", 1),
        ("[3 3 3 3 3]", 2),
        ("[-1 -1 -1]", 1),
    ],
)
def test_reduce_genus_of_split_closures(capsys, word, genus):
    code, out, _ = run_cli(capsys, "--format", "structured", "reduce", word)
    assert code == 0
    assert json.loads(out)["genus"] == genus
    code, out, _ = run_cli(capsys, "--format", "structured", "invariants", word)
    assert code == 0
    assert json.loads(out)["genus"] == genus


def test_reduce_structured_parses_back(capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "reduce", "[1 -2 1 -2]")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal_length"] == 4
    assert parse_word(payload["minimal_word"]) == (-2, -1, 3, 3)


def test_homfly_unknot(capsys):
    code, out, _ = run_cli(capsys, "homfly", "[1 2]")
    assert code == 0
    assert out.strip() == "1*v^0*z^0"


def test_invariants_structured(capsys):
    code, out, _ = run_cli(capsys, "--format", "structured", "invariants", "[1 1 1 2]")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert parse_poly(payload["polynomial"]) == homfly((1, 1, 1, 2))


def test_torus_and_pretzel(capsys):
    code, out, _ = run_cli(capsys, "torus", "3")
    assert code == 0
    trefoil = out.strip()
    code, out, _ = run_cli(capsys, "pretzel", "1,2")
    assert code == 0
    assert out.strip() == trefoil


def test_module_runs_the_cli(capsys):
    # python -m braid3.cli is the CLI, not an import that exits 0 silently
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "braid3.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    done = module("torus", "3")
    assert (done.returncode, done.stdout) == (0, run_cli(capsys, "torus", "3")[1])
    done = module("torus", "x")
    assert done.returncode == 1
    assert done.stderr.startswith("error:")


def _console(*argv):
    """The CLI as its own process, stdout and stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "braid3.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


def test_closed_stdout_exits_141_silently():
    # a reader that stops early, as `| head -1` does, is normal use of a
    # command that writes its rows one at a time
    proc = _console("enumerate", "--max-bands", "10")
    assert proc.stdout.readline() == b"length,word,kind,components,chi,polynomial,name\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_interrupt_exits_130_with_one_line():
    # the 14-band census takes seconds to build and writes nothing before it is complete
    proc = _console("enumerate", "--max-bands", "14")
    time.sleep(0.5)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert b"Traceback" not in err
    assert (out, err) == (b"", b"interrupted\n")


def test_long_torus_and_pretzel_exit_zero(capsys):
    # each once recursed per crossing past the interpreter's depth limit
    for argv in (["torus", "3000"], ["torus", "-3000"], ["pretzel", "900,2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, argv
        assert err == ""
        assert parse_poly(out).max_deg_z() == (2999 if argv[0] == "torus" else 901)


def test_pretzel_odd_region_count_exits_one(capsys):
    code, out, err = run_cli(capsys, "pretzel", "3,3,3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "even number of twist regions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["homfly", "1^99999999999999999999"], "10000 letters"),
        (["reduce", "1^-99999999999999999999"], "10000 letters"),
        (["invariants", "[1 2 " + "3^5000 " * 2 + "]"], "10000 letters"),
        (["torus", "99999999999999999999999"], "10000"),
        (["torus", "-10001"], "10000"),
        (["pretzel", "99999999999999999999,2"], "10000"),
        (["pretzel", "2,10001"], "10000"),
        (["pretzel", ",".join(["1"] * 102)], "limit of 100"),
    ],
)
def test_inputs_over_a_limit_exit_one_before_expansion(capsys, monkeypatch, argv, limit):
    def no_expansion(n):
        raise AssertionError("twist expansion started")

    monkeypatch.setattr(hecke, "_twist", no_expansion)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "exceed" in err and limit in err
    assert "Traceback" not in err


@pytest.mark.parametrize("twists", ["2,,2", "2,2,", ",2,2", "2, ,2"])
def test_pretzel_empty_twist_field_exits_one(capsys, twists):
    code, out, err = run_cli(capsys, "pretzel", twists)
    assert code == 1
    assert out == ""
    assert err.startswith("error: pretzel: empty twist count")


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-bands", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length,word,kind,components,chi,polynomial,name"
    assert len(lines) == 1 + 1 + 2 + 6


def test_enumerate_genus_with_table(capsys, tmp_path):
    table_path = tmp_path / "ref.csv"
    code, _, _ = run_cli(capsys, "make-table", "-o", str(table_path))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "enumerate", "--genus", "1", "--table", str(table_path)
    )
    assert code == 0
    assert "5_2" in out and "4_1" in out and "3_1" in out


@pytest.mark.parametrize(
    "argv",
    [["--max-bands", "7"], ["--genus", "2"]],
    ids=["max-bands-7", "genus-2"],
)
def test_census_rows_equal_a_per_row_recomputation(capsys, tmp_path, argv):
    # each distinct polynomial is rendered and matched once per command;
    # every row must still read as if computed on its own
    table_path = tmp_path / "ref.csv"
    assert run_cli(capsys, "make-table", "-o", str(table_path))[0] == 0
    table = load_table(str(table_path))
    code, out, err = run_cli(
        capsys, "--format", "structured", "enumerate", *argv, "--table", str(table_path)
    )
    assert code == 0, err
    rows = json.loads(out)
    assert rows and any(row["name"] for row in rows)
    for row in rows:
        poly = homfly(parse_word(row["word"]))
        assert row["polynomial"] == render_poly(poly), row
        assert row["name"] == (table.match(poly) or ""), row


@pytest.fixture
def escaped_table(capsys, tmp_path):
    """A make-table table whose 3_1, 4_1 and 5_1 names need JSON escaping."""
    path = tmp_path / "escaped.csv"
    assert run_cli(capsys, "make-table", "-o", str(path))[0] == 0
    text = path.read_text(encoding="utf-8")
    text = text.replace("\n3_1,", '\ntre"foil,').replace("\n4_1,", "\nnœud-é,")
    text = text.replace("\n5_1,", '\n"cinq\\é",')
    path.write_text(text, encoding="utf-8")
    return str(path)


def _census_the_old_way(option, value, table, fmt):
    """Every row dict first, then one json.dumps of all rows or the CSV lines."""
    if option == "--genus":
        entries = enumeration.genus_census(value)
    else:
        entries = [e for n in range(value + 1) for e in enumeration.enumerate_minimal(n, cap=value)]
    rows = [
        {
            "length": e.length,
            "word": render_word(e.word),
            "kind": e.kind,
            "components": e.components,
            "chi": e.chi,
            "polynomial": render_poly(e.polynomial),
            "name": table.match(e.polynomial) or "",
        }
        for e in entries
    ]
    if fmt == "structured":
        return json.dumps(rows, sort_keys=True) + "\n"
    lines = ["length,word,kind,components,chi,polynomial,name"] + [
        f"{r['length']},\"{r['word']}\",{r['kind']},{r['components']},"
        f"{r['chi']},\"{r['polynomial']}\",{r['name']}"
        for r in rows
    ]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize(
    "option, value",
    [("--max-bands", n) for n in (*range(8), 9)] + [("--genus", g) for g in range(3)],
)
def test_census_output_equals_one_dump_of_all_rows(capsys, escaped_table, option, value, fmt):
    code, out, err = run_cli(
        capsys, "--format", fmt, "enumerate", option, str(value), "--table", escaped_table
    )
    assert (code, err) == (0, "")
    assert out == _census_the_old_way(option, value, load_table(escaped_table), fmt)
    # trefoil and figure-eight are the genus-1 knots, of 4 bands
    if fmt == "structured" and value == (4 if option == "--max-bands" else 1):
        assert '"tre\\"foil"' in out and '"n\\u0153ud-\\u00e9"' in out
    # the (2,5) torus knot has genus 2, at 6 bands
    if fmt == "structured" and value == (9 if option == "--max-bands" else 2):
        assert '"\\"cinq\\\\\\u00e9\\""' in out


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "438d9046fb712387a74c9a05c944a93cfb7ed4fd460839dc05de2cf3a15498b5"),
        ("structured", "e2e0b3e915a29d1ac06956f7dc6636e481a87b7a3ee6f1496b9f8124b5a7b1a4"),
    ],
    ids=["text", "structured"],
)
def test_ten_band_census_output_is_pinned(capsys, fmt, digest):
    # taken when every orbit was evaluated by its own Burau product;
    # evaluating one orbit per inverse pair and mirroring the other must not
    # change a byte
    code, out, _ = run_cli(capsys, "--format", fmt, "enumerate", "--max-bands", "10")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "a4c782a57db359fdd3870fba8093ee71480d31cf84caee7d33463bb825386f12"),
        ("structured", "bd3b6e6b6eeb08e76f943622dc1ce5d305c6ef240c3043a68cf424940d260b82"),
    ],
    ids=["text", "structured"],
)
def test_twelve_band_census_output_is_pinned(capsys, fmt, digest):
    # taken when every key came from the rotation search and every trace
    # from a dense Burau product; keys read off the negative block, packed
    # traces and component counts read from the polynomial must not change a byte
    code, out, _ = run_cli(capsys, "--format", fmt, "enumerate", "--max-bands", "12")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "adc173756dbe1517a3e4b31e464b6a65ad8f177343483bbab8c8623bd32d98b7"),
        ("structured", "13a6bc450c6623f495549fa1a7a22b51415c2ef44f9ed53b46e29de79f887a19"),
    ],
    ids=["text", "structured"],
)
def test_genus_four_census_output_is_pinned(capsys, fmt, digest):
    # the 2,662 knot rows of 10 bands, taken when --genus walked each row's
    # permutation; keeping the rows by one read of each polynomial must not change a byte
    code, out, _ = run_cli(capsys, "--format", fmt, "enumerate", "--genus", "4")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "command, alphabet, letters, digest",
    [
        ("reduce", (1, 2, 3, -1, -2, -3), 500, "fa166bbf3587b075ad22c55896c90461816bd77607fe330bc7f780a5e4c5ee49"),
        ("reduce", (1, 2, 3, -1, -2, -3), 2000, "528e566d33de0439502de98e6a41a398af22c94706286b0dc6e410dd9a7d3946"),
        ("invariants", (1, 2, 3, -1, -2, -3), 400, "6a02f28d6097182e6e5e8aeaa4fe54139585015de4a8b4d6f1904b23b68b71cc"),
        ("invariants", (1, 2, 3), 120, "4f5ec1da1e5b90039243f5fcb7706fadcc54ece79351297262d4f32b5f2e42b8"),
    ],
    ids=["reduce-mixed-500", "reduce-mixed-2000", "invariants-mixed-400", "invariants-positive-120"],
)
def test_long_word_output_is_pinned(capsys, command, alphabet, letters, digest):
    # taken while each reduce ran three quadratic Xu reductions and the
    # invariants came from several evaluations; a linear reduction run once,
    # or every invariant read from one Burau trace, must not change a byte
    rng = random.Random(letters)
    word = render_word(tuple(rng.choice(alphabet) for _ in range(letters)))
    code, out, _ = run_cli(capsys, "--format", "structured", command, word)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_census_component_count_disagreeing_with_the_permutation_exits_two(capsys, monkeypatch):
    # the count is read from the polynomial's lowest z-degree and checked
    # once per polynomial against its first row's permutation: [], of 3
    # components, passes, and [-3], the first row of length 1, does not
    monkeypatch.setattr(enumeration, "closure_components", lambda word: 3)
    code, out, err = run_cli(capsys, "enumerate", "--max-bands", "2")
    assert (code, out) == (2, "")
    assert err == "internal error: the polynomial of [-3] shows 2 components, its permutation 3\n"


class _CountingSink:
    """A stdout that discards its text and keeps the length of the longest write."""

    def __init__(self):
        self.longest = self.total = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        self.total += len(text)
        return len(text)

    def flush(self):
        pass


def test_census_rows_are_written_one_at_a_time():
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        code = run(["--format", "structured", "enumerate", "--max-bands", "9"])
    assert code == 0
    # 893,170 characters in all, which one json.dumps of every row would write in one call
    assert sink.total == 893_170
    assert sink.longest <= 4096


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_engine_failure_part_way_leaves_stdout_empty(capsys, monkeypatch, fmt):
    # lengths 0..4 succeed; the census fails at length 5, before any row is written
    of = enumeration._Skeins.of

    def failing_at_five(skeins, word, e):
        if len(word) == 5:
            raise ConsistencyError("injected failure at length 5")
        return of(skeins, word, e)

    monkeypatch.setattr(enumeration._Skeins, "of", failing_at_five)
    code, out, err = run_cli(capsys, "--format", fmt, "enumerate", "--max-bands", "7")
    assert (code, out) == (2, "")
    assert err == "internal error: injected failure at length 5\n"


@pytest.mark.parametrize("poly", ["1*v^-10*z^-4", "1*v^-3*z^-3"])
def test_check_poly_below_the_empty_word_breaks_law_8(capsys, poly):
    # max deg_z P < -2 would need chi > 3: no search, and not the search's reason
    code, out, _ = run_cli(capsys, "check-poly", "--poly", poly)
    assert (code, out) == (0, "not realizable (euler-characteristic-exceeds-3)\n")
    code, out, _ = run_cli(capsys, "--format", "structured", "check-poly", "--poly", poly)
    assert code == 0
    assert json.loads(out) == {
        "matched_name": None,
        "realizable": False,
        "reason": "euler-characteristic-exceeds-3",
        "witness": None,
    }


def test_check_poly_prints_the_empty_witness(capsys):
    # the 3-component unlink closes the empty word, whose witness is []
    unlink = "1*v^-2*z^-2 + -2*v^0*z^-2 + 1*v^2*z^-2"
    code, out, _ = run_cli(capsys, "check-poly", "--poly", unlink)
    assert (code, out) == (0, "realizable\nwitness: []\n")
    code, out, _ = run_cli(capsys, "--format", "structured", "check-poly", "--poly", unlink)
    assert code == 0
    payload = json.loads(out)
    assert payload["realizable"] is True and payload["witness"] == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-bands", "2", "--table", ""],
        ["check-poly", "--poly", "1*v^0*z^0", "--table", ""],
        ["make-table", "-o", ""],
    ],
    ids=["enumerate-table", "check-poly-table", "make-table-output"],
)
def test_empty_file_path_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "''" in err


def test_check_poly_realizable(capsys):
    code, out, _ = run_cli(capsys, "check-poly", "--poly", "1*v^0*z^0")
    assert code == 0
    assert "realizable" in out
    assert "witness" in out


def test_check_poly_not_realizable(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "structured", "check-poly", "--poly", "1*v^0*z^0 + 1*v^8*z^0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["realizable"] is False
    assert payload["reason"] == "mwf-span-exceeds-3"


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize(
    "argv, reason",
    [
        # bottom v-degree 20 > 1 - chi = 12
        (["--poly", "1*v^20*z^12"], "bottom-v-degree"),
        # 18 bands are within the cap, but no search is needed
        (["--poly", "1*v^20*z^16", "--max-bands", "16"], "bottom-v-degree"),
        # -(1 + v^2) on even z-degrees, an odd component count
        (["--poly", "-1*v^0*z^12 + -1*v^2*z^12"], "leading-coefficient-components"),
        # (1 - v^2)^2 at chi = 1, not the 3-component unlink's chi = 3
        (["--poly", "1*v^0*z^0 + -2*v^2*z^0 + 1*v^4*z^0"], "leading-coefficient-components"),
    ],
    ids=["bottom-v", "bottom-v-beyond-census", "minus-one-plus-v2", "unlink-square"],
)
def test_check_poly_law_rejections_need_no_census(capsys, monkeypatch, fmt, argv, reason):
    def no_generation(length):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "generate_normal_forms", no_generation)
    code, out, err = run_cli(capsys, "--format", fmt, "check-poly", *argv)
    assert (code, err) == (0, "")
    if fmt == "text":
        assert out == f"not realizable ({reason})\n"
    else:
        assert json.loads(out) == {"realizable": False, "reason": reason, "witness": None, "matched_name": None}


def test_check_poly_reads_a_table_saved_with_a_byte_order_mark(capsys, tmp_path):
    # make-table output starts with "#convention: morton"
    path = tmp_path / "bom.csv"
    assert run_cli(capsys, "make-table", "-o", str(path))[0] == 0
    path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    code, out, err = run_cli(capsys, "check-poly", "--poly", "1*v^0*z^0", "--table", str(path))
    assert (code, err) == (0, "")
    assert "matched name: unknot" in out


def test_make_table_writes_the_table_format_in_either_format(capsys):
    # make-table writes the file that --table reads, not a JSON record
    text = run_cli(capsys, "make-table")
    structured = run_cli(capsys, "--format", "structured", "make-table")
    assert text == structured
    assert text[0] == 0 and text[1].startswith("#convention: morton")


def test_make_table_round_trip(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "make-table", "-o", str(path))
    assert code == 0
    from braid3.knot_table import load_table, make_table

    assert load_table(str(path)) == make_table()


def test_broken_law_exits_two(capsys, monkeypatch):
    # a wrong polynomial breaks max deg_z = 1 - chi: a bug, not bad input
    monkeypatch.setattr(invariants, "homfly", lambda word: LaurentPoly2.one())
    code, out, err = run_cli(capsys, "invariants", "[1 1 1 2]")
    assert code == 2
    assert out == ""
    assert err.startswith("internal error:") and err.endswith(" for [1 1 1 2]\n")


def test_corrupted_trace_exits_two(capsys, monkeypatch):
    # one wrong Burau trace coefficient leaves a remainder in the exact
    # division of the trace formula: a bug, not bad input
    trace = hecke._trace

    def corrupted(*matrix):
        lo, coeffs = trace(*matrix)
        return lo, (coeffs[0] + 1,) + coeffs[1:]

    # the census decodes its own packed traces: add 1 to the lowest digit
    packed = enumeration._Skeins.trace

    def corrupted_packed(skeins, word):
        lo, x = packed(skeins, word)
        return lo, x + 1

    monkeypatch.setattr(hecke, "_trace", corrupted)
    monkeypatch.setattr(enumeration._Skeins, "trace", corrupted_packed)
    # the error names the input word; the census names its first orbit, [].
    for argv, word in (
        (["homfly", "[1 1 1 2]"], "[1 1 1 2]"),
        (["invariants", "[1 -2]"], "[1 -2]"),
        (["enumerate", "--max-bands", "3"], "[]"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("internal error:")
        assert err.rstrip("\n").endswith(f" for {word}"), err


@pytest.mark.parametrize("command", ["enumerate", "check-poly"])
@pytest.mark.parametrize("bands", ["17", "-1"])
def test_max_bands_outside_ceiling_exits_one(capsys, monkeypatch, command, bands):
    def no_generation(length):
        raise AssertionError("generation started")

    monkeypatch.setattr(enumeration, "generate_normal_forms", no_generation)
    argv = [command, "--max-bands", bands]
    if command == "check-poly":
        argv += ["--poly", "1*v^0*z^0"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {command}: --max-bands") and "16" in err and bands in err
    assert "Traceback" not in err


def test_max_bands_at_ceiling_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "check-poly", "--max-bands", "16", "--poly", "1*v^0*z^0")
    assert code == 0
    assert out.startswith("realizable")
    code, out, _ = run_cli(capsys, "enumerate", "--max-bands", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_max_bands_caps_genus_census(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--genus", "4", "--max-bands", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "cap 3" in err


@pytest.mark.parametrize(
    "genus, bands, message",
    [
        (7, "10", "length 16 exceeds the enumeration cap 10; raise --max-bands"),
        # 18 bands are past every --max-bands, so there is no advice to raise it
        (8, "16", "length 18 exceeds the enumeration cap 16 and the ceiling 16 of --max-bands"),
    ],
    ids=["within-ceiling", "beyond-ceiling"],
)
@pytest.mark.parametrize("command", ["enumerate", "check-poly"])
def test_cap_message_advises_raising_the_cap_only_within_the_ceiling(capsys, command, genus, bands, message):
    # genus g needs 2g + 2 bands, and so does a polynomial of top z-degree 2g
    needs = ["--genus", str(genus)] if command == "enumerate" else ["--poly", f"1*v^0*z^{2 * genus}"]
    code, out, err = run_cli(capsys, command, *needs, "--max-bands", bands)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--table", "{tmp}/missing.csv"],
        ["check-poly", "--poly", "1", "--table", "{tmp}"],
        ["make-table", "-o", "{tmp}/no-such-dir/x.csv"],
    ],
    ids=["missing-table", "table-is-a-directory", "unwritable-output"],
)
def test_file_errors_exit_one(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["torus", "x"], 1),
        (["pretzel", "-1,2"], 1),
        (["enumerate", "--max-bands", "x"], 1),
        (["no-such-command"], 1),
        (["--help"], 0),
    ],
    ids=["torus-not-an-int", "pretzel-read-as-option", "max-bands-not-an-int", "unknown-command", "help"],
)
def test_usage_errors_exit_one(capsys, argv, code):
    # exit 2 is kept for broken internal identities; --help still exits 0
    try:
        got = run(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert "Traceback" not in err
    if code == 0:
        assert out.startswith("usage: braid3") and err == ""
    else:
        assert out == ""
        assert err.startswith("error: braid3") and err.count("\n") == 1 and "usage:" not in err


def test_bad_word_exits_one(capsys):
    code, _, err = run_cli(capsys, "reduce", "[1 0]")
    assert code == 1
    assert "error" in err


def test_bad_poly_exits_one(capsys):
    code, _, err = run_cli(capsys, "check-poly", "--poly", "v^2")
    assert code == 1


def test_inconclusive_cap_exits_one(capsys):
    code, _, err = run_cli(capsys, "check-poly", "--max-bands", "6", "--poly", "1*v^0*z^40")
    assert code == 1
    assert "cap" in err


def test_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "enumerate", "--max-bands", "4")
    code2, out2, _ = run_cli(capsys, "enumerate", "--max-bands", "4")
    assert code1 == code2 == 0
    assert out1 == out2


# Argv fuzz: short words with malformed tokens, polynomial texts, twist
# lists and --max-bands in -1..7, so that every call stays fast.
_word_token = st.sampled_from(
    ["1", "2", "3", "-1", "-2", "-3", "1^3", "2^-2", "-3^2", "3^0", "0", "4", "x", "1^", "^2", "[", "]", ","]
)
_word_text = st.builds(
    lambda tokens, brackets: f"[{' '.join(tokens)}]" if brackets else " ".join(tokens),
    st.lists(_word_token, max_size=8),
    st.booleans(),
)
_poly_term = st.builds(
    lambda c, dv, dz: f"{c}*v^{dv}*z^{dz}", st.integers(-3, 3), st.integers(-4, 4), st.integers(-2, 6)
)
_poly_text = st.one_of(
    st.lists(_poly_term, min_size=1, max_size=4).map(" + ".join),
    st.sampled_from(["0", "1", "", "v^2", "1*v^2", "2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2", "1 +", "+"]),
)
_twist_field = st.one_of(
    st.integers(-2, 12).map(str), st.sampled_from(["", "x", " 3", "1e3", "99999999999999999999"])
)
_max_bands = st.integers(-1, 7).map(str)
_argv_tail = st.one_of(
    st.tuples(st.sampled_from(["reduce", "homfly", "invariants"]), _word_text).map(list),
    st.builds(
        lambda n, genus, table: ["enumerate", "--max-bands", n]
        + ([] if genus is None else ["--genus", str(genus)])
        + ([] if table is None else ["--table", table]),
        _max_bands,
        st.none() | st.integers(-1, 4),
        st.none() | st.just("no-such-dir/table.txt"),
    ),
    st.builds(lambda p, n: ["check-poly", "--poly", p, "--max-bands", n], _poly_text, _max_bands),
    st.one_of(st.integers(-30, 30).map(str), st.sampled_from(["x", "", "1.5", "99999999999999999999999"])).map(
        lambda k: ["torus", k]
    ),
    st.lists(_twist_field, max_size=5).map(lambda fields: ["pretzel", ",".join(fields)]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["text", "structured"]), _argv_tail)
def test_fuzzed_argv_exits_zero_or_one(fmt, tail):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--format", fmt, *tail])
    assert code in (0, 1), (tail, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
