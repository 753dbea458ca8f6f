import pytest

from braid3 import knot_table
from braid3.enumeration import enumerate_minimal
from braid3.errors import TableFormatError
from braid3.hecke import homfly
from braid3.knot_table import (
    REFERENCE_WORDS,
    load_table,
    make_table,
    parse_table,
    render_table,
)
from braid3.laurent import mirror_image, parse_poly, render_poly


def test_parse_basic_lines():
    table = parse_table(["unknot,1,1*v^0*z^0", "# a comment", "", "hopf,2,1*v^1*z^-1"])
    assert table.names() == ["unknot", "hopf"]
    assert table.get("unknot") == parse_poly("1")


def test_match_prefers_first_and_sees_mirrors():
    table = make_table()
    assert table.match(parse_poly("1")) == "unknot"
    assert table.match(homfly((1, -2, 1, -2))) == "4_1"
    assert table.match(mirror_image(homfly((1, 1, 1, 2)))) == "3_1"
    assert table.match(parse_poly("7*v^0*z^0")) is None


def _match_by_scan(table, p):
    # the first entry equal to p or to its mirror image, by a linear scan
    q = mirror_image(p)
    return next((name for name, poly, _ in table.entries if poly in (p, q)), None)


def test_match_first_entry_wins_on_shared_polynomials():
    trefoil = homfly((1, 1, 1, 2))
    lines = [
        "first,1,1*v^0*z^0",
        "second,1,1*v^0*z^0",
        f"right,1,{render_poly(trefoil)}",
        f"left,1,{render_poly(mirror_image(trefoil))}",
    ]
    table = parse_table(lines)
    assert table.match(parse_poly("1")) == "first"
    assert table.match(trefoil) == "right"
    assert table.match(mirror_image(trefoil)) == "right"
    swapped = parse_table([lines[3], lines[2]])
    assert swapped.match(trefoil) == "left"
    assert swapped.match(mirror_image(trefoil)) == "left"
    assert table.match(parse_poly("7*v^0*z^0")) is None
    assert parse_table([]).match(trefoil) is None


def test_match_equals_linear_scan_on_census():
    table = make_table()
    for n in range(9):
        for entry in enumerate_minimal(n):
            assert table.match(entry.polynomial) == _match_by_scan(table, entry.polynomial)


def test_match_computes_no_mirror_per_query(monkeypatch):
    # the index holds each entry's mirror image, so after the first query
    # a match is one lookup
    table = make_table()
    table.match(parse_poly("1"))

    def no_mirror(p):
        raise AssertionError("match computed a mirror image")

    monkeypatch.setattr(knot_table, "mirror_image", no_mirror)
    polys = {entry.polynomial for n in range(10) for entry in enumerate_minimal(n)}
    for p in polys:
        assert table.match(p) == _match_by_scan(table, p)


def test_round_trip(tmp_path):
    table = make_table()
    path = tmp_path / "table.csv"
    path.write_text(render_table(table), encoding="utf-8")
    assert load_table(str(path)) == table


def test_az_convention():
    # a = v^{-1}: the trefoil entry in az variables loads to the morton one
    morton = parse_table(["3_1,1,2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2"])
    az = parse_table(["#convention: az", "3_1,1,2*v^-2*z^0 + -1*v^-4*z^0 + 1*v^-2*z^2"])
    assert morton.get("3_1") == az.get("3_1")


def test_byte_order_mark_before_convention_header(tmp_path):
    # editors such as Notepad save UTF-8 with a byte-order mark; the header
    # after it must still select the convention
    path = tmp_path / "az.csv"
    path.write_text(
        "#convention: az\n3_1,1,2*v^-2*z^0 + -1*v^-4*z^0 + 1*v^-2*z^2\n", encoding="utf-8-sig"
    )
    assert load_table(str(path)).get("3_1") == homfly((1, 1, 1, 2))


def test_byte_order_mark_before_first_record(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("unknot,1,1*v^0*z^0\n", encoding="utf-8-sig")
    assert load_table(str(path)).names() == ["unknot"]


def test_comments_and_blank_lines_before_convention_header():
    table = parse_table(["# az table", "", "#convention: az", "3_1,1,2*v^-2*z^0 + -1*v^-4*z^0 + 1*v^-2*z^2"])
    assert table.get("3_1") == homfly((1, 1, 1, 2))


def test_convention_after_record_rejected():
    # it would silently load the records after it in another convention
    with pytest.raises(TableFormatError, match=r"convention header.*\(line 2\)"):
        parse_table(["3_1,1,2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2", "#convention: az", "k,1,1"])


def test_second_convention_header_rejected():
    with pytest.raises(TableFormatError, match=r"convention header.*\(line 3\)"):
        parse_table(["#convention: morton", "# comment", "#convention: az", "k,1,1"])


def test_unknown_convention_rejected():
    with pytest.raises(TableFormatError):
        parse_table(["#convention: kauffman", "k,1,1"])


@pytest.mark.parametrize(
    "line,message",
    [
        ("justname", "expected"),
        ("dup,1,1", "duplicate"),
        ("k,x,1", "component"),
        ("k,0,1", "component"),
        ("k,1,1*v^*z^0", "polynomial"),
        ("k,1,0", "zero"),
        ("k,2,1*v^0*z^0", "components"),
    ],
)
def test_malformed_lines(line, message):
    with pytest.raises(TableFormatError) as exc:
        parse_table(["dup,1,1", line])
    assert message in str(exc.value)


def test_reference_entries_are_consistent():
    table = make_table()
    assert len(table.entries) == len(REFERENCE_WORDS)
    # every polynomial matches its own name first, except for honest ties
    for name, poly, components in table.entries:
        assert table.match(poly) is not None


def test_composite_entries_multiply():
    table = make_table()
    p31 = table.get("3_1")
    assert table.get("3_1#3_1") == p31 * p31
    assert table.get("3_1#-3_1") == p31 * mirror_image(p31)
