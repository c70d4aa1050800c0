from fractions import Fraction

import pytest

from hqcount.report import (CountReport, parse_number, parse_reports,
                            render_number, report_serialize)


def test_render_and_parse_number():
    assert render_number(None) is None
    assert render_number(6) == 6
    assert render_number(Fraction(6, 1)) == 6
    assert render_number(Fraction(-3, 7)) == "-3/7"
    assert parse_number("") is None
    assert parse_number(None) is None
    assert parse_number("6") == 6
    assert parse_number("-3/7") == Fraction(-3, 7)
    assert parse_number(12) == 12


def test_empty_csv_has_header_only():
    blob = report_serialize([], "csv")
    assert blob.decode() == \
        "label,q,lam,brute,formula,equal,elapsed_ms\n"


def test_single_passing_row():
    rep = CountReport.compare("demo", 7, 3, 6, 6)
    assert rep.equal
    blob = report_serialize([rep], "csv")
    lines = blob.decode().splitlines()
    assert len(lines) == 2
    assert lines[1] == "demo,7,3,6,6,True,0.0"


def test_mixed_rows_preserve_order():
    reports = [CountReport.compare("a", 5, 1, 2, 2),
               CountReport.compare("b", 5, 2, 2, 3),
               CountReport.compare("c", 5, None, Fraction(1, 5), Fraction(1, 5))]
    text = report_serialize(reports, "text").decode()
    lines = text.splitlines()
    assert [ln.split()[1] for ln in lines] == ["a", "b", "c"]
    assert "MISMATCH" in lines[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_round_trip(fmt):
    reports = [
        CountReport.compare("alpha", 7, 2, 10, 10, elapsed_ms=4.25),
        CountReport.compare("beta", 9, None, Fraction(7, 3), Fraction(7, 3)),
        CountReport("gamma", 13, 5, 12, None, False, 0.0),
    ]
    blob = report_serialize(reports, fmt)
    parsed = parse_reports(blob, fmt)
    for orig, back in zip(reports, parsed):
        assert back.label == orig.label
        assert back.q == orig.q and back.lam == orig.lam
        assert back.brute == orig.brute and back.formula == orig.formula
        assert back.equal == orig.equal
        assert back.elapsed_ms == 0.0  # timing withheld by default


def test_timing_opt_in():
    rep = CountReport.compare("t", 7, 1, 1, 1, elapsed_ms=12.3456)
    blob = report_serialize([rep], "json", include_timing=True)
    assert b"12.346" in blob
    blob = report_serialize([rep], "json")
    assert b"12.3" not in blob


def test_unknown_format():
    with pytest.raises(ValueError):
        report_serialize([], "xml")
    with pytest.raises(ValueError):
        parse_reports(b"", "xml")


def test_equal_requires_both_sides():
    rep = CountReport.compare("x", 7, 1, 5, None)
    assert not rep.equal


def test_rows_without_a_formula_are_marked_count():
    # brute-only rows and singular-fibre skips checked nothing, so the
    # text mark says neither "ok" nor "MISMATCH"
    reports = [CountReport("torus(brute)", 13, 2, 5, None, False),
               CountReport("completed [singular fiber, skipped]", 13, 4, 2,
                           None, True),
               CountReport.compare("checked", 13, 5, 3, 3),
               CountReport.compare("wrong", 13, 6, 3, 4)]
    marks = [line.split()[0] for line in
             report_serialize(reports, "text").decode().splitlines()]
    assert marks == ["count", "count", "ok", "MISMATCH"]
    for fmt in ("csv", "json"):
        parsed = parse_reports(report_serialize(reports, fmt), fmt)
        assert [r.equal for r in parsed] == [False, True, True, False]
