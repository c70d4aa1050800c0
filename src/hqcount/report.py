"""Comparison records and their JSON/CSV/text serialization.

A CountReport pairs one brute-force count with one closed-formula value.
Serialized field order is fixed (label, q, lam, brute, formula, equal,
elapsed_ms) and rationals render as "num/den", so output is deterministic
for fixed report values; wall-clock timing is only included when the
caller opts in, keeping default output byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

FIELDS = ("label", "q", "lam", "brute", "formula", "equal", "elapsed_ms")

Number = Fraction | int | None


@dataclass
class CountReport:
    label: str
    q: int
    lam: int | None
    brute: Number
    formula: Number
    equal: bool
    elapsed_ms: float = 0.0

    @staticmethod
    def compare(label: str, q: int, lam: int | None, brute: Number,
                formula: Number, elapsed_ms: float = 0.0) -> CountReport:
        equal = brute is not None and formula is not None and brute == formula
        return CountReport(label, q, lam, brute, formula, equal, elapsed_ms)


def render_number(value: Number) -> int | str | None:
    if value is None:
        return None
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return f"{frac.numerator}/{frac.denominator}"


def parse_number(raw) -> Number:
    if raw is None or raw == "":
        return None
    if isinstance(raw, bool):
        raise ValueError("booleans are not report numbers")
    if isinstance(raw, int):
        return raw
    frac = Fraction(str(raw))
    return int(frac) if frac.denominator == 1 else frac


def _row(report: CountReport, include_timing: bool) -> dict:
    return {
        "label": report.label,
        "q": report.q,
        "lam": report.lam,
        "brute": render_number(report.brute),
        "formula": render_number(report.formula),
        "equal": report.equal,
        "elapsed_ms": round(report.elapsed_ms, 3) if include_timing else 0.0,
    }


def report_serialize(reports: list[CountReport], fmt: str,
                     include_timing: bool = False) -> bytes:
    """Stable-order serialization of reports; fmt in {json, csv, text}."""
    if fmt == "json":
        rows = [_row(r, include_timing) for r in reports]
        return (json.dumps(rows, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        for r in reports:
            row = _row(r, include_timing)
            row["lam"] = "" if row["lam"] is None else row["lam"]
            row["brute"] = "" if row["brute"] is None else row["brute"]
            row["formula"] = "" if row["formula"] is None else row["formula"]
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "text":
        lines = []
        for r in reports:
            mark = ("count" if r.formula is None  # nothing was compared
                    else "ok" if r.equal else "MISMATCH")
            lam = "-" if r.lam is None else str(r.lam)
            lines.append(f"{mark:8s} {r.label}  q={r.q} lam={lam} "
                         f"brute={render_number(r.brute)} "
                         f"formula={render_number(r.formula)}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_reports(blob: bytes, fmt: str) -> list[CountReport]:
    """Inverse of report_serialize for the machine formats."""
    text = blob.decode()
    out = []
    if fmt == "json":
        for row in json.loads(text):
            out.append(CountReport(row["label"], int(row["q"]),
                                   None if row["lam"] is None else int(row["lam"]),
                                   parse_number(row["brute"]),
                                   parse_number(row["formula"]),
                                   bool(row["equal"]),
                                   float(row["elapsed_ms"])))
        return out
    if fmt == "csv":
        for row in csv.DictReader(io.StringIO(text)):
            out.append(CountReport(row["label"], int(row["q"]),
                                   None if row["lam"] == "" else int(row["lam"]),
                                   parse_number(row["brute"]),
                                   parse_number(row["formula"]),
                                   row["equal"] == "True",
                                   float(row["elapsed_ms"])))
        return out
    raise ValueError(f"unknown format {fmt!r}")
