"""The benchmark's workloads: argv, input pools, items and output checks.

Each workload is a real ``hqcount`` invocation.  Its pool lists inputs
of comparable cost; the workload seed picks one member (member 0 is the
default input).  Every member's stdout digest is frozen in
``golden.json``, and the checks below recompute invariants from the
output itself rather than trusting hqcount's own verdicts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SKIP_TAG = "[singular fiber, skipped]"

# Catalog fields used by `verify main --auto 16` / `verify rewrite
# --auto 61`: the fields whose tables set-up prepares.
_MAIN_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
_REWRITE_FIELDS = (3, 4, 5, 7, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                   37, 41, 43, 47, 49, 53, 59, 61)

# Exponent data of one shape each, so that members do the same amount of
# work: (r, s) = (1, 5) for the t-sweep (at q = 211 the three data do
# within 0.6% of the same convolution work, and the eager Gauss table, so
# peak RSS, depends only on q) and (2, 4) for the Legendre-shaped count
# (the enumeration visits (q-1)^4 torus points whatever the exponents).
_SWEEP_DATA = (("5", "1,1,1,1,1"), ("7", "2,2,1,1,1"), ("7", "3,1,1,1,1"))
_COUNT_DATA = (("2,2", "1,1,1,1"), ("1,3", "1,1,1,1"), ("3,3", "2,2,1,1"),
               ("1,5", "2,2,1,1"), ("2,4", "2,2,1,1"))


@dataclass(frozen=True)
class Member:
    """One input of a workload's pool."""
    label: str
    argv: tuple[str, ...]       # hqcount arguments, without --cache-dir
    fields: tuple[int, ...]     # field tables that set-up builds


@dataclass(frozen=True)
class Check:
    items: int          # items attempted (skipped cases excluded)
    failed: int         # items that failed a check
    skipped: int        # singular-fibre rows, never counted as passes
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pools: dict          # size ("full" or "smoke") -> tuple[Member, ...]
    expected_items: dict  # size -> items one invocation must produce
    check: Callable[[Member, bytes], Check]

    def member(self, size: str, seed: int) -> Member:
        pool = self.pools[size]
        return pool[seed % len(pool)]

    def traced_argv(self, member: Member) -> tuple[str, ...]:
        """The argv of the traced pass: pool workers are invisible to
        in-process wrappers, so it always runs with one job."""
        argv = list(member.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        return tuple(argv)


def _rows(stdout: bytes) -> list[dict]:
    return list(csv.DictReader(stdout.decode().splitlines()))


def _sweep_member(p: str, q: str, field: int) -> Member:
    return Member(f"p={p};q={q};field={field}",
                  ("hq", "--p", p, "--q", q, "--field", str(field),
                   "--t", "all", "--format", "csv"), (field,))


def _count_member(p: str, q: str, field: int) -> Member:
    return Member(f"p={p};q={q};field={field}",
                  ("count", "--p", p, "--q", q, "--field", str(field),
                   "--lam", "all", "--format", "csv"), (field,))


def _check_sweep(member: Member, stdout: bytes) -> Check:
    rows = _rows(stdout)
    q = member.fields[0]
    problems = []
    if [int(r["t"]) for r in rows] != list(range(1, q)):
        problems.append("t column is not 1..q-1")
    total = sum(Fraction(r["value"]) for r in rows)
    if total != -1:
        problems.append(f"sum of H_q(t) over t is {total}, not -1")
    return Check(len(rows), len(rows) if problems else 0, 0, tuple(problems))


def _check_main(member: Member, stdout: bytes) -> Check:
    rows = _rows(stdout)
    skipped = [r for r in rows if r["label"].endswith(SKIP_TAG)]
    verified = [r for r in rows if not r["label"].endswith(SKIP_TAG)]
    problems = []
    bad = [r for r in verified if r["equal"] != "True"]
    if bad:
        problems.append(f"{len(bad)} rows with brute != formula")
    # A skipped case must carry no formula value: it checked nothing.
    if any(r["formula"] for r in skipped):
        problems.append("a skipped row carries a formula value")
    return Check(len(verified), len(bad), len(skipped), tuple(problems))


def _check_count(member: Member, stdout: bytes) -> Check:
    rows = _rows(stdout)
    torus = [r for r in rows if r["label"] == "torus(brute)"]
    q = member.fields[0]
    problems = []
    if [int(r["lam"]) for r in torus] != list(range(1, q)):
        problems.append("lambda column is not 1..q-1")
    p_list = member.argv[member.argv.index("--p") + 1].split(",")
    q_list = member.argv[member.argv.index("--q") + 1].split(",")
    k = len(p_list) + len(q_list)
    # Every torus point of sum x = sum y fixes exactly one lambda, so
    # the fibres partition the projective torus of that hyperplane.
    expect = ((q - 1) ** (k - 1) + (-1) ** k) // q
    total = sum(int(r["brute"]) for r in torus)
    if total != expect:
        problems.append(f"sum of torus counts is {total}, not {expect}")
    return Check(len(torus), len(torus) if problems else 0, 0,
                 tuple(problems))


def _check_rewrite(member: Member, stdout: bytes) -> Check:
    rows = _rows(stdout)
    bad = [r for r in rows if r["brute"] != "0" or r["equal"] != "True"]
    problems = (f"{len(bad)} rows with a nonzero bad-count",) if bad else ()
    return Check(len(rows), len(bad), 0, problems)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "hq_sweep",
        "over-Q t-sweep at q=211: m-table, Fourier assembly and the eager "
        "Gauss table; no brute kernel runs",
        {"full": tuple(_sweep_member(p, q, 211) for p, q in _SWEEP_DATA),
         "smoke": tuple(_sweep_member(p, q, 11) for p, q in _SWEEP_DATA)},
        {"full": 210, "smoke": 10}, _check_sweep),
    Workload(
        "verify_main",
        "the catalog's main theorem for q<=16 through the 2-process pool; "
        "brute kernels on f>1 fields, one field load per case",
        {"full": (Member("auto=16", ("verify", "main", "--auto", "16",
                                     "--jobs", "2", "--format", "csv"),
                         _MAIN_FIELDS),),
         "smoke": (Member("auto=7", ("verify", "main", "--auto", "7",
                                     "--jobs", "2", "--format", "csv"),
                          (2, 3, 4, 5, 7)),)},
        {"full": 205, "smoke": 44}, _check_main),
    Workload(
        "count_legendre",
        "brute counts for every lambda at q=19 in one process; bypasses "
        "hyper, gauss and the pool",
        {"full": tuple(_count_member(p, q, 19) for p, q in _COUNT_DATA),
         "smoke": tuple(_count_member(p, q, 7) for p, q in _COUNT_DATA)},
        {"full": 18, "smoke": 6}, _check_count),
    Workload(
        "rewrite_oracle",
        "general definition against the over-Q rewrite for q<=61: the "
        "cyclotomic oracle and reduce_to_rational do major work",
        {"full": (Member("auto=61", ("verify", "rewrite", "--auto", "61",
                                     "--format", "csv"), _REWRITE_FIELDS),),
         "smoke": (Member("auto=13", ("verify", "rewrite", "--auto", "13",
                                      "--format", "csv"),
                          (3, 4, 5, 7, 9, 11, 13)),)},
        {"full": 57, "smoke": 15}, _check_rewrite),
)}
