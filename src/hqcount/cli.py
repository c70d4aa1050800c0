"""Command-line front end: H_q tables, verification suites, cell tables,
and the field-table cache.

Exit codes: 0 success (all verifications equal), 1 at least one
verification inequality (the failing reports are printed), 2 usage or
parameter errors.  All output is buffered and emitted once.

Each command imports its engines when it runs, so a process compiles only
the modules its subcommand needs (``cache``: ``errors`` and ``field``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import HqcountError, SingularFiber
from .field import (DEFAULT_MAX_Q, build_field, build_field_cached,
                    save_field)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names used in annotations only
    from .cyclo import CycloNum
    from .hyper import CyclotomicData, HGParams
    from .report import CountReport

VERIFY_SUITES = ("main", "singular", "hd", "stickelberger", "rewrite",
                 "ono", "denominator", "cells", "alt")


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _get_field(q: int, cache_dir: str | None, q_cap: int):
    if cache_dir:
        return build_field_cached(q, cache_dir, max_q=q_cap)
    return build_field(q, max_q=q_cap)


def _parse_params(args) -> HGParams | CyclotomicData | None:
    """Validate the parameter spec before any computation starts."""
    from .hyper import (HGParams, params_from_cyclotomic, parse_fractions,
                        parse_param_string)
    if getattr(args, "params", None):
        return parse_param_string(args.params)
    has_pq = getattr(args, "p", None) and getattr(args, "q", None)
    has_ab = getattr(args, "alpha", None) and getattr(args, "beta", None)
    if has_pq:
        return params_from_cyclotomic(parse_ints(args.p), parse_ints(args.q))
    if has_ab:
        return HGParams.of(parse_fractions(args.alpha),
                           parse_fractions(args.beta))
    return None


def _data_list(params) -> list[CyclotomicData]:
    """The given exponent data, or the standing catalog."""
    from .hyper import CyclotomicData
    if isinstance(params, CyclotomicData):
        return [params]
    from .catalog import catalog
    return catalog()


def _resolve_fields(args, data: CyclotomicData | None,
                    default_auto: int) -> list[int]:
    if getattr(args, "field", None):
        return sorted(set(parse_ints(args.field)))
    from . import catalog as cat
    bound = getattr(args, "auto", None) or default_auto
    if data is not None:
        return cat.admissible_fields(data, bound)
    return cat.prime_powers(bound)


def _selection_codes(selection: str, q: int) -> list[int]:
    """The element codes 1..q-1 that --t/--lam name: "all" or a list."""
    if selection == "all":
        return list(range(1, q))
    codes = []
    for v in selection.split(","):
        try:
            code = int(v)
        except ValueError:
            raise ValueError(f"{v!r} is not an element code") from None
        if not 1 <= code < q:
            raise ValueError(f"element code {code} is outside 1..{q - 1} "
                             f"for q={q}")
        codes.append(code)
    return codes


def _describe(data) -> str:
    from .hyper import CyclotomicData, landau_bound
    if isinstance(data, CyclotomicData):
        lam = landau_bound(data, "overQ")
        return f"{data.describe()} lambda={lam}"
    lam = landau_bound(data, "general")
    return f"{data.describe()} d={data.d} lambda_general={lam}"


def _emit(payload: bytes) -> None:
    sys.stdout.write(payload.decode())
    sys.stdout.flush()


def _render_cyclo(value: CycloNum) -> str:
    if value.is_rational():
        return str(value.reduce_to_rational())
    terms = [f"{c}*z{value.order}^{i}" for i, c in enumerate(value.canonical())
             if c]
    return "+".join(terms).replace("+-", "-")


# -- hq ------------------------------------------------------------------------

def _cmd_hq(args) -> int:
    from .hyper import (CyclotomicData, HGParams, cyclotomic_from_params,
                        h_general, h_over_q)
    from .report import render_number
    params = _parse_params(args)
    if params is None:
        print("hq requires --p/--q, --alpha/--beta, or --params",
              file=sys.stderr)
        return 2
    if isinstance(params, HGParams) and not args.general:
        params = cyclotomic_from_params(params, None)  # may raise -> exit 2
    data = params if isinstance(params, CyclotomicData) else None
    hg_params = params if isinstance(params, HGParams) else params.params
    fields = _resolve_fields(args, data, default_auto=13)
    codes = {q: _selection_codes(args.t, q) for q in fields}

    rows = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        for t in codes[q]:
            if args.general:
                value = h_general(table, hg_params, t)
                rows.append({"q": q, "t": t, "value": _render_cyclo(value),
                             "p_valuation": None,
                             "provenance": "GeneralDefinition"})
            else:
                hval = h_over_q(table, data, t)
                rows.append({"q": q, "t": t,
                             "value": render_number(hval.value),
                             "p_valuation": hval.p_valuation,
                             "provenance": hval.provenance.value})

    header = _describe(params)
    if args.format == "json":
        import json
        _emit((json.dumps({"params": header, "rows": rows}, indent=2)
               + "\n").encode())
    elif args.format == "csv":
        lines = ["q,t,value,p_valuation,provenance"]
        for row in rows:
            vp = "" if row["p_valuation"] is None else row["p_valuation"]
            lines.append(f"{row['q']},{row['t']},{row['value']},{vp},"
                         f"{row['provenance']}")
        _emit(("\n".join(lines) + "\n").encode())
    else:
        lines = [f"# {header}"]
        for row in rows:
            lines.append(f"q={row['q']} t={row['t']} H={row['value']} "
                         f"v_p={row['p_valuation']}")
        _emit(("\n".join(lines) + "\n").encode())
    return 0


# -- count ----------------------------------------------------------------------

def _cmd_count(args) -> int:
    from .hyper import CyclotomicData
    from .report import CountReport, report_serialize
    from .toric import enumerate_cells
    from .variety import _component_brute, _torus_brute
    params = _parse_params(args)
    if not isinstance(params, CyclotomicData):
        print("count requires --p and --q exponent lists", file=sys.stderr)
        return 2
    fields = _resolve_fields(args, params, default_auto=13)
    codes = {q: _selection_codes(args.lam, q) for q in fields}

    reports = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        r, s = params.r, params.s
        cells = [c for c in enumerate_cells(r, s)
                 if c.pairs and c.support_size <= r + s - 2]
        for lam in codes[q]:
            torus = _torus_brute(table, params, lam)
            total = torus + sum(_component_brute(table, params, c, lam)
                                for c in cells)
            reports.append(CountReport("torus(brute)", q, lam, torus,
                                       None, False))
            reports.append(CountReport("completed(brute)", q, lam, total,
                                       None, False))
    _emit(report_serialize(reports, args.format, include_timing=args.timing))
    return 0


# -- verify -----------------------------------------------------------------------

def _main_case(p_list, q_list, q: int, lam: int, cache_dir: str | None,
               q_cap: int) -> CountReport:
    from .hyper import params_from_cyclotomic
    from .variety import completed_count
    data = params_from_cyclotomic(p_list, q_list)
    table = _get_field(q, cache_dir, q_cap)
    try:
        return completed_count(table, data, lam)
    except SingularFiber as exc:
        report = exc.report
        report.label += " [singular fiber, skipped]"
        report.equal = True  # not a verification failure
        return report


def _pmap(fn, arglist, jobs: int) -> list:
    if jobs <= 1 or len(arglist) <= 1:
        return [fn(*a) for a in arglist]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, *a) for a in arglist]
        return [f.result() for f in futures]


def _suite_main(args) -> list[CountReport]:
    from . import variety  # noqa: F401 -- workers forked below inherit it
    cases = []
    for data in _data_list(_parse_params(args)):
        for q in (_resolve_fields(args, data, default_auto=13)):
            cases.extend((data.p_list, data.q_list, q, lam, args.cache_dir,
                          args.q_cap) for lam in range(1, q))
    return _pmap(_main_case, cases, args.jobs)


def _suite_singular(args) -> list[CountReport]:
    from .variety import singular_count
    return [singular_count(_get_field(q, args.cache_dir, args.q_cap), data)
            for data in _data_list(_parse_params(args))
            for q in _resolve_fields(args, data, default_auto=13)]


def _suite_rewrite(args) -> list[CountReport]:
    from .hyper import h_general, h_over_q
    from .report import CountReport
    reports = []
    for data in _data_list(_parse_params(args)):
        den = data.params.n_den
        fields = [q for q in _resolve_fields(args, data, default_auto=31)
                  if (q - 1) % den == 0]
        for q in fields:
            table = _get_field(q, args.cache_dir, args.q_cap)
            bad = 0
            for t in range(1, q):
                lhs = h_general(table, data.params, t).reduce_to_rational()
                if lhs != h_over_q(table, data, t).value:
                    bad += 1
            reports.append(CountReport.compare(
                f"rewrite {data.describe()}", q, None, bad, 0))
    return reports


def _suite_hd(args) -> list[CountReport]:
    from .gauss import hasse_davenport_defect, table_for
    from .report import CountReport
    fields = (parse_ints(args.field) if args.field else (7, 9, 13, 25, 27))
    reports = []
    for q in fields:
        table = table_for(_get_field(q, args.cache_dir, args.q_cap))
        qq = q - 1
        for n in range(1, qq + 1):
            if qq % n:
                continue
            bad = sum(1 for m in range(qq)
                      if not hasse_davenport_defect(table, n, m).is_zero())
            reports.append(CountReport.compare(f"hasse-davenport N={n}",
                                               q, None, bad, 0))
    return reports


def _suite_stickelberger(args) -> list[CountReport]:
    from .gauss import stickelberger_sigma
    from .report import CountReport
    fields = (parse_ints(args.field) if args.field else (8, 9, 25, 27, 49))
    reports = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        p, f = table.p, table.f
        bad = 0
        for r in range(q - 1):
            digits = 0
            rr = r
            while rr:
                digits += rr % p
                rr //= p
            if stickelberger_sigma(p, f, r) != digits:
                bad += 1
        reports.append(CountReport.compare("stickelberger", q, None, bad, 0))
    return reports


def _suite_ono(args) -> list[CountReport]:
    from .catalog import prime_powers
    from .variety import curve_counts
    bound = args.auto or 27
    fields = (parse_ints(args.field) if args.field
              else [q for q in prime_powers(bound) if q % 2])
    reports = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        for lam in range(2, q):
            reports.append(curve_counts(table, "legendre", lam))
    return reports


def _suite_denominator(args) -> list[CountReport]:
    from .hyper import h_over_q, landau_bound
    from .report import CountReport
    reports = []
    for data in _data_list(_parse_params(args)):
        bound = landau_bound(data, "overQ") - min(data.r, data.s)
        for q in _resolve_fields(args, data, default_auto=13):
            table = _get_field(q, args.cache_dir, args.q_cap)
            bad = 0
            for t in range(1, q):
                vp = h_over_q(table, data, t).p_valuation
                if vp is not None and vp < bound:
                    bad += 1
            reports.append(CountReport.compare(
                f"denominator {data.describe()}", q, None, bad, 0))
    return reports


def _suite_cells(args) -> list[CountReport]:
    from .report import CountReport
    from .toric import cell_sum_identity, p_rs
    reports = []
    for r in range(1, 7):
        for s in range(1, 7):
            qs = {2, 3, 7, 13}
            qs.update(range(2, r + s + 2))  # at least deg+1 sample points
            for q in sorted(qs):
                for which in ("term", "main", "maximal"):
                    reports.append(cell_sum_identity(r, s, q, which))
    # coefficient check by base-1000 evaluation (all coefficients < 1000)
    reports.append(CountReport.compare("P_23 = q^2+3q+1", 1000, None,
                                       p_rs(2, 3, 1000), 1000**2 + 3000 + 1))
    return reports


def _suite_alt(args) -> list[CountReport]:
    from .catalog import ono_alt_spec
    from .variety import alt_variety_count
    fields = parse_ints(args.field) if args.field else (5, 9, 13)
    spec = ono_alt_spec()
    reports = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        for lam in range(1, q):
            reports.append(alt_variety_count(table, spec, lam))
    return reports


def _cmd_verify(args) -> int:
    from .report import report_serialize
    suite = {
        "main": _suite_main,
        "singular": _suite_singular,
        "rewrite": _suite_rewrite,
        "hd": _suite_hd,
        "stickelberger": _suite_stickelberger,
        "ono": _suite_ono,
        "denominator": _suite_denominator,
        "cells": _suite_cells,
        "alt": _suite_alt,
    }[args.suite]
    reports = suite(args)
    failures = [r for r in reports if not r.equal]
    _emit(report_serialize(reports, args.format, include_timing=args.timing))
    if failures:
        sys.stderr.write(f"{len(failures)} verification failures:\n")
        sys.stderr.write(report_serialize(failures, "text").decode())
    skipped = sum(1 for r in reports if r.formula is None)
    mismatch = sum(1 for r in failures if r.formula is not None)
    sys.stderr.write(f"verify {args.suite}: "
                     f"{len(reports) - skipped - mismatch} ok, "
                     f"{mismatch} mismatch, {skipped} skipped\n")
    return 1 if failures else 0


# -- table ------------------------------------------------------------------------

def _cmd_table(args) -> int:
    from .toric import cell_gcd, enumerate_cells, p_rs
    if args.what == "prs":
        if args.at is not None:
            print(p_rs(args.r, args.s, args.at))
        else:
            coeffs = p_rs(args.r, args.s)
            terms = []
            for k in range(len(coeffs) - 1, -1, -1):
                c = coeffs[k]
                if not c:
                    continue
                piece = "1" if (c == 1 and k == 0) else (
                    f"{c}" if k == 0 else
                    (f"q^{k}" if c == 1 else f"{c}*q^{k}"))
                terms.append(piece.replace("q^1", "q"))
            print(" + ".join(terms) if terms else "0")
        return 0
    from .hyper import CyclotomicData  # what == "cells"
    params = _parse_params(args)
    data = params if isinstance(params, CyclotomicData) else None
    if args.format == "json":
        import json
        rows = []
        for cell in enumerate_cells(args.r, args.s):
            row = {"pairs": cell.to_json(), "l": cell.length,
                   "support": cell.support_size,
                   "maximal": cell.is_maximal}
            if data is not None:
                row["a_S"] = cell_gcd(data, cell)
            rows.append(row)
        print(json.dumps(rows, indent=2))
    else:
        for cell in enumerate_cells(args.r, args.s):
            extra = ""
            if data is not None:
                extra = f" a_S={cell_gcd(data, cell)}"
            print(f"{cell.render()} l={cell.length} "
                  f"|S|={cell.support_size}"
                  f"{' maximal' if cell.is_maximal else ''}{extra}")
    return 0


# -- cache ------------------------------------------------------------------------

def _cmd_cache(args) -> int:
    directory = (args.cache_dir
                 or os.path.join(os.path.expanduser("~"), ".cache", "hqcount"))
    if args.action == "build":
        if not args.field:
            print("cache build requires --field", file=sys.stderr)
            return 2
        for q in parse_ints(args.field):
            path = save_field(build_field(q, max_q=args.q_cap), directory)
            print(f"wrote {path}")
        return 0
    removed = 0  # action == "clear"
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            if name.startswith("hqft-") and name.endswith(".tbl"):
                os.remove(os.path.join(directory, name))
                removed += 1
    print(f"removed {removed} cached tables from {directory}")
    return 0


# -- argument plumbing --------------------------------------------------------------

_CODES_HELP = ("'all' or comma-separated element codes in 1..q-1; for "
               "q = p^f the code c names the polynomial whose coefficients "
               "are the base-p digits of c (constant term first), not the "
               "integer c")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    common.add_argument("--field", help="comma-separated prime powers")
    common.add_argument("--auto", type=int,
                        help="use all admissible prime powers <= N")
    common.add_argument("--cache-dir", dest="cache_dir")
    common.add_argument("--q-cap", dest="q_cap", type=int,
                        default=DEFAULT_MAX_Q)
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timings in reports")
    pspec = argparse.ArgumentParser(add_help=False)
    pspec.add_argument("--p", help="comma-separated p exponents")
    pspec.add_argument("--q", help="comma-separated q exponents")
    pspec.add_argument("--alpha", help="comma-separated fractions")
    pspec.add_argument("--beta", help="comma-separated fractions")
    pspec.add_argument("--params", help='e.g. "p=3 q=1,1,1"')

    parser = argparse.ArgumentParser(
        prog="hqcount",
        description="Exact finite hypergeometric sums and point-count "
                    "verification over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hq = sub.add_parser("hq", parents=[common, pspec],
                          help="tabulate H_q values")
    p_hq.add_argument("--t", default="all", help=_CODES_HELP)
    p_hq.add_argument("--general", action="store_true",
                      help="use the general definition instead of over-Q")
    p_hq.set_defaults(func=_cmd_hq)

    p_count = sub.add_parser("count", parents=[common, pspec],
                             help="brute-force counts only")
    p_count.add_argument("--lam", default="all", help=_CODES_HELP)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", parents=[common, pspec],
                              help="run a named verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the main suite")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", parents=[common, pspec],
                             help="P_rs polynomials and cell listings")
    p_table.add_argument("what", choices=("prs", "cells"))
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--s", type=int, required=True)
    p_table.add_argument("--at", type=int, help="evaluate P_rs at q")
    p_table.set_defaults(func=_cmd_table)

    p_cache = sub.add_parser("cache", parents=[common],
                             help="build or clear field-table caches")
    p_cache.add_argument("action", choices=("build", "clear"))
    p_cache.add_argument("--dir", dest="cache_dir",
                         help="same as --cache-dir")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.cache_dir = args.cache_dir or os.environ.get("HQ_CACHE_DIR")
    try:
        return args.func(args)
    except HqcountError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
