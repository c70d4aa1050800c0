"""Command-line front end: H_q tables, verification suites, cell tables,
and the field-table cache.

Exit codes: 0 success (all verifications equal), 1 at least one
verification inequality (the failing reports are printed), 2 usage or
parameter errors.  All output is buffered and emitted once.

A verify suite is a check plus the cases it runs, each a picklable tuple
(q, then the exponent lists when the suite takes a datum, then lambda for
main); the check maps (field loader, *case) to that case's reports.
`_cmd_verify` alone builds the cases, maps the check over them (in a
pool of --jobs workers) and writes the reports in case order.

Each command imports its engines when it runs, so a process compiles only
the modules its subcommand needs (``cache``: ``errors`` and ``field``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import HqcountError, SingularFiber
from .field import (DEFAULT_MAX_Q, _prime_power, build_field,
                    build_field_cached, save_field)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names used in annotations only
    from .cyclo import CycloNum
    from .hyper import CyclotomicData, HGParams
    from .report import CountReport


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _get_field(q: int, cache_dir: str | None, q_cap: int):
    if cache_dir:
        return build_field_cached(q, cache_dir, max_q=q_cap)
    return build_field(q, max_q=q_cap)


def _parse_params(args, over_q: bool = True
                  ) -> HGParams | CyclotomicData | None:
    """Validate the parameter spec before any computation starts; with
    over_q, alpha/beta become a datum (or raise NotDefinedOverQ)."""
    from .hyper import (HGParams, cyclotomic_from_params,
                        params_from_cyclotomic, parse_fractions,
                        parse_param_string)
    if bool(args.p) != bool(args.q) or bool(args.alpha) != bool(args.beta):
        raise ValueError("--p and --q go together, as do --alpha and --beta")
    if args.params:
        params = parse_param_string(args.params)
    elif args.p:
        params = params_from_cyclotomic(parse_ints(args.p), parse_ints(args.q))
    elif args.alpha:
        params = HGParams.of(parse_fractions(args.alpha),
                             parse_fractions(args.beta))
    else:
        return None
    if over_q and isinstance(params, HGParams):
        return cyclotomic_from_params(params, None)
    return params


def _resolve_fields(args, default, data=None) -> list[int]:
    """--field sorted and deduplicated, each a prime power (else
    NotPrimePower), else the prime powers up to --auto (admissible for
    data), else the default: a tuple or an --auto bound."""
    if args.field:
        fields = sorted(set(parse_ints(args.field)))
        for q in fields:
            _prime_power(q)
        return fields
    if not args.auto and isinstance(default, tuple):
        return list(default)
    from . import catalog as cat
    bound = args.auto or default
    if data is not None:
        return cat.admissible_fields(data, bound)
    return cat.prime_powers(bound)


def _nonempty(selection: list, what: str) -> list:
    """The selection, or ValueError: a run that would check or print
    nothing exits 2 instead of reporting success."""
    if not selection:
        raise ValueError(f"nothing to run: the selection has no {what}")
    return selection


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
    from .hyper import CyclotomicData, h_general, h_over_q, landau_bound
    from .report import render_number
    params = _parse_params(args, over_q=not args.general)
    if params is None:
        raise ValueError("hq requires --p/--q, --alpha/--beta, or --params")
    data = params if isinstance(params, CyclotomicData) else None
    hg_params = params if data is None else params.params
    fields = _nonempty(_resolve_fields(args, 13, data), "field")
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

    if data is None:
        header = (f"{params.describe()} d={params.d} "
                  f"lambda_general={landau_bound(params, 'general')}")
    else:
        header = f"{data.describe()} lambda={landau_bound(data, 'overQ')}"
    if args.format == "json":
        import json
        _emit((json.dumps({"params": header, "rows": rows}, indent=2)
               + "\n").encode())
    elif args.format == "csv":
        lines = ["q,t,value,p_valuation,provenance"]
        lines += [",".join("" if v is None else str(v) for v in row.values())
                  for row in rows]
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
    from .report import CountReport, report_serialize
    from .variety import brute_counts
    data = _parse_params(args)
    if data is None:
        raise ValueError("count requires --p/--q, --alpha/--beta, or --params")
    fields = _nonempty(_resolve_fields(args, 13, data), "field")
    codes = {q: _selection_codes(args.lam, q) for q in fields}

    reports = []
    for q in fields:
        table = _get_field(q, args.cache_dir, args.q_cap)
        for lam in codes[q]:
            torus, completed = brute_counts(table, data, lam)
            reports.append(CountReport("torus(brute)", q, lam, torus,
                                       None, False))
            reports.append(CountReport("completed(brute)", q, lam,
                                       completed, None, False))
    _emit(report_serialize(reports, args.format, include_timing=args.timing))
    return 0


# -- verify -----------------------------------------------------------------------

def _check_main(load, q: int, p_list, q_list, lam: int) -> list[CountReport]:
    from . import variety  # completed_count is looked up at each call
    from .hyper import params_from_cyclotomic
    data = params_from_cyclotomic(p_list, q_list)
    try:
        return [variety.completed_count(load(q), data, lam)]
    except SingularFiber as exc:
        report = exc.report
        report.label += " [singular fiber, skipped]"
        report.equal = True  # not a verification failure
        return [report]


def _check_singular(load, q: int, p_list, q_list) -> list[CountReport]:
    from .hyper import params_from_cyclotomic
    from .variety import singular_count
    return [singular_count(load(q), params_from_cyclotomic(p_list, q_list))]


def _no_failures(label: str, q: int, failed) -> CountReport:
    """One row: how many of the items a check tried failed, against 0."""
    from .report import CountReport
    return CountReport.compare(label, q, None, sum(failed), 0)


def _check_rewrite(load, q: int, p_list, q_list) -> list[CountReport]:
    from .hyper import h_general, h_over_q, params_from_cyclotomic
    data = params_from_cyclotomic(p_list, q_list)
    table = load(q)
    return [_no_failures(f"rewrite {data.describe()}", q, (
        h_general(table, data.params, t).reduce_to_rational()
        != h_over_q(table, data, t).value for t in range(1, q)))]


def _check_denominator(load, q: int, p_list, q_list) -> list[CountReport]:
    from .hyper import h_over_q, landau_bound, params_from_cyclotomic
    data = params_from_cyclotomic(p_list, q_list)
    bound = landau_bound(data, "overQ") - min(data.r, data.s)
    table = load(q)
    vps = (h_over_q(table, data, t).p_valuation for t in range(1, q))
    return [_no_failures(f"denominator {data.describe()}", q,
                         (vp is not None and vp < bound for vp in vps))]


def _check_hd(load, q: int) -> list[CountReport]:
    from .gauss import hasse_davenport_defect, table_for
    table = table_for(load(q))
    qq = q - 1
    return [_no_failures(f"hasse-davenport N={n}", q, (
        not hasse_davenport_defect(table, n, m).is_zero() for m in range(qq)))
            for n in range(1, qq + 1) if qq % n == 0]


def _check_stickelberger(load, q: int) -> list[CountReport]:
    from .gauss import stickelberger_sigma
    table = load(q)
    p, f = table.p, table.f

    def digit_sum(r: int) -> int:  # of r in base p
        return r % p + digit_sum(r // p) if r else 0
    return [_no_failures("stickelberger", q, (
        stickelberger_sigma(p, f, r) != digit_sum(r) for r in range(q - 1)))]


def _check_ono(load, q: int) -> list[CountReport]:
    from .variety import curve_counts
    table = load(q)
    return [curve_counts(table, "legendre", lam) for lam in range(2, q)]


def _check_alt(load, q: int) -> list[CountReport]:
    from .catalog import ono_alt_spec
    from .variety import alt_variety_count
    table, spec = load(q), ono_alt_spec()
    return [alt_variety_count(table, spec, lam) for lam in range(1, q)]


def _check_cells(load, r: int, s: int, at: int | None = None
                 ) -> list[CountReport]:
    # the cell-sum identities of (r, s); with `at`, the coefficients of
    # P_23, all below at, read off its value at q = at
    from .report import CountReport
    from .toric import cell_sum_identity, p_rs
    if at is not None:
        return [CountReport.compare("P_23 = q^2+3q+1", at, None,
                                    p_rs(r, s, at), at**2 + 3 * at + 1)]
    qs = {2, 3, 7, 13, *range(2, r + s + 2)}  # at least deg+1 points
    return [cell_sum_identity(r, s, q, which)
            for q in sorted(qs) for which in ("term", "main", "maximal")]


# suite: (check, engine module, default fields: a tuple or an --auto bound)
_SUITES = {
    "main": (_check_main, "variety", 13),
    "singular": (_check_singular, "variety", 13),
    "hd": (_check_hd, "gauss", (7, 9, 13, 25, 27)),
    "stickelberger": (_check_stickelberger, "gauss", (8, 9, 25, 27, 49)),
    "rewrite": (_check_rewrite, "hyper", 31),
    "ono": (_check_ono, "variety", 27),
    "denominator": (_check_denominator, "hyper", 13),
    "cells": (_check_cells, "toric", None),
    "alt": (_check_alt, "variety", (5, 9, 13)),
}
VERIFY_SUITES = tuple(_SUITES)
_DATUM_SUITES = ("main", "singular", "rewrite", "denominator")


def _pmap(fn, cases: list[tuple], jobs: int) -> list:
    """fn over the cases in order; a pool of at most one worker per case."""
    jobs = min(jobs, len(cases))
    if jobs <= 1:
        return [fn(*case) for case in cases]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, *case) for case in cases]
        return [f.result() for f in futures]


def _cmd_verify(args) -> int:
    from functools import partial
    from importlib import import_module
    from .report import report_serialize
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
    check, engine, default = _SUITES[args.suite]
    data = _parse_params(args)
    if data is not None and args.suite not in _DATUM_SUITES:
        raise ValueError(f"verify {args.suite} takes no datum")
    if args.suite == "cells":
        if args.field or args.auto:
            raise ValueError("verify cells takes no --field or --auto")
        cases = [(r, s) for r in range(1, 7) for s in range(1, 7)]
        cases.append((2, 3, 1000))
    elif args.suite not in _DATUM_SUITES:
        fields = _resolve_fields(args, default)
        if args.suite in ("ono", "alt") and not args.field:
            fields = [q for q in fields if q % 2]  # Legendre: odd q only
        cases = [(q,) for q in fields]
    else:
        from .catalog import catalog
        cases = []
        for datum in [data] if data is not None else catalog():
            fields = _resolve_fields(args, default, datum)
            if args.suite == "rewrite" and not args.field:
                den = datum.params.n_den
                fields = [q for q in fields if (q - 1) % den == 0]
            cases.extend((q, datum.p_list, datum.q_list) for q in fields)
        if args.suite == "main":
            cases = [c + (lam,) for c in cases for lam in range(1, c[0])]
    _nonempty(cases, "case")
    import_module(f".{engine}", __package__)  # before a pool forks
    load = partial(_get_field, cache_dir=args.cache_dir, q_cap=args.q_cap)
    parts = _pmap(partial(check, load), cases, args.jobs)
    reports = [report for part in parts for report in part]
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
                power = "q" if k == 1 else f"q^{k}"
                terms.append(f"{c}" if k == 0 else
                             power if c == 1 else f"{c}*{power}")
            print(" + ".join(terms) if terms else "0")
        return 0
    from .hyper import CyclotomicData  # what == "cells"
    params = _parse_params(args, over_q=False)
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
    common.add_argument("--cache-dir")
    common.add_argument("--q-cap", type=int, default=DEFAULT_MAX_Q)
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
                          help="worker processes (at most one per case)")
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
