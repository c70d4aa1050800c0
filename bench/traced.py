"""One in-process pass of a workload through ``hqcount.cli.run``.

Run as a fresh process by ``run.py``.  The pass has two phases: set-up
(``cache build`` of the workload's fields into an empty directory) and
the workload argv against that cache.  With ``--trace 1`` it first wraps
each module's entry points, from outside the program, so that every call
records a span (name, start, end, parent; one run id) and exact work
counts.  Spans stay in memory and are written as JSONL at the end; the
last stdout line is a JSON summary of the pass.

    python bench/traced.py --argv '["hq", ...]' --fields 211 \
        --cache-dir DIR --out FILE --spans FILE --trace 1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time


class Tracer:
    """Span recorder and counters for one pass."""

    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[list] = []     # [id, parent, name, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               name, time.perf_counter_ns(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        self.stack.pop()
        rec[4] = time.perf_counter_ns()

    def wrap(self, name: str, fn, before=None):
        """fn wrapped in a span; ``before(*args)`` may count work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end})
                         + "\n")
            fh.write(json.dumps({"run": self.run_id,
                                 "counts": self.counts}) + "\n")


def _rebind(old, new) -> None:
    """Point every hqcount binding of ``old`` at ``new``.

    cli and variety import entry points by name (``build_field``,
    ``h_over_q``, ``completed_count``, ...), so patching the defining
    module alone would miss those calls.
    """
    for name, module in list(sys.modules.items()):
        if name == "hqcount" or name.startswith("hqcount."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _patch_function(tracer: Tracer, module, attr: str, name: str,
                    before=None) -> None:
    old = getattr(module, attr)
    _rebind(old, tracer.wrap(name, old, before))


def _patch_method(tracer: Tracer, cls, attr: str, name: str,
                  before=None) -> None:
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every hqcount module."""
    # cli must be loaded first: _rebind reaches its by-name imports.
    import hqcount.cli  # noqa: F401
    from hqcount import cyclo, field, gauss, hyper, report, toric, variety
    from hqcount.errors import SingularFiber

    t = tracer
    _patch_function(t, field, "build_field", "field.build_field")
    _patch_function(t, field, "load_field", "field.load_field",
                    lambda *a, **k: t.add("field.loads"))

    _patch_method(t, gauss.GaussTable, "__init__", "gauss.GaussTable.__init__")
    _patch_method(t, gauss.GaussTable, "balanced_product",
                  "gauss.balanced_product")
    seen: set = set()
    jacobi_vec = gauss.GaussTable.jacobi_vec

    def counted_jacobi(self, m, n):
        # A miss is the first call for a (table, unordered pair) key,
        # the same key the table memoizes on.
        qq = self.field.q - 1
        key = (id(self), *sorted((m % qq, n % qq)))
        t.add("gauss.jacobi_calls")
        if key not in seen:
            seen.add(key)
            t.add("gauss.jacobi_misses")
        return jacobi_vec(self, m, n)
    gauss.GaussTable.jacobi_vec = counted_jacobi

    convolve = gauss.convolve_ring

    def counted_convolve(u, v, qq):
        t.add("gauss.conv_madds",
              (len(u) - u.count(0)) * (len(v) - v.count(0)))
        return convolve(u, v, qq)
    _rebind(convolve, counted_convolve)

    def one_value(*a, **k):
        t.add("hyper.values")
    _patch_function(t, hyper, "_over_q_mtable", "hyper._over_q_mtable")
    _patch_function(t, hyper, "h_over_q", "hyper.h_over_q", one_value)
    _patch_function(t, hyper, "_general_mtable", "hyper._general_mtable")
    _patch_function(t, hyper, "h_general", "hyper.h_general", one_value)

    _patch_method(t, cyclo.CycloNum, "reduce_to_rational",
                  "cyclo.reduce_to_rational",
                  lambda *a, **k: t.add("cyclo.reduce_calls"))

    _patch_function(t, toric, "enumerate_cells", "toric.enumerate_cells")
    _patch_function(t, toric, "cell_gcd", "toric.cell_gcd")

    def torus_points(F, data, lam):
        # Points the kernel visits, from its loop bounds (not counted
        # inside the loop: FieldTable.add runs millions of times).
        r, s = len(data.p_list), len(data.q_list)
        t.add("variety.enumerations")
        t.add("variety.points", (F.q - 1) ** (r + s - 2 if s >= 2 else r - 1))

    def component_points(F, data, cell, lam):
        missing_x = len(data.p_list) - len(cell.support_x)
        missing_y = len(data.q_list) - len(cell.support_y)
        rest = missing_x - 1 + missing_y if missing_x else missing_y - 1
        t.add("variety.enumerations")
        if rest:
            t.add("variety.points", (F.q - 1) ** (rest - 1))
    _patch_function(t, variety, "_torus_brute", "variety._torus_brute",
                    torus_points)
    _patch_function(t, variety, "_component_brute",
                    "variety._component_brute", component_points)

    completed = variety.completed_count

    @functools.wraps(completed)
    def counted_completed(*args, **kwargs):
        try:
            return completed(*args, **kwargs)
        except SingularFiber:
            t.add("variety.skipped")
            raise
    _rebind(completed, t.wrap("variety.completed_count", counted_completed))

    _patch_function(t, report, "report_serialize", "report.report_serialize")


def _phase(tracer: Tracer | None, name: str, argv: list[str]) -> tuple:
    """Run ``cli.run(argv)`` capturing stdout; return (rc, stdout, wall)."""
    from hqcount import cli
    buf = io.StringIO()
    rec = tracer.open(name) if tracer else None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    wall = time.perf_counter() - t0
    if rec is not None:
        tracer.close(rec)
    return rc, buf.getvalue().encode(), wall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--argv", required=True, help="JSON list: hqcount argv")
    ap.add_argument("--fields", required=True, help="comma-separated q")
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True, help="workload stdout file")
    ap.add_argument("--spans", help="JSONL span file (with --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        install(tracer)
    setup_rc, _, _ = _phase(
        tracer, "phase.setup",
        ["cache", "build", "--field", args.fields,
         "--cache-dir", args.cache_dir])
    argv = json.loads(args.argv) + ["--cache-dir", args.cache_dir]
    rc, out, wall = _phase(tracer, "phase.workload", argv)
    with open(args.out, "wb") as fh:
        fh.write(out)
    if tracer:
        tracer.write(args.spans)
    print(json.dumps({"rc": rc, "setup_rc": setup_rc, "wall_s": wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
