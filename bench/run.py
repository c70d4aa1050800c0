#!/usr/bin/env python3
"""hqcount benchmark: real CLI invocations timed end to end, and a traced
in-process pass for per-layer metrics.  Standard library only.

    python3 bench/run.py --workload hq_sweep --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all        # every workload, interleaved
    python3 bench/run.py --size smoke --seconds 1    # q <= 13, for the tests

Run it from the repository root: it runs ``src/hqcount`` from source.

``--trace 0``: set-up (a fresh ``cache build`` of the workload's fields
into an empty directory) runs SETUP_REPS times; the last cache is then
used by a closed loop of fresh ``python -m hqcount ... --cache-dir D``
processes, one client and one invocation at a time, until ``--seconds``
of invocations have run.  Every output is checked against its frozen
digest and against invariants computed here.  Times are reported in
reference seconds, scaled by a speed probe (see PROBE_REF_S).

``--trace 1``: one untraced invocation, then two in-process passes in
fresh processes (``traced.py``), one plain and one with span-recording
wrappers; the per-layer metrics come from the traced one.

Human-readable lines go first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run is
also appended, with its environment, to ``.hqbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS, Member, Workload  # noqa: E402

SETUP_REPS = 21         # set-ups per run; setup_s is their median
SETUP_PROBE_EVERY = 3   # set-ups between the probes that scale setup_s
MIN_REPS = 3            # invocations per workload, whatever --seconds says
STARTUP_REPS = 5        # bare `import hqcount` runs for cli.startup_s
TIMEOUT_S = 120         # per child process; a run must end within 180 s

# The 2-vCPU VM this benchmark was written on changes speed by up to 1.7x
# over minutes, and invocation times follow.  So a fixed pure-Python loop
# (the probe) runs before the first invocation and after each one, and
# every time metric of the run is scaled to reference seconds: seconds *
# PROBE_REF_S / (the run's median probe time).  In ten-seed sets on that
# VM this cut the worst run-to-run spread of wall_s (interquartile range
# over median) from 0.21 to 0.10; scaling each invocation by its own
# neighbouring probes did worse (0.15), as single probes are noisy.  The
# probe shares no code with hqcount, so a change to hqcount moves scaled
# and raw times alike; raw medians are printed and recorded too.
# Set-up runs before the loop, and the speed can change within a run, so
# setup_s is scaled by probes run between the set-ups instead: scaled by
# the run's probes, its ten-seed spread stayed at 0.20 with 21 set-ups.
PROBE_REF_S = 0.22      # the probe's time on that VM when it runs fast


def probe() -> float:
    """Seconds for a fixed loop of list indexing and integer arithmetic,
    the kind of work hqcount's hot loops do."""
    t0 = time.perf_counter()
    table = list(range(1009))
    acc = 0
    for i in range(2_000_000):
        acc = (acc + table[(i * 7) % 1009] * 3) % 1000003
    return time.perf_counter() - t0


END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer self times: metric -> the span names whose self time it sums.
LAYER_SPANS = {
    "field.load_s": ("field.load_field",),
    "field.build_s": ("field.build_field",),
    "gauss.table_init_s": ("gauss.GaussTable.__init__",),
    "gauss.balanced_product_s": ("gauss.balanced_product",),
    "hyper.mtable_s": ("hyper._over_q_mtable",),
    "hyper.assemble_s": ("hyper.h_over_q",),
    "hyper.general_s": ("hyper.h_general", "hyper._general_mtable"),
    "cyclo.reduce_s": ("cyclo.reduce_to_rational",),
    "toric.cells_s": ("toric.enumerate_cells", "toric.cell_gcd"),
    "variety.torus_brute_s": ("variety._torus_brute",),
    "variety.component_brute_s": ("variety._component_brute",),
    "report.serialize_s": ("report.report_serialize",),
}
LAYER_COUNTS = ("field.loads", "gauss.jacobi_calls", "gauss.jacobi_misses",
                "gauss.conv_madds", "hyper.values", "cyclo.reduce_calls",
                "variety.enumerations", "variety.points", "variety.skipped")
PER_LAYER = (
    [(name, "s") for name in LAYER_SPANS]
    + [(name, "count") for name in LAYER_COUNTS]
    + [("gauss.jacobi_hit_ratio", "ratio"), ("variety.points_per_s", "1/s"),
       ("cli.parallelism", "ratio"), ("cli.startup_s", "s"),
       ("trace.overhead_s", "s")])


# -- processes -------------------------------------------------------------

def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts hqcount children from the checkout and reaps each one."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("HQ_CACHE_DIR", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, argv: list[str]) -> dict:
        """Run argv to completion; wall, CPU and peak RSS of its tree.

        CPU and RSS come from the child's own ``wait4`` rusage, which
        includes the pool workers it reaped; peak RSS is the largest
        single process in the tree.  (``RUSAGE_CHILDREN`` of this process
        would keep a running maximum across invocations.)
        """
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            # A session of its own, so that a hung child is killed with
            # its pool workers.
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL,
                                    start_new_session=True)
            timer = threading.Timer(TIMEOUT_S, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        timed_out = wall >= TIMEOUT_S
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return {"rc": proc.returncode, "wall": wall, "timed_out": timed_out,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
                "stdout": stdout, "stderr": stderr}

    def hqcount(self, args: list[str]) -> dict:
        return self.spawn([sys.executable, "-m", "hqcount", *args])


# -- one workload ------------------------------------------------------------

class Session:
    """Set-up, invocations and checks of one workload in one run."""

    def __init__(self, workload: Workload, member: Member, size: str,
                 golden: dict, runner: Runner):
        self.workload = workload
        self.member = member
        self.expected = workload.expected_items[size]
        self.digest = golden[size][workload.name].get(member.label)
        self.runner = runner
        self.cache_dir = None
        self.cache_files: list[tuple] = []
        self.last_check = None
        self.timed_out = False
        self.probes: list[float] = []
        self.setup_probes: list[float] = []
        self.setup_walls: list[float] = []
        self.samples: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fresh_dir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"{self.workload.name}-{tag}-",
                                dir=self.runner.work)

    def setup(self, reps: int) -> None:
        fields = ",".join(map(str, self.member.fields))
        for i in range(reps):
            if i % SETUP_PROBE_EVERY == 0:
                self.setup_probes.append(probe())
            if self.cache_dir:
                shutil.rmtree(self.cache_dir)
            self.cache_dir = self._fresh_dir("cache")
            res = self.runner.hqcount(["cache", "build", "--field", fields,
                                       "--cache-dir", self.cache_dir])
            if res["rc"] != 0:
                self.problems.append(f"set-up exited {res['rc']}: "
                                     + res["stderr"].decode()[-300:])
            self.setup_walls.append(res["wall"])
        self.setup_probes.append(probe())
        self.cache_files = self.cache_snapshot()

    def cache_snapshot(self) -> list[tuple]:
        """(name, size, mtime) of each cache file: a table that hqcount
        rebuilds and saves under its old name still changes its mtime."""
        snap = []
        for name in sorted(os.listdir(self.cache_dir)):
            st = os.stat(os.path.join(self.cache_dir, name))
            snap.append((name, st.st_size, st.st_mtime_ns))
        return snap

    def verify_output(self, rc: int, stdout: bytes, where: str) -> None:
        """Check one invocation's output and count its failed items."""
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if self.digest is None:
            problems.append("no frozen digest for this input")
        elif hashlib.sha256(stdout).hexdigest() != self.digest:
            problems.append("stdout differs from the frozen digest")
        check = self.workload.check(self.member, stdout)
        problems.extend(check.problems)
        if check.items != self.expected:
            problems.append(f"{check.items} items, expected {self.expected}")
        self.last_check = check
        self.problems.extend(f"{where}: {p}" for p in problems)
        self.attempted += self.expected
        if rc != 0 or check.items != self.expected:
            failed = self.expected
        else:
            failed = check.failed or (self.expected if problems else 0)
        self.failed += failed

    def run_once(self) -> dict:
        if not self.probes:
            self.probes.append(probe())
        res = self.runner.hqcount(list(self.member.argv)
                                  + ["--cache-dir", self.cache_dir])
        self.probes.append(probe())
        self.verify_output(res["rc"], res["stdout"],
                           f"invocation {len(self.samples) + 1}")
        if res["rc"] != 0:
            self.problems.append(res["stderr"].decode()[-300:])
        self.timed_out |= res["timed_out"]
        if self.cache_snapshot() != self.cache_files:
            self.problems.append("a field table was built or rewritten "
                                 "during the measured loop; set-up is "
                                 "incomplete")
        sample = {k: res[k] for k in ("wall", "cpu", "rss_mb")}
        self.samples.append(sample)
        return sample

    def busy(self) -> float:
        return sum(s["wall"] for s in self.samples)

    def wants_more(self, seconds: float) -> bool:
        """Closed loop: start another invocation while it should end
        within the run's budget (and always run MIN_REPS, unless one
        invocation hung)."""
        if self.timed_out:
            return False
        if len(self.samples) < MIN_REPS:
            return True
        typical = statistics.median(s["wall"] for s in self.samples)
        return self.busy() + typical <= seconds

    def scale(self, probes: list[float]) -> float:
        return PROBE_REF_S / statistics.median(probes)

    def end_to_end(self, scaled: bool = True) -> dict:
        """Per-sample values; times in reference seconds if ``scaled``."""
        k = self.scale(self.probes) if scaled else 1.0
        k_setup = self.scale(self.setup_probes) if scaled else 1.0
        walls = [s["wall"] * k for s in self.samples]
        return {
            "wall_s": walls,
            "items_per_s": [self.expected / w for w in walls],
            "cpu_s": [s["cpu"] * k for s in self.samples],
            "peak_rss_mb": [s["rss_mb"] for s in self.samples],
            "setup_s": [w * k_setup for w in self.setup_walls],
        }

    # -- the traced pass --------------------------------------------------

    def in_process(self, trace: bool, spans_path: str) -> dict:
        out_path = os.path.join(self.runner.work, f"traced-{trace:d}.out")
        argv = [sys.executable, os.path.join(HERE, "traced.py"),
                "--argv", json.dumps(self.workload.traced_argv(self.member)),
                "--fields", ",".join(map(str, self.member.fields)),
                "--cache-dir", self._fresh_dir(f"inproc{trace:d}"),
                "--out", out_path, "--spans", spans_path,
                "--trace", str(int(trace))]
        res = self.runner.spawn(argv)
        where = "traced pass" if trace else "plain in-process pass"
        if res["rc"] != 0:
            self.problems.append(f"{where} exited {res['rc']}: "
                                 + res["stderr"].decode()[-300:])
            return {}
        summary = json.loads(res["stdout"].decode().splitlines()[-1])
        with open(out_path, "rb") as fh:
            self.verify_output(summary["rc"], fh.read(), where)
        if summary["setup_rc"] != 0:
            self.problems.append(f"{where}: set-up exited "
                                 f"{summary['setup_rc']}")
        return summary


def layer_metrics(spans_path: str) -> dict:
    """Self time per layer and the exact work counts of a traced pass."""
    spans, counts = [], {}
    with open(spans_path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    covered = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_s = defaultdict(float)
    for s in spans:
        self_s[s["name"]] += (s["end_ns"] - s["start_ns"]
                              - covered[s["id"]]) / 1e9
    out = {metric: sum(self_s[n] for n in names)
           for metric, names in LAYER_SPANS.items()}
    out.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    calls = out["gauss.jacobi_calls"]
    out["gauss.jacobi_hit_ratio"] = (
        (calls - out["gauss.jacobi_misses"]) / calls if calls else 0.0)
    brute_s = out["variety.torus_brute_s"] + out["variety.component_brute_s"]
    out["variety.points_per_s"] = (out["variety.points"] / brute_s
                                   if brute_s else 0.0)
    return out


def trace_session(session: Session, runner: Runner, startup: list[float]):
    """Per-layer metrics of one workload; returns (metrics, notes)."""
    name = session.workload.name
    session.setup(1)
    untraced = session.run_once()
    plain = session.in_process(False, os.devnull)
    spans_path = os.path.join(runner.work, f"spans-{name}.jsonl")
    traced = session.in_process(True, spans_path)
    notes = []
    if session.workload.traced_argv(session.member) != session.member.argv:
        notes.append("traced pass ran with --jobs 1: pool workers' spans "
                     "are invisible to in-process wrappers")
    notes.append("variety.points is computed from the kernels' loop "
                 "bounds, not counted")
    if not traced or not plain:
        return {}, notes
    metrics = layer_metrics(spans_path)
    if metrics["variety.skipped"] != session.last_check.skipped:
        session.problems.append(
            f"trace counted {metrics['variety.skipped']} skipped cases, "
            f"output shows {session.last_check.skipped}")
    metrics["cli.parallelism"] = untraced["cpu"] / untraced["wall"]
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    keep = os.path.join(os.path.dirname(runner.work), f"spans-{name}.jsonl")
    shutil.copyfile(spans_path, keep)
    notes.append(f"spans: {os.path.relpath(keep, runner.root)}")
    return metrics, notes


# -- reporting ---------------------------------------------------------------

def environment(root: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "hqcount")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Benchmark hqcount CLI workloads end to end.")
    ap.add_argument("--workload", default="all",
                    choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="picks each workload's input from its pool and "
                         "the interleaving order (0: the default inputs)")
    ap.add_argument("--seconds", type=float, default=24,
                    help="invocation time per workload per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: q <= 13 inputs for the benchmark's tests")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: the running child's group is killed and reaped,
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hqcount", "cli.py")):
        print("bench: no src/hqcount under the current directory; run from "
              "the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    base = os.path.join(root, ".hqbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    runner = Runner(root, work)
    env = environment(root, args.seed)
    sessions = {n: Session(WORKLOADS[n], WORKLOADS[n].member(args.size,
                                                             args.seed),
                           args.size, golden, runner) for n in names}
    lines = [f"# env {json.dumps(env)}"]
    metrics: dict[str, dict] = {}
    record: dict = {"env": env, "size": args.size, "trace": args.trace,
                    "workloads": {}}
    try:
        if args.trace:
            startup = [runner.spawn([sys.executable, "-c", "import hqcount"])
                       ["wall"] for _ in range(STARTUP_REPS)]
            rng.shuffle(names)
            for n in names:
                values, notes = trace_session(sessions[n], runner, startup)
                lines.append(f"# {n}: input {sessions[n].member.label}")
                lines.extend(f"# {n}: {note}" for note in notes)
                for metric, unit in PER_LAYER:
                    value = values.get(metric, 0.0)
                    lines.append(f"{n:15s} {metric:26s} {value:14.6g} {unit}")
                    key = metric if len(names) == 1 else f"{n}.{metric}"
                    metrics[key] = {"value": value, "unit": unit}
                record["workloads"][n] = values
        else:
            for n in names:
                sessions[n].setup(SETUP_REPS)
            # Closed loop, one invocation at a time; with several
            # workloads, repetitions interleave in a seed-shuffled order.
            while True:
                order = [n for n in names
                         if sessions[n].wants_more(args.seconds)]
                if not order:
                    break
                rng.shuffle(order)
                for n in order:
                    sessions[n].run_once()
            for n in names:
                s = sessions[n]
                lines.append(f"# {n}: input {s.member.label}; closed loop, "
                             f"1 client, {len(s.samples)} invocations, "
                             f"{len(s.setup_walls)} set-ups; median "
                             f"(quartiles)")
                lines.append(f"# {n}: times in reference seconds, scaled "
                             f"by the speed probe (scale "
                             f"{s.scale(s.probes):.3f}, set-up "
                             f"{s.scale(s.setup_probes):.3f}); "
                             f"raw medians after 'raw'")
                scaled, raw = s.end_to_end(), s.end_to_end(scaled=False)
                for metric, unit in END_TO_END:
                    values = scaled[metric]
                    med = statistics.median(values)
                    q1, q3 = _quartiles(values)
                    lines.append(f"{n:15s} {metric:12s} {med:12.6g} "
                                 f"{unit:4s} ({q1:.6g} .. {q3:.6g}, "
                                 f"n={len(values)}; raw "
                                 f"{statistics.median(raw[metric]):.6g})")
                    key = metric if len(names) == 1 else f"{n}.{metric}"
                    metrics[key] = {"value": med, "unit": unit}
                frac = s.failed / s.attempted if s.attempted else 1.0
                lines.append(f"{n:15s} {'failed_frac':12s} {frac:12.6g} "
                             f"     ({s.failed} of {s.attempted} items)")
                record["workloads"][n] = {
                    "input": s.member.label, "samples": s.samples,
                    "setup_s": s.setup_walls, "probes": s.probes,
                    "setup_probes": s.setup_probes,
                    "attempted": s.attempted, "failed": s.failed}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{n}: {p}" for n in names for p in sessions[n].problems]
    attempted = sum(s.attempted for s in sessions.values())
    failed = sum(s.failed for s in sessions.values())
    correct = not problems and failed == 0 and attempted > 0
    lines.extend(f"# PROBLEM {p}" for p in problems)
    print("\n".join(lines))
    record.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics)
    with open(os.path.join(base, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
