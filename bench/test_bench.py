"""Tests of the benchmark itself, on the smoke inputs (q <= 13).

    python -m pytest -q bench/test_bench.py      # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, PROBE_REF_S, Runner, Session  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_manifest_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] \
        == list(PER_LAYER)


def test_every_pool_member_has_a_frozen_digest():
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    for size in ("full", "smoke"):
        for w in WORKLOADS.values():
            labels = {m.label for m in w.pools[size]}
            assert labels == set(golden[size][w.name])


@pytest.mark.parametrize("trace, metrics", [(0, END_TO_END), (1, PER_LAYER)])
def test_smoke_prints_every_metric_for_every_workload(trace, metrics):
    result = _result(_bench("--size", "smoke", "--seconds", "1",
                            "--seed", "1", "--trace", str(trace)))
    expect = {f"{w}.{name}": unit for w in WORKLOADS for name, unit in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expect
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_one_workload_reports_unprefixed_metrics():
    result = _result(_bench("--size", "smoke", "--seconds", "1",
                            "--workload", "verify_main", "--trace", "1"))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == {name for name, _ in PER_LAYER}
    # auto=7: 60 cases, 16 of them singular fibres, one field load each.
    assert values["variety.skipped"] == 16
    assert values["field.loads"] == 60


def test_times_are_scaled_by_the_median_probe_of_their_phase():
    w = WORKLOADS["hq_sweep"]
    s = Session(w, w.pools["smoke"][0], "smoke",
                {"smoke": {"hq_sweep": {}}}, runner=None)
    s.samples = [{"wall": 2.0, "cpu": 1.0, "rss_mb": 5.0}]
    s.setup_walls = [0.5]
    s.probes = [2 * PROBE_REF_S, 2 * PROBE_REF_S, 4 * PROBE_REF_S]
    s.setup_probes = [PROBE_REF_S, 5 * PROBE_REF_S, 4 * PROBE_REF_S]
    scaled, raw = s.end_to_end(), s.end_to_end(scaled=False)
    assert scaled == {"wall_s": [1.0], "items_per_s": [10.0], "cpu_s": [0.5],
                      "peak_rss_mb": [5.0], "setup_s": [0.125]}
    assert raw["wall_s"] == [2.0] and raw["setup_s"] == [0.5]


def test_a_table_rebuilt_in_the_measured_loop_marks_the_run(tmp_path):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    w = WORKLOADS["hq_sweep"]
    s = Session(w, w.pools["smoke"][0], "smoke", golden,
                Runner(ROOT, str(tmp_path)))
    s.setup(1)
    s.run_once()
    assert s.problems == []
    # A table of the same name and size that fails to load: hqcount
    # rebuilds it and saves it under the same name during the invocation.
    (name, size, _), = s.cache_files
    with open(os.path.join(s.cache_dir, name), "r+b") as fh:
        fh.write(b"XXXXX")
    s.cache_files = s.cache_snapshot()
    assert s.cache_files[0][:2] == (name, size)
    s.run_once()
    assert s.failed == 0
    assert any("set-up is incomplete" in p for p in s.problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "hq_sweep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


CSV_HEAD = "label,q,lam,brute,formula,equal,elapsed_ms\n"


def _check(name: str, body: str, size: str = "smoke"):
    w = WORKLOADS[name]
    return w.check(w.pools[size][0], body.encode())


def test_checks_count_mismatches_and_never_pass_a_skip():
    ok = '"completed p=3;q=2,1",5,1,1,1,True,0.0\n'
    bad = '"completed p=3;q=2,1",5,3,1,2,False,0.0\n'
    skip = '"completed p=3;q=2,1 [singular fiber, skipped]",5,2,2,,True,0.0\n'
    got = _check("verify_main", CSV_HEAD + ok + bad + skip)
    assert (got.items, got.failed, got.skipped) == (2, 1, 1)
    forged = skip.replace(",,True", ",2,True")
    assert _check("verify_main", CSV_HEAD + ok + forged).problems


def test_checks_recompute_the_invariants():
    # smoke count at q=7, k=6: the torus counts must sum to (6^5 + 1)/7.
    rows = "".join(f"torus(brute),7,{lam},185,,"
                   f"False,0.0\n" for lam in range(1, 7))
    got = _check("count_legendre", CSV_HEAD + rows)
    assert got.failed == 6 and "1111" in got.problems[0]
    sweep = "q,t,value,p_valuation,provenance\n" + "".join(
        f"11,{t},0,,OverQFormula\n" for t in range(1, 11))
    assert _check("hq_sweep", sweep).failed == 10
    rewrite = CSV_HEAD + '"rewrite x",7,,1,0,False,0.0\n'
    assert _check("rewrite_oracle", rewrite).failed == 1
