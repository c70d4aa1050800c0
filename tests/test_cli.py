import json
import subprocess
import sys

from hqcount import cli
from hqcount.report import CountReport


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hq_csv_six_rows(capsys):
    code, out, _ = run_cli(capsys, ["hq", "--p", "3", "--q", "1,1,1",
                                    "--field", "7", "--t", "all",
                                    "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,t,value,p_valuation,provenance"
    assert len(lines) == 7
    for line in lines[1:]:
        value = line.split(",")[2]
        int(value)  # exact integers for this catalog entry


def test_hq_header_carries_both_representations(capsys):
    code, out, _ = run_cli(capsys, ["hq", "--p", "3", "--q", "1,2",
                                    "--field", "7", "--t", "1"])
    assert code == 0
    head = out.splitlines()[0]
    for token in ("p=3", "q=2,1", "alpha=1/3,2/3", "beta=1,1/2",
                  "M=27/4", "eps=-1", "lambda=1"):
        assert token in head


def test_hq_not_defined_over_q_exits_2(capsys):
    code, _, err = run_cli(capsys, ["hq", "--alpha", "1/5", "--beta", "1",
                                    "--field", "11"])
    assert code == 2
    assert "NotDefinedOverQ" in err


def test_hq_general_runs_when_orbit_incomplete(capsys):
    code, out, _ = run_cli(capsys, ["hq", "--alpha", "1/5", "--beta", "1",
                                    "--field", "11", "--general", "--t", "2"])
    assert code == 0
    assert "q=11" in out


def test_hq_requires_params(capsys):
    code, _, err = run_cli(capsys, ["hq", "--field", "7"])
    assert code == 2


def test_hq_params_string_form(capsys):
    code, out, _ = run_cli(capsys, ["hq", "--params", "p=3 q=1,1,1",
                                    "--field", "7", "--t", "2",
                                    "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines()[1].startswith("7,2,")


def test_hq_inadmissible_field_exits_2(capsys):
    code, _, err = run_cli(capsys, ["hq", "--p", "2,2", "--q", "1,1,1,1",
                                    "--field", "8", "--t", "1"])
    assert code == 2
    assert "CharacteristicClash" in err


def test_element_codes_outside_the_field_exit_2(capsys):
    # 212 used to wrap to t = 1 at q = 211
    for argv in (["hq", "--p", "5", "--q", "1,1,1,1,1", "--field", "211",
                  "--t", "212"],
                 ["hq", "--p", "3", "--q", "1,1,1", "--field", "7",
                  "--t", "1.5"],
                 ["hq", "--p", "3", "--q", "1,1,1", "--field", "7,13",
                  "--t", "2,7"],
                 ["count", "--p", "3", "--q", "1,2", "--field", "7",
                  "--lam", "0"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "element code" in err
    code, out, _ = run_cli(capsys, ["hq", "--p", "3", "--q", "1,1,1",
                                    "--field", "13", "--t", "2,12"])
    assert code == 0
    assert "t=12" in out


def test_usage_error_is_2(capsys):
    code, _, _ = run_cli(capsys, ["bogus-subcommand"])
    assert code == 2


def test_verify_main_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "main", "--p", "3", "--q", "1,2",
                                    "--field", "7,13"])
    assert code == 0
    assert "MISMATCH" not in out
    assert "completed" in out


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def fake(load, r, s, at=None):  # one report, from the last case
        return [CountReport.compare("forced", 7, 1, 1, 2)] if at else []
    monkeypatch.setitem(cli._SUITES, "cells", (fake, "toric", None))
    code, out, err = run_cli(capsys, ["verify", "cells"])
    assert code == 1
    assert "MISMATCH" in err


def test_verify_summary_counts_the_rows(capsys, monkeypatch):
    import csv
    import io
    code, out, err = run_cli(capsys, ["verify", "main", "--p", "3",
                                      "--q", "1,2", "--field", "7,13",
                                      "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    skipped = sum(1 for r in rows if r["formula"] == "")
    ok = sum(1 for r in rows if r["formula"] != "" and r["equal"] == "True")
    assert skipped > 0 and ok + skipped == len(rows)
    assert err == f"verify main: {ok} ok, 0 mismatch, {skipped} skipped\n"

    def fake(load, r, s, at=None):  # two reports, from the last case
        return [CountReport.compare("forced", 7, 1, 1, 2),
                CountReport.compare("fine", 7, 2, 3, 3)] if at else []
    monkeypatch.setitem(cli._SUITES, "cells", (fake, "toric", None))
    code, _, err = run_cli(capsys, ["verify", "cells"])
    assert code == 1
    assert err.endswith("verify cells: 1 ok, 1 mismatch, 0 skipped\n")


def test_verify_singular_checks_every_skipped_fibre(capsys):
    # verify main --auto 16 skips 33 singular fibres; each is checked here
    code, out, err = run_cli(capsys, ["verify", "singular", "--auto", "16"])
    assert code == 0
    assert err == "verify singular: 33 ok, 0 mismatch, 0 skipped\n"
    assert out.count("[singular fiber]") == 33


def test_verify_singular_mismatch_exits_1(capsys, monkeypatch):
    from hqcount import variety
    real = variety.p_rs
    monkeypatch.setattr(variety, "p_rs", lambda r, s, q: real(r, s, q) + 1)
    code, _, err = run_cli(capsys, ["verify", "singular", "--p", "3",
                                    "--q", "1,2", "--field", "7"])
    assert code == 1
    assert err.endswith("verify singular: 0 ok, 1 mismatch, 0 skipped\n")


def test_verify_jobs_deterministic(capsys):
    argv = ["verify", "main", "--p", "3", "--q", "1,1,1", "--field", "7",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, argv + ["--jobs", "1"])
    code2, out2, _ = run_cli(capsys, argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_identical_reruns(capsys):
    argv = ["verify", "alt", "--field", "5", "--format", "csv"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_count_brute_only(capsys):
    code, out, _ = run_cli(capsys, ["count", "--p", "3", "--q", "1,2",
                                    "--field", "7", "--lam", "2",
                                    "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert {row["label"] for row in rows} == \
        {"torus(brute)", "completed(brute)"}
    assert all(row["formula"] is None for row in rows)


def test_table_prs(capsys):
    code, out, _ = run_cli(capsys, ["table", "prs", "--r", "2", "--s", "3"])
    assert code == 0
    assert out.strip() == "q^2 + 3*q + 1"
    code, out, _ = run_cli(capsys, ["table", "prs", "--r", "2", "--s", "3",
                                    "--at", "13"])
    assert out.strip() == "209"


def test_table_prs_renders_exponents_ten_and_up(capsys):
    code, out, _ = run_cli(capsys, ["table", "prs", "--r", "7", "--s", "6"])
    assert code == 0
    terms = out.strip().split(" + ")
    assert terms[:2] == ["q^10", "31*q^9"]
    assert terms[-2:] == ["31*q", "1"]


def test_table_cells_json(capsys):
    code, out, _ = run_cli(capsys, ["table", "cells", "--r", "1", "--s", "2",
                                    "--format", "json", "--p", "3",
                                    "--q", "1,2"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["pairs"] == []
    assert any(row["pairs"] == [[1, 1], [1, 2]] for row in rows)
    assert all("a_S" in row for row in rows)


def test_table_cells_text_renders_pairs(capsys):
    code, out, _ = run_cli(capsys, ["table", "cells", "--r", "2", "--s", "1"])
    assert code == 0
    assert "[(1,1),(2,1)]" in out


def test_cache_build_and_clear(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["cache", "build", "--field", "7,9",
                                    "--dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "hqft-7.tbl").exists()
    assert (tmp_path / "hqft-9.tbl").exists()
    code, out, _ = run_cli(capsys, ["cache", "clear", "--dir", str(tmp_path)])
    assert code == 0
    assert not list(tmp_path.glob("hqft-*.tbl"))


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HQ_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, ["cache", "build", "--field", "13"])
    assert code == 0
    assert (tmp_path / "hqft-13.tbl").exists()
    # computing against the cache works
    code, _, _ = run_cli(capsys, ["hq", "--p", "3", "--q", "1,1,1",
                                  "--field", "13", "--t", "1",
                                  "--cache-dir", str(tmp_path)])
    assert code == 0


def test_verify_stickelberger_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "stickelberger",
                                    "--field", "8,9"])
    assert code == 0


def test_verify_ono_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "ono", "--field", "5,7"])
    assert code == 0
    assert "legendre" in out


def test_verify_denominator_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "denominator", "--p", "3",
                                    "--q", "1,2", "--field", "7"])
    assert code == 0


def test_hq_auto_field_selection(capsys):
    # --auto N uses all admissible prime powers <= N for the parameters
    code, out, _ = run_cli(capsys, ["hq", "--p", "3", "--q", "1,1,1",
                                    "--auto", "8", "--t", "1",
                                    "--format", "csv"])
    assert code == 0
    qs = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
    assert qs == ["2", "4", "5", "7", "8"]  # coprime to 3


def test_verify_hd_quick(capsys):
    code, out, _ = run_cli(capsys, ["verify", "hd", "--field", "7"])
    assert code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hqcount", "table", "prs", "--r", "1",
         "--s", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "q + 1"


def test_verify_main_honours_q_cap(capsys):
    argv = ["verify", "main", "--p", "3", "--q", "1,2", "--field", "13"]
    code, out, err = run_cli(capsys, argv + ["--q-cap", "11"])
    assert code == 2
    assert out == "" and "cap 11" in err
    code, _, _ = run_cli(capsys, argv + ["--q-cap", "13"])
    assert code == 0


def test_jobs_is_a_verify_flag(capsys, tmp_path):
    for argv in (["hq", "--p", "3", "--q", "1,1,1", "--field", "7"],
                 ["count", "--p", "3", "--q", "1,2", "--field", "7"],
                 ["table", "prs", "--r", "2", "--s", "3"],
                 ["cache", "build", "--field", "7", "--dir", str(tmp_path)]):
        code, out, err = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 2, argv
        assert "--jobs" in err
    assert not list(tmp_path.iterdir())


def test_cache_dir_alias_overrides_the_environment(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("HQ_CACHE_DIR", str(tmp_path / "env"))
    for flag in ("--dir", "--cache-dir"):
        target = tmp_path / flag.strip("-")
        code, out, _ = run_cli(capsys, ["cache", "build", "--field", "7",
                                        flag, str(target)])
        assert code == 0
        assert out == f"wrote {target / 'hqft-7.tbl'}\n"
    assert not (tmp_path / "env").exists()


# -- datum flags, fields and jobs: handled alike by every command ------------

def test_verify_and_count_take_alpha_beta_as_a_datum(capsys):
    import csv
    import io
    for spec in (["--alpha", "1/3,2/3", "--beta", "1,1/2"],
                 ["--params", "alpha=1/3,2/3 beta=1,1/2"]):
        code, out, _ = run_cli(capsys, ["verify", "main", "--field", "7",
                                        "--format", "csv"] + spec)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6  # one datum, lambda = 1..6; not the catalog
        assert all(r["label"].startswith("completed p=3;q=2,1")
                   for r in rows)
        code, out, _ = run_cli(capsys, ["count", "--field", "7", "--lam", "2",
                                        "--format", "json"] + spec)
        assert code == 0
        assert len(json.loads(out)) == 2


def test_datum_not_defined_over_q_exits_2(capsys):
    for command in (["verify", "main"], ["count"]):
        code, out, err = run_cli(capsys, command + [
            "--alpha", "1/5", "--beta", "1", "--field", "11"])
        assert code == 2, command
        assert out == "" and "NotDefinedOverQ" in err


def test_half_given_datum_exits_2_for_every_command(capsys):
    for half in (["--p", "3"], ["--q", "1,2"], ["--alpha", "1/3,2/3"],
                 ["--beta", "1,1/2"]):
        for command in (["hq", "--field", "7"], ["count", "--field", "7"],
                        ["verify", "main", "--field", "7"],
                        ["table", "cells", "--r", "1", "--s", "2"]):
            code, out, err = run_cli(capsys, command + half)
            assert code == 2, command + half
            assert out == "" and "go together" in err


def test_datum_flags_exit_2_where_a_suite_takes_none(capsys):
    for suite in ("hd", "stickelberger", "ono", "alt", "cells"):
        code, out, err = run_cli(capsys, ["verify", suite, "--p", "3",
                                          "--q", "1,2"])
        assert code == 2, suite
        assert out == "" and "takes no datum" in err


def field_column(out: str) -> list[int]:
    import csv
    import io
    return [int(r["q"]) for r in csv.DictReader(io.StringIO(out))]


def test_auto_selects_fields_in_every_suite(capsys):
    for suite, auto, fields in (("hd", "5", [2, 3, 3, 4, 4, 5, 5, 5]),
                                ("stickelberger", "9", [2, 3, 4, 5, 7, 8, 9]),
                                ("alt", "7", [3, 3, 5, 5, 5, 5,
                                              7, 7, 7, 7, 7, 7])):
        code, out, _ = run_cli(capsys, ["verify", suite, "--auto", auto,
                                        "--format", "csv"])
        assert code == 0, suite
        assert field_column(out) == fields, suite


def test_explicit_fields_are_sorted_deduplicated_and_never_dropped(capsys):
    code, out, _ = run_cli(capsys, ["verify", "stickelberger",
                                    "--field", "9,7,9", "--format", "csv"])
    assert code == 0
    assert field_column(out) == [7, 9]
    # q = 7 fails (q-1) | 5; under --field it is an error, not a skip
    code, out, err = run_cli(capsys, ["verify", "rewrite", "--p", "5",
                                      "--q", "1,1,1,1,1", "--field", "7"])
    assert code == 2
    assert out == "" and "BadFieldForParams" in err
    code, out, _ = run_cli(capsys, ["verify", "rewrite", "--p", "5",
                                    "--q", "1,1,1,1,1", "--auto", "11",
                                    "--format", "csv"])
    assert code == 0
    assert field_column(out) == [11]


def test_fields_that_are_not_prime_powers_exit_2(capsys):
    for argv in (["verify", "main", "--field", "1"],
                 ["verify", "main", "--field", "1,7"],
                 ["verify", "hd", "--field", "6,7"],
                 ["hq", "--p", "3", "--q", "1,2", "--field", "1,7"],
                 ["count", "--p", "3", "--q", "1,2", "--field", "1,7"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == "" and "NotPrimePower" in err, argv


def test_a_selection_with_nothing_to_run_exits_2(capsys):
    for argv in (["verify", "main", "--auto", "1"],
                 ["verify", "stickelberger", "--auto", "1"],
                 ["verify", "rewrite", "--auto", "2"],
                 ["hq", "--p", "3", "--q", "1,2", "--auto", "1"],
                 ["count", "--p", "3", "--q", "1,2", "--auto", "1"],
                 ["hq", "--p", "3", "--q", "1,2", "--field", ","]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == "" and "nothing to run" in err, argv


def test_cells_rejects_field_selection(capsys):
    for flags in (["--field", "7"], ["--auto", "9"]):
        code, out, err = run_cli(capsys, ["verify", "cells"] + flags)
        assert code == 2, flags
        assert out == "" and "takes no --field or --auto" in err


def test_jobs_below_one_exit_2(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, ["verify", "stickelberger",
                                          "--field", "7", "--jobs", jobs])
        assert code == 2, jobs
        assert out == "" and "--jobs" in err


def test_pool_has_at_most_one_worker_per_case(capsys, monkeypatch):
    import concurrent.futures
    sizes = []

    class InlineExecutor:  # records the pool size; starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlineExecutor)
    argv = ["verify", "main", "--p", "3", "--q", "1,2", "--field", "7"]
    code, out, _ = run_cli(capsys, argv + ["--jobs", "64"])
    assert code == 0
    assert sizes == [6]  # six cases: lambda = 1..6
    assert out == run_cli(capsys, argv)[1]
    code, _, _ = run_cli(capsys, ["verify", "stickelberger", "--field",
                                  "7,9", "--jobs", "3"])
    assert code == 0
    assert sizes == [6, 2]
