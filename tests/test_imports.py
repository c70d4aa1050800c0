"""Each subcommand loads only the modules it runs.

Every check starts a fresh interpreter, since this test process has
already imported the whole package.
"""

import json
import os
import subprocess
import sys
import textwrap

import hqcount

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hqcount.__file__)))


def loaded_after(code: str) -> set[str]:
    """The modules in sys.modules after running code in a fresh process."""
    script = (textwrap.dedent(code)
              + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("HQ_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "hqcount" or m.startswith("hqcount.")}


def after_cli(argv: list[str]) -> set[str]:
    return loaded_after(f"""
        import contextlib, io
        from hqcount import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run({argv!r}) == 0
        """)


def test_import_loads_no_submodule():
    assert package_modules(loaded_after("import hqcount")) == {"hqcount"}


def test_cache_build_loads_field_alone(tmp_path):
    loaded = after_cli(["cache", "build", "--field", "7,9",
                        "--cache-dir", str(tmp_path)])
    assert package_modules(loaded) == {"hqcount", "hqcount.cli",
                                       "hqcount.errors", "hqcount.field"}
    assert (tmp_path / "hqft-9.tbl").exists()


def test_hq_loads_no_brute_engine():
    loaded = after_cli(["hq", "--p", "3", "--q", "1,1,1", "--field", "7"])
    assert "hqcount.hyper" in loaded
    for name in ("hqcount.variety", "hqcount.toric", "hqcount.catalog",
                 "concurrent.futures"):
        assert name not in loaded, name


def test_pool_machinery_loads_only_for_a_pool():
    argv = ["verify", "main", "--p", "3", "--q", "1,2", "--field", "7"]
    assert "concurrent.futures" not in after_cli(argv + ["--jobs", "1"])
    assert "concurrent.futures" in after_cli(argv + ["--jobs", "2"])


def test_every_public_name_resolves():
    loaded = loaded_after("""
        import hqcount
        missing = set(hqcount.__all__) - set(dir(hqcount))
        assert not missing, missing
        for name in hqcount.__all__:
            assert getattr(hqcount, name).__name__ == name, name
        assert not hasattr(hqcount, "no_such_name")
        """)
    assert "hqcount.variety" in loaded


def test_submodules_import_by_name():
    loaded = loaded_after("""
        from hqcount import cyclo, field
        assert field.build_field(7).q == 7
        assert cyclo.CycloNum.const(3, 1).is_rational()
        """)
    assert package_modules(loaded) == {"hqcount", "hqcount.cyclo",
                                       "hqcount.errors", "hqcount.field"}


def test_verify_hd_loads_no_brute_engine():
    loaded = after_cli(["verify", "hd", "--field", "7"])
    assert "hqcount.gauss" in loaded
    for name in ("hqcount.variety", "hqcount.toric"):
        assert name not in loaded, name
