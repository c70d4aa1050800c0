#!/usr/bin/env python3
"""Freeze the stdout digest of every pool member into ``golden.json``.

    python3 bench/freeze.py

Run from the repository root, on the commit whose outputs are the
reference.  Digests already in the file are never replaced, so a later
commit cannot overwrite the reference by accident; an output that breaks
one of the benchmark's own invariants is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import HERE, Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
    root = os.getcwd()
    base = os.path.join(root, ".hqbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="freeze-", dir=base)
    runner = Runner(root, work)
    status = 0
    try:
        for size in ("smoke", "full"):
            for w in WORKLOADS.values():
                frozen = golden.setdefault(size, {}).setdefault(w.name, {})
                for member in w.pools[size]:
                    if member.label in frozen:
                        continue
                    cache = tempfile.mkdtemp(dir=work)
                    runner.hqcount(["cache", "build", "--field",
                                    ",".join(map(str, member.fields)),
                                    "--cache-dir", cache])
                    res = runner.hqcount(list(member.argv)
                                         + ["--cache-dir", cache])
                    check = w.check(member, res["stdout"])
                    if (res["rc"] or check.problems
                            or check.items != w.expected_items[size]):
                        print(f"refused {size} {w.name} {member.label}: rc "
                              f"{res['rc']}, {check}", file=sys.stderr)
                        status = 1
                        continue
                    frozen[member.label] = hashlib.sha256(
                        res["stdout"]).hexdigest()
                    print(f"{size} {w.name} {member.label} "
                          f"{frozen[member.label][:16]} {res['wall']:.2f}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
