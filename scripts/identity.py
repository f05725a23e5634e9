"""Models and CLI outputs of a parent commit against the working tree's.

Run from the repository root::

    python3 scripts/identity.py --parent HEAD

The parent's files (``--parent``, default ``HEAD``) are unpacked with ``git
archive`` into a temporary directory, as ``scripts/bench_pairs.py`` does.
Then ``scripts/model_digests.py`` and ``scripts/cli_outputs.py`` run from
the parent's tree and from the working tree, one process at a time. The
script prints every run whose model digest differs and every output file
that differs or is on one side only, and exits 1 if anything differs, 0 if
both sides are identical. A change that must leave models and the CLI's
outputs bit-identical exits 0. The whole run takes about 65 s on 2 cores.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, unpack


def outputs(checkout: str, out_dir: str) -> dict[str, str]:
    """Run both scripts of ``checkout``: its model digests by run name; the
    CLI outputs go into ``out_dir``."""
    def run(*args) -> str:
        return subprocess.run([sys.executable, *args], cwd=checkout, check=True,
                              stdout=subprocess.PIPE, text=True).stdout

    digests = dict(line.split() for line in run("scripts/model_digests.py").splitlines())
    run("scripts/cli_outputs.py", out_dir)
    return digests


def files(top: str) -> set[str]:
    """The paths of the files under ``top``, relative to it."""
    return {os.path.relpath(os.path.join(d, name), top)
            for d, _, names in os.walk(top) for name in names}


def same_file(a: str, b: str) -> bool:
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="the commit to compare against")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ilmart-identity-") as work:
        full = unpack(args.parent, work)
        old_dir, new_dir = os.path.join(work, "cli-parent"), os.path.join(work, "cli-change")
        old = outputs(os.path.join(work, "parent"), old_dir)
        new = outputs(ROOT, new_dir)
        names = sorted(files(old_dir) | files(new_dir))
        differ = [f"model digest differs: {run}" for run in sorted(old.keys() | new.keys())
                  if old.get(run) != new.get(run)]
        differ += [f"output differs: {name}" for name in names
                   if not same_file(os.path.join(old_dir, name), os.path.join(new_dir, name))]
    for line in differ:
        print(line)
    if not differ:
        print(f"identical to {full[:12]}: {len(new)} model digests, {len(names)} output files")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
