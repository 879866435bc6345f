"""Record the golden CLI outputs under tests/data/golden/, or check them.

Run from the repository root::

    PYTHONPATH=src python3 tests/record_golden.py           # re-record
    PYTHONPATH=src python3 tests/record_golden.py --check   # compare only

For each corpus and mode of ``CASES`` it runs ``sinv compute --format
json --dump-complex`` and keeps the JSON rows without ``time_ms`` as
``<corpus>-<mode>.json`` and the dump files under ``<corpus>-<mode>/``.
``--check`` writes the same files into a temporary directory instead,
prints the name of every file that differs from the golden one, is
missing or is new, and exits 1 if there is any; the golden files are left
as they are.  ``tests/test_cli.py`` runs the same comparison, so any change
to a number or to the scan's final complex shows there.  Re-record only
when such a change is meant (a new scan order, say), and say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "golden")

CORPORA = ("mixed_knots", "k16")
MODES = (("s", "f2,f3,q"), ("kh", "f2,q"), ("sq1", "z4,f2"))
CASES = tuple((corpus, mode, rings) for corpus in CORPORA for mode, rings in MODES)


def compute_case(corpus, mode, rings, dump_dir):
    """The JSON text of one case, without ``time_ms``; dumps go to dump_dir."""
    from bnscan.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "compute", "--input", os.path.join(DATA, f"{corpus}.txt"),
                "--mode", mode, "--ring", rings, "--format", "json",
                "--out", out, "--dump-complex", dump_dir,
            ])
        if code != 0:
            raise RuntimeError(f"sinv compute exited {code} on {corpus} {mode}")
        with open(out) as f:
            rows = json.load(f)
    for row in rows:
        del row["time_ms"]
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def record(dest):
    """Write every case's JSON file and dump directory into dest."""
    for corpus, mode, rings in CASES:
        stem = os.path.join(dest, f"{corpus}-{mode}")
        text = compute_case(corpus, mode, rings, stem)
        with open(stem + ".json", "w") as f:
            f.write(text)


def differing(expected, got):
    """Relative paths of the files that differ between two trees, sorted.

    A file present in only one of them counts as differing.
    """
    def files(root):
        return {
            os.path.relpath(os.path.join(d, name), root)
            for d, _dirs, names in os.walk(root) for name in names
        }

    ours, theirs = files(expected), files(got)
    same = {
        name for name in ours & theirs
        if filecmp.cmp(os.path.join(expected, name), os.path.join(got, name),
                       shallow=False)
    }
    return sorted((ours | theirs) - same)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the golden files without rewriting them")
    args = ap.parse_args(argv)
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            record(tmp)
            names = differing(GOLDEN, tmp)
        for name in names:
            print(f"differs: {name}")
        return 1 if names else 0
    if os.path.isdir(GOLDEN):
        shutil.rmtree(GOLDEN)
    os.makedirs(GOLDEN)
    record(GOLDEN)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main())
