"""Record the golden CLI outputs under tests/data/golden/, or check them.

Run from the repository root::

    PYTHONPATH=src python3 tests/record_golden.py           # re-record
    PYTHONPATH=src python3 tests/record_golden.py --check   # compare only
    python3 tests/record_golden.py --against OTHER/src      # compare trees

For each corpus and mode of ``CASES`` it runs ``sinv compute --format
json --dump-complex`` and keeps the JSON rows without ``time_ms`` as
``<corpus>-<name>.json`` and the dump files under ``<corpus>-<name>/``,
the name of a mode and ring set being given in ``MODES``.
``--check`` writes the same files into a temporary directory instead,
prints the name of every file that differs from the golden one, is
missing or is new, and exits 1 if there is any; the golden files are left
as they are.  ``tests/test_cli.py`` runs the same comparison, so any change
to a number or to the scan's final complex shows there.  Re-record only
when such a change is meant (a new scan order, say), and say why in
CHANGES.md.

``--against OTHER_SRC`` compares two package trees instead: it runs
``sinv compute`` in a fresh interpreter from ``src/`` beside this
directory and from ``OTHER_SRC`` on every corpus and mode of
``AGAINST_CASES``, prints the name of every JSON or dump file whose
output differs between them and exits 1 if there is any.  It writes no
golden file, so it checks that a change keeps every output bit-identical
to another tree's, such as a checkout of the parent commit.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")

CORPORA = ("mixed_knots", "k16")
# (mode, rings) -> the name of its files after the corpus: F2 alone
# scans the reduced complex, every other ring set the closed one
MODES = {
    ("s", "f2,f3,q"): "s", ("kh", "f2,q"): "kh", ("sq1", "z4,f2"): "sq1",
    ("s", "f2"): "s-f2",
}
CASES = tuple((corpus, mode, rings) for corpus in CORPORA for mode, rings in MODES)

# every corpus of tests/data in one mode and ring set per scan ring:
# F2, Z and Z/4Z in the windowed modes, Z unwindowed
AGAINST_CORPORA = ("dt_braids", "k16", "mixed_knots", "pairs", "rational_upto10")
AGAINST_MODES = (("s", "f2"), ("s", "f2,f3,q"), ("sq1", "z4,f2"), ("kh", "f2,q"))
AGAINST_CASES = tuple(
    (corpus, mode, rings)
    for corpus in AGAINST_CORPORA for mode, rings in AGAINST_MODES
)


def compute_case(corpus, mode, rings, dump_dir, src=None):
    """The JSON text of one case, without ``time_ms``; dumps go to dump_dir.

    The case runs in this process, or with ``src`` in a fresh interpreter
    that imports the package from that directory.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.json")
        argv = [
            "compute", "--input", os.path.join(DATA, f"{corpus}.txt"),
            "--mode", mode, "--ring", rings, "--format", "json",
            "--out", out, "--dump-complex", dump_dir,
        ]
        if src is None:
            from bnscan.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "bnscan.cli", *argv],
                env={**os.environ, "PYTHONPATH": src},
                stdout=subprocess.DEVNULL,
            ).returncode
        if code != 0:
            raise RuntimeError(f"sinv compute exited {code} on {corpus} {mode}")
        with open(out) as f:
            rows = json.load(f)
    for row in rows:
        del row["time_ms"]
    return json.dumps(rows, indent=1, sort_keys=True) + "\n"


def record(dest, cases=CASES, src=None, stem="{corpus}-{name}"):
    """Write every case's JSON file and dump directory into dest.

    ``stem`` names both after the case's corpus, mode and rings, and
    ``name``, its name in ``MODES`` (the mode if it has none); ``src``
    is passed on to ``compute_case``.
    """
    for corpus, mode, rings in cases:
        name = MODES.get((mode, rings), mode)
        path = os.path.join(
            dest, stem.format(corpus=corpus, mode=mode, rings=rings, name=name)
        )
        text = compute_case(corpus, mode, rings, path, src)
        with open(path + ".json", "w") as f:
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
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="compare with the outputs of the package under"
                    " OTHER_SRC instead; writes no golden file")
    args = ap.parse_args(argv)
    if not (args.check or args.against):
        if os.path.isdir(GOLDEN):
            shutil.rmtree(GOLDEN)
        os.makedirs(GOLDEN)
        record(GOLDEN)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            trees = os.path.join(tmp, "theirs"), os.path.join(tmp, "ours")
            for dest, src in zip(trees, (os.path.abspath(args.against), SRC)):
                record(dest, AGAINST_CASES, src, "{corpus}-{mode}-{rings}")
        else:
            record(tmp)
            trees = GOLDEN, tmp
        names = differing(*trees)
    for name in names:
        print(f"differs: {name}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main())
