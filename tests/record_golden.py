"""Record the golden CLI outputs under tests/data/golden/.

Run from the repository root:  PYTHONPATH=src python3 tests/record_golden.py

For each corpus and mode of ``CASES`` it runs ``sinv compute --format
json --dump-complex`` and keeps the JSON rows without ``time_ms`` as
``<corpus>-<mode>.json`` and the dump files under ``<corpus>-<mode>/``.
``tests/test_cli.py`` runs the same cases and compares byte for byte, so
any change to a number or to the scan's final complex shows there.
Re-record only when such a change is meant (a new scan order, say), and
say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
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


def main():
    if os.path.isdir(GOLDEN):
        shutil.rmtree(GOLDEN)
    os.makedirs(GOLDEN)
    for corpus, mode, rings in CASES:
        stem = os.path.join(GOLDEN, f"{corpus}-{mode}")
        text = compute_case(corpus, mode, rings, stem)
        with open(stem + ".json", "w") as f:
            f.write(text)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    main()
