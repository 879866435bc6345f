"""Record ``expected.json`` from the program in ``src/``.

    python3 perfbench/record.py

Runs one untraced pass of every workload at the default seed and stores
the s values and quadruples of every row (|s| for the DT rows, which fix
the knot only up to mirror image).  The values are knot invariants, so
they hold for every seed.  Recording stops
without writing when a row has an error or fails an independent check
of ``gate.py`` (positive-braid formula, |s| of the DT rows).
"""

from __future__ import annotations

import json
import sys

from gate import EXPECTED, pass_problems, recorded
from inputs import WORKLOADS
from run import spawn

DEFAULT_SEED = 1


def main():
    table = {}
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", str(DEFAULT_SEED)]
        result = spawn(args, None)
        refs = spawn(args + ["--reference"], None) if workload == "dt_front" else None
        rows = {r["name"]: recorded(r, mirror=refs is not None)
                for r in result["rows"]}
        problems = pass_problems(result["names"], result["rows"], rows, refs)
        if problems:
            print(f"{workload}: not recorded: {problems}", file=sys.stderr)
            return 1
        table[workload] = rows
        print(f"{workload}: {len(rows)} rows in {result['wall_s']:.2f} s")
    with open(EXPECTED, "w") as f:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": table}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
