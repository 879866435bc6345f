"""Tests of the benchmark itself: inputs, gate, tracer and result line.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import draw  # noqa: E402
import inputs  # noqa: E402
from gate import load_expected, pass_problems  # noqa: E402

EXPECTED = load_expected()["workloads"]


def rows_like(workload):
    """Output rows equal to the recorded values, as a pass reports them."""
    return [dict(v, name=k, error=None) for k, v in EXPECTED[workload].items()]


# --- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert inputs.build(name, 7) == inputs.build(name, 7)


@pytest.mark.parametrize("name", ["scan_hard", "sq1_table"])
def test_fixed_diagram_seed_only_relabels(name):
    a, b = inputs.build(name, 1), inputs.build(name, 2)
    assert sorted(r.name for r in a.rows) == sorted(EXPECTED[name])
    by_name = {r.name: r for r in b.rows}
    for row in a.rows:
        other = by_name[row.name]
        assert row.code != other.code
        xa = inputs.pd_crossings(row.code)
        xb = inputs.pd_crossings(other.code)
        # one bijection of labels maps crossing i onto crossing i
        mapping = {}
        for ca, cb in zip(xa, xb, strict=True):
            for ea, eb in zip(ca, cb):
                assert mapping.setdefault(ea, eb) == eb
        assert len(set(mapping.values())) == len(mapping)


def test_dt_table_is_the_recorded_draw():
    assert tuple(inputs.read_table("dt_front.txt")) == draw.dt_rows()


def test_dt_rows_are_prime_knot_closures():
    rows = inputs.build("dt_front", 3).rows
    assert sorted(r.name for r in rows) == sorted(EXPECTED["dt_front"])
    for row in rows:
        assert len(row.braid) == draw.CROSSINGS
        assert draw.closes_to_knot(row.braid, inputs.DT_STRANDS)
        closure = inputs.braid_closure(row.braid, inputs.DT_STRANDS)
        assert draw.is_prime_diagram(closure)
        assert row.code == draw.dt_code(closure)


def test_prime_diagram_rejects_connected_sum():
    trefoil = (1, 1, 1)
    # sigma_1^3 sigma_2^3 on 3 strands: two trefoils joined in a sum
    assert draw.is_prime_diagram(inputs.braid_closure(trefoil, 2))
    assert not draw.is_prime_diagram(
        inputs.braid_closure((1, 1, 1, 2, 2, 2), 3))


# --- gate -------------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_gate_passes_recorded_values(workload):
    rows = rows_like(workload)
    names = [r["name"] for r in rows]
    assert pass_problems(names, rows, EXPECTED[workload]) == {}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_gate_fails_one_altered_expected_value(workload):
    rows = rows_like(workload)
    names = [r["name"] for r in rows]
    altered = copy.deepcopy(EXPECTED[workload])
    victim = sorted(altered)[0]
    altered[victim]["s"]["f2"] += 2
    assert list(pass_problems(names, rows, altered)) == [victim]


def test_gate_independent_checks():
    expected = {"T(2,5)": {"s": {"f2": 2}}, "dt00": {"s": {"f2": 4}}}
    rows = [{"name": "T(2,5)", "s": {"f2": 2}, "error": None},
            {"name": "dt00", "s": {"f2": -4}, "error": None}]
    found = pass_problems(["T(2,5)", "dt00"], rows, expected, {"dt00": 2})
    assert "positive-braid formula gives 4" in found["T(2,5)"][0]
    assert "PD closure gives 2" in found["dt00"][0]
    assert pass_problems(["dt00"], rows[1:], expected, {"dt00": 4}) == {}
    failed = pass_problems(["dt00"], rows[1:], expected, {"dt00": "boom"})
    assert failed == {"dt00": ["PD closure failed: boom"]}


def test_gate_compares_dt_rows_up_to_mirror_image():
    expected = {"dt00": {"s": {"f2": 2}}}
    mirrored = [{"name": "dt00", "s": {"f2": -2}, "error": None}]
    assert pass_problems(["dt00"], mirrored, expected, {"dt00": 2}) == {}
    wrong = [{"name": "dt00", "s": {"f2": 4}, "error": None}]
    found = pass_problems(["dt00"], wrong, expected, {"dt00": 2})
    assert found["dt00"][0] == "s = {'f2': 4}, expected {'f2': 2}"
    # rows without a reference keep their sign
    found = pass_problems(["dt00"], mirrored, expected)
    assert found["dt00"] == ["s = {'f2': -2}, expected {'f2': 2}"]


def test_gate_counts_errors_and_missing_rows():
    rows = rows_like("scan_hard")
    rows[0]["error"] = "ValueError: boom"
    names = [r["name"] for r in rows] + ["extra"]
    found = pass_problems(names, rows, dict(EXPECTED["scan_hard"], extra={}))
    assert set(found) == {rows[0]["name"], "extra"}


# --- tracer -----------------------------------------------------------------


def test_tracer_wraps_and_restores(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bnscan.cli as cli
    import bnscan.complex as cx
    import bnscan.sq1 as sq1
    from spans import REPEATED, Tracer

    originals = (cx.compose, cli.scan, sq1.scan, sq1.scan_order)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert cx.compose is not originals[0]
            assert cli.scan is not originals[1] and sq1.scan is cli.scan
            assert sq1.scan_order is not originals[3]
            row = inputs.Row("T(2,5)", inputs.pd_text(
                inputs.braid_closure((1,) * 5, 2)))
            path = tmp_path / "knot.txt"
            path.write_text(row.line() + "\n")
            (out,) = cli.run(cli.Job(input_path=str(path), mode="sq1"))
        finally:
            tracer.uninstall()
        assert tracer.restored()
        assert (cx.compose, cli.scan, sq1.scan, sq1.scan_order) == originals
        assert out.s_values == {"f2": 4} and out.error is None
        m = {k: v for k, (v, _u) in tracer.metrics(1).items()}
        assert m["complex.scans"] == 2 and m["cob.compose_calls"] > 0
        counts.append({k: m[k] for k in REPEATED})
    assert counts[0] == counts[1]


# --- the result line --------------------------------------------------------


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def copy_benchmark(dest):
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def test_run_fails_when_an_expected_value_is_altered(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = load_expected()
    table["workloads"]["scan_hard"]["k16"]["s"]["q"] += 2
    (tmp_path / "perfbench" / "expected.json").write_text(json.dumps(table))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_hard",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "FAILED k16" in proc.stdout
    assert set(result["metrics"]) == {"wall_s", "knot_s_p50", "peak_rss_mb",
                                      "setup_s"}


def test_run_without_program_exits_nonzero(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_hard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
