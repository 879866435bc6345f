import csv
import io
import json
import os
import subprocess
import sys

import pytest

import bnscan.cli as cli
from bnscan.cli import Job, main, report, rows_to_csv, rows_to_json, run
from bnscan.coeff import F2, Z, Z4, ring_from_name
from bnscan.complex import dump, scan
from bnscan.diagram import orient_and_sign, parse_knot_line, parse_pd, scan_order
from bnscan.sinv import from_filtered, khovanov_table, s_invariant
from knotgen import PD_FIGURE8, PD_TREFOIL

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(args, cwd):
    """Run the interpreter on ``args`` in a new process that imports
    ``bnscan`` from ``src/``, and return the finished process."""
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture
def knot_file(tmp_path):
    path = tmp_path / "knots.txt"
    path.write_text(
        "# small corpus\n"
        f"trefoil ; {PD_TREFOIL}\n"
        f"fig8 ; {PD_FIGURE8}\n"
        "unknot ; PD[]\n"
    )
    return str(path)


def test_run_mode_s_three_rings(knot_file):
    rows = run(Job(knot_file, mode="s", rings=("f2", "f3", "q")))
    assert [r.name for r in rows] == ["trefoil", "fig8", "unknot"]
    assert rows[0].s_values == {"f2": 2, "f3": 2, "q": 2}
    assert rows[1].s_values == {"f2": 0, "f3": 0, "q": 0}
    assert rows[2].s_values == {"f2": 0, "f3": 0, "q": 0}
    assert all(r.error is None for r in rows)


def test_run_mode_sq1(knot_file):
    rows = run(Job(knot_file, mode="sq1", rings=("z4", "f2")))
    assert rows[0].quadruple == (2, 2, 2, 2)
    assert rows[0].s_values["f2"] == 2
    assert rows[1].quadruple == (0, 0, 0, 0)


def test_run_mode_kh(knot_file):
    rows = run(Job(knot_file, mode="kh", rings=("q",)))
    assert rows[0].kh_tables["q"] == {
        "0,1": 1, "0,3": 1, "2,5": 1, "3,9": 1
    }


def test_malformed_line_is_captured_per_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        f"good ; {PD_TREFOIL}\n"
        "broken ; PD[X[1,1,1,2]]\n"
    )
    rows = run(Job(str(path), mode="s", rings=("f2",)))
    assert rows[0].error is None
    assert rows[1].error and "ParseError" in rows[1].error


def test_fail_fast_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("broken ; PD[X[1,1,1,2]]\n")
    with pytest.raises(RuntimeError):
        run(Job(str(path), mode="s", rings=("f2",), fail_fast=True))


def test_parallel_serial_identical(knot_file):
    serial = run(Job(knot_file, mode="s", rings=("f2", "q")))
    parallel = run(Job(knot_file, mode="s", rings=("f2", "q"), jobs=3))
    for a, b in zip(serial, parallel):
        assert (a.name, a.s_values, a.error) == (b.name, b.s_values, b.error)


def test_csv_json_round_trip(knot_file):
    rows = run(Job(knot_file, mode="s", rings=("f2", "q")))
    text = rows_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert [p["name"] for p in parsed] == ["trefoil", "fig8", "unknot"]
    assert parsed[0]["s_f2"] == "2" and parsed[0]["s_q"] == "2"
    data = json.loads(rows_to_json(rows))
    assert data[0]["s"] == {"f2": 2, "q": 2}
    assert [d["name"] for d in data] == [p["name"] for p in parsed]


def test_report_runs_and_counts(knot_file):
    rows = run(Job(knot_file, mode="sq1", rings=("z4", "f2")))
    text = report(rows)
    assert "trefoil" in text
    assert "0 non-standard" in text
    empty = report([])
    assert "0 of 0 knots" in empty


def test_main_end_to_end(tmp_path, knot_file, capsys):
    out = tmp_path / "res.csv"
    code = main(
        [
            "compute",
            "--input", knot_file,
            "--mode", "s",
            "--ring", "f2,q",
            "--out", str(out),
            "--format", "csv",
        ]
    )
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "3 of 3 knots processed" in captured.out


def test_main_missing_file_is_io_error(tmp_path):
    code = main(["compute", "--input", str(tmp_path / "nothere.txt")])
    assert code == 1


def test_main_bad_ring(knot_file, capsys):
    # f0 names Z/0Z, which has no residues: refused before a ring is built
    for ring in ("f6", "f0"):
        code = main(["compute", "--input", knot_file, "--ring", ring])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_main_fail_fast_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("broken ; PD[X[1,1,1,2]]\n")
    code = main(["compute", "--input", str(path), "--fail-fast"])
    assert code == 2


def test_dump_complex_files(tmp_path, knot_file):
    dump_dir = tmp_path / "dumps"
    rows = run(
        Job(knot_file, mode="s", rings=("f2",), dump_dir=str(dump_dir))
    )
    assert all(r.error is None for r in rows)
    files = sorted(os.listdir(dump_dir))
    assert files == ["fig8.txt", "trefoil.txt", "unknot.txt"]
    content = (dump_dir / "trefoil.txt").read_text()
    assert content.strip()


def test_a_row_without_a_name_is_named_after_its_line(tmp_path, capsys):
    # an empty name before the ';' would print a blank name and dump to
    # a hidden file ".txt"
    path = tmp_path / "knots.txt"
    path.write_text(f"# no names\n;{PD_TREFOIL}\n  ; {PD_FIGURE8}\n")
    dump_dir, out = tmp_path / "dumps", tmp_path / "out.json"
    args = ["compute", "--input", str(path), "--format", "json", "--out", str(out),
            "--dump-complex", str(dump_dir)]
    assert main(args) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert [(r["name"], r["s"]) for r in rows] == [
        ("line2", {"f2": 2}), ("line3", {"f2": 0})
    ]
    assert sorted(os.listdir(dump_dir)) == ["line2.txt", "line3.txt"]


def test_rerun_bit_identical(knot_file):
    one = rows_to_json(run(Job(knot_file, mode="sq1", rings=("z4", "f2"))))
    two = rows_to_json(run(Job(knot_file, mode="sq1", rings=("z4", "f2"), jobs=2)))
    # timing differs; strip it before comparing
    a = [{k: v for k, v in e.items() if k != "time_ms"} for e in json.loads(one)]
    b = [{k: v for k, v in e.items() if k != "time_ms"} for e in json.loads(two)]
    assert a == b


def count_scans(monkeypatch):
    """Record the ring of every scan and count the scan orders built."""
    calls = {"scan": [], "scan_order": 0}

    def scan_counted(order, ring, mode, _real=cli.scan):
        calls["scan"].append(ring.name)
        return _real(order, ring, mode)

    def order_counted(od, _real=cli.scan_order):
        calls["scan_order"] += 1
        return _real(od)

    monkeypatch.setattr(cli, "scan", scan_counted)
    monkeypatch.setattr(cli, "scan_order", order_counted)
    return calls


def test_mode_s_scans_once_per_row_and_dumps_that_scan(
    tmp_path, knot_file, monkeypatch
):
    calls = count_scans(monkeypatch)
    dump_dir = tmp_path / "dumps"
    rows = run(Job(knot_file, mode="s", rings=("f2", "q"), dump_dir=str(dump_dir)))
    assert rows[0].s_values == {"f2": 2, "q": 2}
    # several fields share one scan over Z
    assert calls == {"scan": ["z"] * 3, "scan_order": 3}
    so = scan_order(orient_and_sign(parse_pd(PD_TREFOIL)))
    assert (dump_dir / "trefoil.txt").read_text() == dump(scan(so, Z, "s"))
    # a field other than F2 alone reads the scan over Z as well
    calls["scan"].clear()
    rows = run(Job(knot_file, mode="s", rings=("q",), dump_dir=str(dump_dir)))
    assert [r.s_values for r in rows] == [{"q": 2}, {"q": 0}, {"q": 0}]
    assert calls["scan"] == ["z"] * 3
    assert (dump_dir / "trefoil.txt").read_text() == dump(scan(so, Z, "s"))
    assert sorted(os.listdir(dump_dir)) == ["fig8.txt", "trefoil.txt", "unknot.txt"]


def test_mode_kh_scans_once_per_row_and_dumps_that_scan(
    tmp_path, knot_file, monkeypatch
):
    calls = count_scans(monkeypatch)
    dump_dir = tmp_path / "dumps"
    rows = run(Job(knot_file, mode="kh", rings=("f2", "q"), dump_dir=str(dump_dir)))
    assert rows[0].kh_tables["q"] == {"0,1": 1, "0,3": 1, "2,5": 1, "3,9": 1}
    assert rows[0].kh_tables["f2"] == {
        "0,1": 1, "0,3": 1, "2,5": 1, "2,7": 1, "3,7": 1, "3,9": 1
    }
    assert calls == {"scan": ["z"] * 3, "scan_order": 3}
    assert sorted(os.listdir(dump_dir)) == ["fig8.txt", "trefoil.txt", "unknot.txt"]
    so = scan_order(orient_and_sign(parse_pd(PD_TREFOIL)))
    assert (dump_dir / "trefoil.txt").read_text() == dump(scan(so, Z, "kh"))


def test_mode_sq1_scans_once_per_row_and_dumps_that_scan(
    tmp_path, knot_file, monkeypatch
):
    calls = count_scans(monkeypatch)
    dump_dir = tmp_path / "dumps"
    rows = run(Job(knot_file, mode="sq1", rings=("z4", "f2"), dump_dir=str(dump_dir)))
    assert [r.quadruple for r in rows] == [(2, 2, 2, 2), (0,) * 4, (0,) * 4]
    assert calls == {"scan": ["z4"] * 3, "scan_order": 3}
    assert sorted(os.listdir(dump_dir)) == ["fig8.txt", "trefoil.txt", "unknot.txt"]
    so = scan_order(orient_and_sign(parse_pd(PD_FIGURE8)))
    assert (dump_dir / "fig8.txt").read_text() == dump(scan(so, Z4, "sq1"))


def test_an_empty_ring_list_is_rejected(knot_file, capsys):
    for mode in ("s", "kh"):
        with pytest.raises(ValueError, match=f"mode {mode} needs at least one ring"):
            run(Job(knot_file, mode=mode, rings=()))
        assert main(["compute", "--input", knot_file, "--mode", mode, "--ring", ""]) == 1
        assert "needs at least one ring" in capsys.readouterr().err
    # mode sq1 chooses its own rings
    assert run(Job(knot_file, mode="sq1", rings=()))[0].quadruple == (2, 2, 2, 2)


def test_ring_names_are_lowercased_and_kept_once(knot_file, monkeypatch, capsys):
    # every spelling of a field (f2, F2, f02) is one column under its name
    calls = count_scans(monkeypatch)
    rows = run(Job(knot_file, mode="s", rings=("f2", "F2", "f02")))
    assert [r.s_values for r in rows] == [{"f2": 2}, {"f2": 0}, {"f2": 0}]
    assert calls["scan"] == ["f2"] * 3  # one field: no scan over Z
    calls["scan"].clear()
    rows = run(Job(knot_file, mode="s", rings=("Q", "f3", "q", "F3", "f03")))
    assert list(rows[0].s_values) == ["q", "f3"]
    assert calls["scan"] == ["z"] * 3
    out = os.path.join(os.path.dirname(knot_file), "out.csv")
    argv = ["compute", "--input", knot_file, "--ring", "f2,F2,f02", "--out", out]
    assert main(argv) == 0
    capsys.readouterr()
    with open(out) as f:
        assert next(csv.reader(f))[:3] == ["name", "s_f2", "r_plus"]


def test_any_row_exception_is_captured_per_row(knot_file, monkeypatch):
    real = cli.parse_knot_line
    calls = []

    def failing_first(line):
        calls.append(line)
        if len(calls) == 1:
            raise AssertionError("boom")
        return real(line)

    monkeypatch.setattr(cli, "parse_knot_line", failing_first)
    rows = run(Job(knot_file, mode="s", rings=("f2",)))
    assert [r.error for r in rows] == ["AssertionError: boom", None, None]
    assert rows[1].s_values == {"f2": 0}


def test_any_row_exception_is_captured_per_row_in_a_pool(tmp_path, knot_file):
    # a directory in the way of one dump file fails that row alone
    dump_dir = tmp_path / "dumps"
    (dump_dir / "fig8.txt").mkdir(parents=True)
    rows = run(Job(knot_file, mode="s", rings=("f2",), jobs=2,
                   dump_dir=str(dump_dir)))
    assert [r.name for r in rows] == ["trefoil", "fig8", "unknot"]
    assert rows[1].error.startswith("IsADirectoryError: ")
    assert rows[0].error is None and rows[0].s_values == {"f2": 2}
    assert rows[2].error is None and rows[2].s_values == {"f2": 0}


@pytest.mark.parametrize("jobs", [1, 2])
def test_fail_fast_stops_at_the_first_failing_row(tmp_path, jobs):
    with open(os.path.join(DATA, "k16.txt")) as f:
        (k16,) = [ln.split(";", 1)[1] for ln in f if ln.startswith("k16")]
    n = 8
    path = tmp_path / "knots.txt"
    path.write_text(
        "broken ; PD[X[1,1,1,2]]\n"
        + "".join(f"k16_{i} ; {k16.strip()}\n" for i in range(n))
    )
    dump_dir = tmp_path / "dumps"
    with pytest.raises(RuntimeError, match="^broken: ParseError"):
        run(Job(str(path), mode="s", rings=("f2",), jobs=jobs,
                fail_fast=True, dump_dir=str(dump_dir)))
    # rows after the failing one are not computed, or only those a
    # worker had already taken
    done = len(os.listdir(dump_dir))
    assert done == 0 if jobs == 1 else done < n


def test_non_field_rings_are_rejected_up_front(knot_file, capsys):
    for mode, rings in (("s", ("z", "q")), ("s", ("f2", "z4")), ("kh", ("z",))):
        with pytest.raises(ValueError, match="needs a field, not ring 'z"):
            run(Job(knot_file, mode=mode, rings=rings))
    code = main(["compute", "--input", knot_file, "--mode", "s", "--ring", "z,q"])
    assert code == 1
    assert "'z'" in capsys.readouterr().err
    code = main(["compute", "--input", knot_file, "--mode", "kh", "--ring", "z"])
    assert code == 1


def test_an_unknown_ring_is_rejected_in_every_mode(tmp_path, knot_file, capsys):
    missing = str(tmp_path / "missing.txt")
    for mode in ("s", "kh", "sq1"):
        with pytest.raises(ValueError, match="unknown ring 'nonsense'"):
            run(Job(missing, mode=mode, rings=("nonsense",)))
        args = ["compute", "--input", knot_file, "--mode", mode]
        assert main(args + ["--ring", "nonsense"]) == 1
        assert "unknown ring 'nonsense'" in capsys.readouterr().err
    # mode sq1 keeps taking the rings it works over
    assert main(["compute", "--input", knot_file, "--mode", "sq1", "--ring", "z4,f2"]) == 0
    assert "3 of 3 knots processed" in capsys.readouterr().out


def test_outputs_and_dumps_match_the_golden_files(tmp_path):
    # JSON rows without time_ms and every dump file, byte for byte, as
    # recorded by tests/record_golden.py, whose --check compares the same way
    from record_golden import CASES, GOLDEN, MODES, differing, record

    record(str(tmp_path))
    for corpus, mode, rings in CASES:
        stem = f"{corpus}-{MODES[mode, rings]}"
        assert os.listdir(os.path.join(GOLDEN, stem)), (corpus, mode, rings)
    assert differing(GOLDEN, str(tmp_path)) == []


def test_record_golden_check_names_each_differing_file(tmp_path, capsys):
    # --check rewrites nothing: it names the changed, missing and new
    # files of a fresh recording and exits 1, or exits 0 when all agree
    import shutil
    from unittest import mock

    import record_golden
    from record_golden import GOLDEN

    def copy(dest):
        shutil.copytree(GOLDEN, dest, dirs_exist_ok=True)

    def tampered(dest):
        copy(dest)
        with open(os.path.join(dest, "k16-s.json"), "a") as f:
            f.write(" ")
        dumps = os.path.join(dest, "k16-kh")
        gone = sorted(os.listdir(dumps))[0]
        os.remove(os.path.join(dumps, gone))
        open(os.path.join(dumps, "new.txt"), "w").close()
        return gone

    gone = tampered(str(tmp_path / "probe"))
    with mock.patch.object(record_golden, "record", tampered):
        assert record_golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {name}" for name in sorted(
            ["k16-s.json", os.path.join("k16-kh", gone),
             os.path.join("k16-kh", "new.txt")]
        )
    ]
    with mock.patch.object(record_golden, "record", copy):
        assert record_golden.main(["--check"]) == 0
    assert capsys.readouterr().out == ""
    assert not os.path.exists(os.path.join(GOLDEN, "k16-kh", "new.txt"))


def test_record_golden_against_compares_two_package_trees(tmp_path, capsys):
    # --against records the same cases from the other tree and from src/
    # beside tests/, names each file that differs and writes no golden
    # file; a case run from a tree in a fresh interpreter gives the JSON
    # and dumps of the same case run in this process
    from unittest import mock

    import record_golden
    from record_golden import AGAINST_CASES, SRC, compute_case, differing

    calls = []

    def fake(dest, cases, src, stem):
        calls.append((cases, src, stem))
        os.makedirs(dest)
        for name in ("same.json", "moved.txt"):
            with open(os.path.join(dest, name), "w") as f:
                f.write(src if name == "moved.txt" else "")

    other = str(tmp_path / "other" / "src")
    with mock.patch.object(record_golden, "record", fake):
        assert record_golden.main(["--against", other]) == 1
    assert capsys.readouterr().out == "differs: moved.txt\n"
    assert [(cases, src) for cases, src, _stem in calls] == [
        (AGAINST_CASES, other), (AGAINST_CASES, SRC)
    ]
    trees = [str(tmp_path / side) for side in ("fresh", "here")]
    texts = [
        compute_case("mixed_knots", "s", "f2", os.path.join(tree, "dumps"), src)
        for tree, src in zip(trees, (SRC, None))
    ]
    assert texts[0] == texts[1]
    assert len(os.listdir(os.path.join(trees[0], "dumps"))) == 19
    assert differing(*trees) == []


def test_an_unknown_mode_is_rejected_before_the_input_is_read(tmp_path, knot_file):
    # a missing input would raise FileNotFoundError if it were opened first
    missing = str(tmp_path / "missing.txt")
    for path in (missing, knot_file):
        with pytest.raises(ValueError, match="unknown mode 'khovanov'"):
            run(Job(path, mode="khovanov", rings=("f2",)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_repeated_name_is_a_row_error_when_dumping(tmp_path, jobs):
    path = tmp_path / "knots.txt"
    path.write_text(
        f"# two rows named K\nK ; {PD_TREFOIL}\nK ; {PD_FIGURE8}\nunknot ; PD[]\n"
    )
    dump_dir = tmp_path / "dumps"
    rows = run(Job(str(path), rings=("f2",), jobs=jobs, dump_dir=str(dump_dir)))
    assert [r.name for r in rows] == ["K", "K", "unknot"]
    assert rows[0].error is None and rows[0].s_values == {"f2": 2}
    assert rows[1].error == (
        "ValueError: knot name 'K' repeats line 2; "
        "its dump would overwrite that row's"
    )
    assert not rows[1].s_values
    assert rows[2].error is None and rows[2].s_values == {"f2": 0}
    assert sorted(os.listdir(dump_dir)) == ["K.txt", "unknot.txt"]
    so = scan_order(orient_and_sign(parse_pd(PD_TREFOIL)))
    assert (dump_dir / "K.txt").read_text() == dump(scan(so, F2, "s"))
    # without dumps a name may repeat
    rows = run(Job(str(path), rings=("f2",), jobs=jobs))
    assert [(r.s_values, r.error) for r in rows] == [
        ({"f2": 2}, None), ({"f2": 0}, None), ({"f2": 0}, None)
    ]


@pytest.mark.parametrize("name", ["a/b", "../x"])
def test_dump_refuses_a_name_with_a_path_separator(tmp_path, name):
    path = tmp_path / "in" / "knots.txt"
    path.parent.mkdir()
    path.write_text(f"{name} ; {PD_TREFOIL}\nfig8 ; {PD_FIGURE8}\n")
    dump_dir = tmp_path / "in" / "dumps"
    rows = run(Job(str(path), mode="s", rings=("f2",), dump_dir=str(dump_dir)))
    assert rows[0].name == name and not rows[0].s_values
    assert rows[0].error == (
        f"ValueError: knot name {name!r} cannot name a dump file"
    )
    assert rows[1].error is None and rows[1].s_values == {"f2": 0}
    assert os.listdir(dump_dir) == ["fig8.txt"]
    assert sorted(os.listdir(tmp_path / "in")) == ["dumps", "knots.txt"]


def test_dt_corpus_rows_match_their_pd_closures(tmp_path, capsys):
    # every row of dt_braids.txt is the DT code of a braid closure whose
    # interlacement graph is connected, so it parses to that diagram or its
    # mirror: |s| must equal |s| of the closure scanned from its PD code
    from make_corpus import dt_braid_corpus, pd_text

    corpus = dt_braid_corpus()
    with open(os.path.join(DATA, "dt_braids.txt")) as f:
        rows = [line.split(";") for line in f if not line.startswith("#")]
    assert [(name.strip(), code.strip()) for name, code in rows] == [
        (name, "DT[" + ",".join(map(str, dt)) + "]") for name, _pd, dt in corpus
    ]
    pd_file = tmp_path / "pd.txt"
    pd_file.write_text("".join(f"{name} ; {pd_text(pd)}\n" for name, pd, _dt in corpus))
    results = {}
    for label, path in (("dt", os.path.join(DATA, "dt_braids.txt")), ("pd", pd_file)):
        out = tmp_path / f"{label}.json"
        args = ["compute", "--input", str(path), "--ring", "f2", "--out", str(out)]
        assert main(args + ["--format", "json"]) == 0
        results[label] = json.loads(out.read_text())
    capsys.readouterr()
    names = [name for name, _pd, _dt in corpus]
    assert [r["name"] for r in results["dt"]] == names
    assert [r["name"] for r in results["pd"]] == names
    for dt_row, pd_row in zip(results["dt"], results["pd"]):
        assert "error" not in dt_row and "error" not in pd_row
        assert abs(dt_row["s"]["f2"]) == abs(pd_row["s"]["f2"]), dt_row["name"]
    assert any(r["s"]["f2"] for r in results["pd"])


FIELDS = ("f2", "f3", "f5", "q")


def corpus_file(tmp_path, filename, step):
    """The corpus file, or every step-th knot of it in a copy."""
    path = os.path.join(DATA, filename)
    if step == 1:
        return path
    with open(path) as f:
        knots = [ln for ln in f if ln.strip() and not ln.startswith("#")]
    out = tmp_path / filename
    out.write_text("".join(knots[::step]))
    return str(out)


@pytest.mark.parametrize("filename, step, modes", [
    ("mixed_knots.txt", 1, ("s", "kh")),
    ("k16.txt", 1, ("s", "kh")),
    ("dt_braids.txt", 1, ("s",)),
    ("rational_upto10.txt", 4, ("s",)),
    ("pairs.txt", 4, ("s",)),
])
def test_one_scan_over_z_gives_every_field_its_own_numbers(
    tmp_path, filename, step, modes
):
    # every row but an f2-only one reads one scan over Z, whether it asks
    # for one field or several, so the reference is a scan over the field
    # itself: s_invariant in mode s, a full scan's table in mode kh
    path = corpus_file(tmp_path, filename, step)
    with open(path) as f:
        pds = [pd for pd in map(parse_knot_line, f) if pd is not None]
    for mode in modes:
        shared = run(Job(path, mode=mode, rings=FIELDS))
        assert len(shared) == len(pds)
        assert all(r.error is None for r in shared)
        alone = {rname: run(Job(path, mode=mode, rings=(rname,))) for rname in FIELDS}
        for i, pd in enumerate(pds):
            order = scan_order(orient_and_sign(pd))
            for rname in FIELDS:
                field = ring_from_name(rname)
                a, b = shared[i], alone[rname][i]
                assert b.error is None, (b.name, b.error)
                if mode == "s":
                    ref = s_invariant(pd, field).s
                    got = (a.s_values[rname], b.s_values[rname])
                else:
                    table = khovanov_table(from_filtered(scan(order, field, "kh")))
                    ref = {f"{h},{q}": v for (h, q), v in sorted(table.items())}
                    got = (a.kh_tables[rname], b.kh_tables[rname])
                assert got == (ref, ref), (pd.name, rname)


def test_importing_the_cli_loads_no_pool_csv_or_argparse(tmp_path, knot_file):
    # compared with the modules loaded before the import, so that what the
    # interpreter's site hooks load cannot count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bnscan, bnscan.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "before = set(sys.modules)\n"
        f"bnscan.cli.run(bnscan.cli.Job({knot_file!r}))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported, serial_run = (set(ln.split()) for ln in proc.stdout.splitlines())
    assert "bnscan.cli" in imported
    # dataclasses would bring inspect, ast, dis and tokenize along
    deferred = {"concurrent.futures", "multiprocessing", "csv", "argparse",
                "dataclasses", "inspect"}
    assert not imported & deferred
    # a serial run starts no pool
    assert not serial_run & deferred


def test_the_cli_runs_in_a_fresh_interpreter(tmp_path):
    # k16 and a second row, so that --jobs 2 starts a pool
    with open(os.path.join(DATA, "k16.txt")) as f:
        text = f.read()
    path = tmp_path / "knots.txt"
    path.write_text(text + f"trefoil ; {PD_TREFOIL}\n")
    results = []
    for jobs, fmt in (("1", "json"), ("2", "json"), ("1", "csv")):
        out = tmp_path / f"out-{jobs}.{fmt}"
        proc = fresh_python(
            ["-m", "bnscan.cli", "compute", "--input", str(path), "--jobs", jobs,
             "--format", fmt, "--out", str(out)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 of 2 knots processed" in proc.stdout
        results.append(out.read_text())
    serial, pooled = (
        [{k: v for k, v in e.items() if k != "time_ms"} for e in json.loads(rows)]
        for rows in results[:2]
    )
    assert serial == pooled
    assert [e["name"] for e in serial] == ["k16", "trefoil"]
    assert all("error" not in e for e in serial)
    table = list(csv.DictReader(io.StringIO(results[2])))
    assert [(r["name"], r["s_f2"]) for r in table] == [
        (e["name"], str(e["s"]["f2"])) for e in serial
    ]
