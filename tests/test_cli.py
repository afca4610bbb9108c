"""CLI surface, config/CSV formats, serialization round trips, determinism."""

import csv
import io
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import yaml

from leftprim import builders as B
from leftprim.cli import main
from leftprim.funcspace import RegulatedFn
from leftprim.reporting import (export, frac_str, load_config, parse_frac,
                                stepfn_from_doc)
from leftprim.stepfn import StepFn, random_stepfn

F = Fraction


def run_cli(*argv):
    return main(list(argv))


def to_doc(f: StepFn) -> dict:
    """The "p/q" cell encoding that stepfn_from_doc reads."""
    return {"base_point": frac_str(f.breaks[0]),
            "base_value": frac_str(f.base_value),
            "cells": [{"x": frac_str(x), "y": frac_str(y), "v": frac_str(v)}
                      for x, y, v in f.to_cells()]}


def dump(doc: dict, path):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def test_integrate_command(tmp_path, capsys):
    assert run_cli("integrate", "shape_A", "0", "1", "--tol", "1e-11") == 0
    out = capsys.readouterr().out
    assert "0.5181176219" in out


def test_norm_command(capsys):
    assert run_cli("norm", "E611_F", "sup", "--m", "3") == 0
    assert "norm:" in capsys.readouterr().out


def test_stieltjes_command(capsys):
    assert run_cli("stieltjes", "E611_F", "identity", "--m", "2",
                   "--tol", "1e-4") == 0
    assert "stieltjes:" in capsys.readouterr().out


def test_example_builders_left_continuity():
    # every builder's output is left continuous at sampled discontinuities
    rng = np.random.default_rng(0)
    for name, params in [("E47_G", {"m": 3}), ("E611_F", {"m": 4}),
                         ("E409_Gm", {"m": 2}), ("E407_Gm", {"m": 2}),
                         ("heaviside", {}), ("t_G", {"m": 2})]:
        f = B.build_function(name, **params)
        jumps = f.jumps()
        interior = [j for j in jumps
                    if f.interval.lo < j < f.interval.hi]
        rng.shuffle(interior)
        for j in interior[:100]:
            assert f.value(j) == pytest.approx(f.left_limit(j), abs=1e-12), \
                (name, j)


def test_example_unknown_name():
    with pytest.raises(SystemExit):
        run_cli("example", "no_such_builder")


def test_suite_command_exit_codes(capsys):
    assert run_cli("suite", "norms", "--count", "5") == 0
    capsys.readouterr()
    assert run_cli("suite", "step", "--count", "2") == 0
    assert yaml.safe_load(capsys.readouterr().out)["outputs"]["passed"] is True


def test_suite_report_is_timed(capsys):
    assert run_cli("suite", "lattice", "--count", "200") == 0
    assert yaml.safe_load(capsys.readouterr().out)["timing_s"] > 0


def test_stepfn_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = random_stepfn(rng)
        doc = to_doc(f)
        g = stepfn_from_doc(doc)
        assert g == f
    path = tmp_path / "step.yaml"
    dump({"stepfn": to_doc(f)}, path)
    h = stepfn_from_doc(load_config(path)["stepfn"])
    assert h == f


def test_frac_parsing():
    assert parse_frac("3/7") == F(3, 7)
    assert frac_str(F(-2, 4)) == "-1/2"
    assert frac_str(F(5)) == "5"


def test_export_heaviside_rows(tmp_path):
    h = B.heaviside()
    path = tmp_path / "h.csv"
    export(h, str(path), grid=4)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["t", "value"]
    by_t = {r[0]: r[1] for r in rows[1:]}
    assert float(by_t["0.0"]) == 0.0
    assert float(by_t["0.0+"]) == 1.0


def test_export_trace_stage_count(tmp_path):
    from leftprim.runs import run_ex31
    rep = run_ex31(per_unit=128)
    tr = rep.traces[1]  # down chain
    # start + one row bundle per recorded step
    stages = {lbl for lbl in tr.labels}
    assert "start" in stages
    assert len(tr.labels) == 1 + rep.stabilization["generic_down"] + 1
    path = tmp_path / "trace.csv"
    export(tr, str(path), grid=rep.system.grid, thin=64)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["stage", "t", "y1", "y2"]
    assert len({r[0] for r in rows[1:]}) == len(tr.labels)


def test_example_ex01_csv_is_the_trace(tmp_path, capsys):
    path = tmp_path / "ex01.csv"
    assert run_cli("example", "ex01", "--T", "2", "--grid", "64",
                   "--format", "csv", "--out", str(path)) == 0
    rows = list(csv.reader(open(path, newline="")))
    assert rows[0] == ["stage", "t", "y1"]
    assert rows[1][0] == "window 1 start"


def test_example_ex01_too_coarse_for_the_closure_exits_1(capsys):
    assert run_cli("example", "ex01", "--T", "5", "--grid", "3") == 1
    err = capsys.readouterr().err
    assert err.startswith("leftprim example: ") and err.count("\n") == 1


def test_solve_config_random_system(tmp_path, capsys):
    cfg = tmp_path / "sys.yaml"
    dump({"system": "random_monotone", "dimension": 2, "seed": 7,
          "grid": 64, "tol": 1e-9, "max_steps": 400,
          "initial_values": [0.0, 0.5]}, cfg)
    assert run_cli("solve", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "smallest_at_T" in out and "residuals" in out


def test_deterministic_csv(tmp_path):
    cfg = tmp_path / "sys.yaml"
    dump({"system": "random_monotone", "dimension": 2, "seed": 11,
          "grid": 64}, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("solve", str(cfg), "--format", "csv", "--out", str(p1)) == 0
    assert run_cli("solve", str(cfg), "--format", "csv", "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_console_entrypoint():
    r = subprocess.run([sys.executable, "-m", "leftprim.cli", "example",
                        "heaviside"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "builder: heaviside" in r.stdout


def test_stieltjes_default_tol_prints_the_integral(capsys):
    # int_0^1 F dt of E611_F(m=3) is 49/72; the step g has no atom inside (0, 1]
    assert run_cli("stieltjes", "E611_F", "identity", "--m", "3") == 0
    v = float(capsys.readouterr().out.split("stieltjes:")[1])
    assert abs(v - 49 / 72) <= 1e-10
    assert run_cli("stieltjes", "E611_F", "heaviside", "--m", "3") == 0
    assert capsys.readouterr().out == "stieltjes: 0.0\n"


# -- typed errors: one stderr line and exit code 1, no traceback ------------------------


def _one_line_error(capsys, command):
    err = capsys.readouterr().err
    assert err.startswith(f"leftprim {command}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_example_csv_of_recip_t_reports_the_missing_limit(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run_cli("example", "recip_t", "--format", "csv", "--out", str(out)) == 1
    assert "blows up" in _one_line_error(capsys, "example")
    assert not out.exists()


def test_sup_norm_of_recip_t_reports_no_bound(capsys):
    assert run_cli("norm", "recip_t", "sup") == 1
    assert "no certified bound" in _one_line_error(capsys, "norm")


def test_alexiewicz_norm_of_recip_t_reports_non_integrable(capsys):
    assert run_cli("norm", "recip_t", "alexiewicz") == 1
    assert "not locally HK integrable" in _one_line_error(capsys, "norm")


def test_config_errors_report_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\nb: 3\n")  # unclosed flow sequence
    listed = tmp_path / "list.yaml"
    listed.write_text("- 1\n- 2\n")
    for argv in (["solve", missing], ["stieltjes", "E611_F", missing],
                 ["solve", str(bad)], ["solve", str(listed)]):
        assert run_cli(*argv) == 1
        _one_line_error(capsys, argv[0])


@pytest.mark.parametrize("missing, message", [
    ("stepfn", "no stepfn block"), ("cells", "'cells'"),
    ("base_value", "'base_value'"), ("base_point", "'base_point'"),
])
def test_stieltjes_config_without_a_key_reports_it(tmp_path, capsys, missing,
                                                    message):
    block = {k: v for k, v in to_doc(StepFn.indicator(0, 1)).items()
             if k != missing}
    cfg = tmp_path / "g.yaml"
    dump({"other": 1} if missing == "stepfn" else {"stepfn": block}, cfg)
    assert run_cli("stieltjes", "E611_F", str(cfg), "--m", "3") == 1
    assert message in _one_line_error(capsys, "stieltjes")


@pytest.mark.parametrize("cells, message", [
    ([{"x": 0, "y": 1}], "cell 0 of the stepfn block has no 'v' key"),
    ([{"x": 0, "y": "1/2", "v": 1}, 3], "cell 1 of the stepfn block has no 'x' key"),
    (3, "cells are not a non-empty list: 3"),
    ([], "cells are not a non-empty list: []"),
    ([{"x": 0, "y": 1, "v": "abc"}], "Invalid literal for Fraction: 'abc'"),
])
def test_stieltjes_config_with_bad_cells_reports_them(tmp_path, capsys, cells,
                                                      message):
    block = {**to_doc(StepFn.indicator(0, 1)), "cells": cells}
    cfg = tmp_path / "g.yaml"
    dump({"stepfn": block}, cfg)
    assert run_cli("stieltjes", "E611_F", str(cfg), "--m", "3") == 1
    assert message in _one_line_error(capsys, "stieltjes")


@pytest.mark.parametrize("doc, message", [
    ({"dimension": 0}, "dimension >= 1, not 0"),
    ({"dimension": 2, "initial_values": [0.0]}, "1 initial values"),
    ({"dimension": 2, "initial_values": [0.0, 0.5, 1.0]}, "3 initial values"),
])
def test_random_monotone_config_rejects_bad_input(tmp_path, capsys, doc, message):
    cfg = tmp_path / "sys.yaml"
    dump({"system": "random_monotone", "seed": 7, "grid": 16, **doc}, cfg)
    assert run_cli("solve", str(cfg)) == 1
    assert message in _one_line_error(capsys, "solve")


@pytest.mark.parametrize("doc, message", [
    ({"system": "random_monotone", "seed": 7, "grid": 16, "T": 9},
     "system random_monotone does not read T"),
    ({"system": "random_monotone", "seed": 7, "grid": 16, "bogus": 1},
     "system random_monotone does not read bogus"),
    ({"system": "ex01", "T": 2, "grid": 16, "tol": 1e-3, "seed": 5},
     "system ex01 does not read seed, tol"),
    ({"system": "ex31", "grid": 64, "dimension": 2},
     "system ex31 does not read dimension"),
    ({"grid": 64, "max_steps": 5}, "system ex31 does not read max_steps"),
    ({"system": "nope"}, "unknown system kind 'nope'"),
    ({"system": ["ex01"]}, "unknown system kind ['ex01']"),
])
def test_solve_config_with_a_key_its_kind_does_not_read_exits_1(
        tmp_path, capsys, doc, message):
    cfg = tmp_path / "sys.yaml"
    dump(doc, cfg)
    assert run_cli("solve", str(cfg)) == 1
    assert message in _one_line_error(capsys, "solve")


@pytest.mark.parametrize("doc", [
    {"system": "ex31", "tol": 1e-10, "grid": 128, "T": 1},
    {"system": "ex01", "T": 2, "grid": 16},
    {"system": "random_monotone", "seed": 7, "dimension": 2, "grid": 16,
     "tol": 1e-9, "max_steps": 300, "initial_values": [0.0, 0.5]},
])
def test_solve_config_with_every_key_its_kind_reads_runs(tmp_path, capsys, doc):
    cfg = tmp_path / "sys.yaml"
    dump(doc, cfg)
    assert run_cli("solve", str(cfg)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["ex01", "ex01_closed_form"])
def test_ex01_ending_before_t_1_reports_one_line(name, capsys):
    assert run_cli("example", name, "--T", "0.5") == 1
    assert "t = 1" in _one_line_error(capsys, "example")


def test_ex31_ending_before_t_1_reports_one_line(capsys):
    # its operator integrates each iterate over [0, 1]
    assert run_cli("example", "ex31", "--T", "0.5") == 1
    assert "[0, 1]" in _one_line_error(capsys, "example")


@pytest.mark.parametrize("kind, message", [("ex01", "t = 1"), ("ex31", "[0, 1]")])
def test_solve_reads_a_zero_T_as_given(tmp_path, capsys, kind, message):
    cfg = tmp_path / "sys.yaml"
    dump({"system": kind, "T": 0}, cfg)
    assert run_cli("solve", str(cfg)) == 1
    assert message in _one_line_error(capsys, "solve")


def test_random_monotone_report_is_timed_and_exports_its_up_chain(
        tmp_path, monkeypatch, capsys):
    from leftprim.runs import run_random_monotone
    doc = {"system": "random_monotone", "dimension": 2, "seed": 7, "grid": 64}
    rep = run_random_monotone(doc)
    assert rep.timing_s > 0 and rep.parameters == doc
    cfg = tmp_path / "sys.yaml"
    dump(doc, cfg)
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", str(cfg), "--format", "csv") == 0
    assert capsys.readouterr().out == "wrote solve_trace.csv\n"
    rows = list(csv.reader(open(tmp_path / "solve_trace.csv", newline="")))
    assert rows[0] == ["stage", "t", "y1", "y2"]
    assert {r[0] for r in rows[1:]} == set(rep.traces[0].labels)


# -- each subcommand takes only the flags it reads ----------------------------------------

FLAGS = {
    "integrate": {"--m", "--tol", "--T", "--out"},
    "norm": {"--m", "--grid", "--tol", "--T", "--out"},
    "stieltjes": {"--m", "--tol", "--T", "--out"},
    "example": {"--m", "--grid", "--tol", "--T", "--out", "--format"},
    "solve": {"--out", "--format"},
    "suite": {"--count", "--seed", "--out"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    import argparse
    from leftprim.cli import _parser
    sub, = [a for a in _parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {o for a in p._actions for o in a.option_strings
                    if o != "--help" and o.startswith("--")}
             for name, p in sub.choices.items()}
    assert flags == FLAGS
    assert sum(len(f) for f in flags.values()) == 24


@pytest.mark.parametrize("argv", [
    ["integrate", "shape_A", "0", "1", "--grid", "64"],
    ["norm", "E611_F", "sup", "--seed", "1"],
    ["stieltjes", "E611_F", "identity", "--format", "csv"],
    ["example", "heaviside", "--seed", "1"],
    ["solve", "system.yaml", "--m", "3"],
    ["solve", "system.yaml", "--grid", "64"],
    ["suite", "norms", "--tol", "1e-3"],
])
def test_a_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in \
        capsys.readouterr().err
