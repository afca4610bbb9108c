"""CLI surface, config/CSV formats, serialization round trips, determinism."""

import csv
import io
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from leftprim import builders as B
from leftprim.cli import main
from leftprim.funcspace import RegulatedFn
from leftprim.reporting import (RunReport, dump_config, export, frac_str,
                                load_config, parse_frac, stepfn_from_doc,
                                stepfn_to_doc)
from leftprim.stepfn import StepFn, random_stepfn

F = Fraction


def run_cli(*argv):
    return main(list(argv))


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


def test_stepfn_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = random_stepfn(rng)
        doc = stepfn_to_doc(f)
        g = stepfn_from_doc(doc)
        assert g == f
    path = tmp_path / "step.yaml"
    dump_config({"stepfn": stepfn_to_doc(f)}, path)
    h = stepfn_from_doc(load_config(path)["stepfn"])
    assert h == f


def test_frac_parsing():
    assert parse_frac("3/7") == F(3, 7)
    assert frac_str(F(-2, 4)) == "-1/2"
    assert frac_str(F(5)) == "5"


def test_export_heaviside_rows(tmp_path):
    h = B.heaviside()
    path = tmp_path / "h.csv"
    export(h, str(path), "csv", grid=4)
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
    export(tr, str(path), "csv", grid=rep.system.grid, thin=64)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["stage", "t", "y1", "y2"]
    assert len({r[0] for r in rows[1:]}) == len(tr.labels)


def test_solve_config_random_system(tmp_path, capsys):
    cfg = tmp_path / "sys.yaml"
    dump_config({"system": "random_monotone", "dimension": 2, "seed": 7,
                 "grid": 64, "tol": 1e-9, "max_steps": 400,
                 "initial_values": [0.0, 0.5]}, cfg)
    assert run_cli("solve", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "smallest_at_T" in out and "residuals" in out


def test_deterministic_csv(tmp_path):
    cfg = tmp_path / "sys.yaml"
    dump_config({"system": "random_monotone", "dimension": 2, "seed": 11,
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


def test_stieltjes_default_tol_fails_with_a_usable_hint():
    from leftprim.gauge import MAX_LEVEL
    for g in ("heaviside", "identity"):
        with pytest.raises(SystemExit) as exc:
            run_cli("stieltjes", "E611_F", g, "--m", "3")
        msg = str(exc.value.code)
        assert "\n" not in msg and "n=10000000001" in msg
        tol = float(msg.split("--tol ")[1].split()[0])
        assert 1e-6 < tol <= 1.2e-6  # Vg = 1 for both: any tol > 1e-6 works
        assert max(2, int(1.0 / tol) + 1) <= MAX_LEVEL
