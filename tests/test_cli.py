import ast
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import FAMILY_ROWS, README_ROWS, REFUSED_ROWS, STREAMED_ROWS

from weakbell import bell, cli, montecarlo, pointer
from weakbell.cli import (
    MAX_PROTOCOL_STAGES,
    MAX_RANGE_POINTS,
    MAX_TRIALS,
    MIN_TRIPLE_RESOLUTION,
    _montecarlo_config,
    main,
    parse_range,
)
from weakbell.errors import InvalidParameterError
from weakbell.pointer import DEFAULT_GRID_SPACING, MeasurementStrength, _family_strength


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# --- range parsing -----------------------------------------------------------------


def test_parse_range_inclusive_endpoints():
    values = parse_range("0.1:0.9:0.1")
    assert len(values) == 9
    assert values[0] == pytest.approx(0.1)
    assert values[-1] == pytest.approx(0.9)
    assert parse_range("2.0") == [2.0]
    assert parse_range("1:3:0.25")[-1] == pytest.approx(3.0)
    with pytest.raises(InvalidParameterError):
        parse_range("1:2")
    with pytest.raises(InvalidParameterError):
        parse_range("3:1:0.5")
    with pytest.raises(InvalidParameterError):
        parse_range("1:2:-0.5")


@pytest.mark.parametrize("spec", ["inf", "nan", "0.1:inf:0.1", "-inf:0.5:0.1", "0:1:nan", "0:1:x", ""])
def test_parse_range_rejects_non_finite_and_malformed_parts(spec):
    with pytest.raises(InvalidParameterError):
        parse_range(spec)


def test_parse_range_caps_the_point_count():
    assert len(parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    with pytest.raises(InvalidParameterError, match="more than"):
        parse_range(f"0:{MAX_RANGE_POINTS}:1")
    with pytest.raises(InvalidParameterError, match="more than"):
        parse_range("-1e308:1e308:1e-300")  # the span overflows to inf


def test_double_rejects_infinite_range_with_exit_2(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("double", "--g", "0.1:inf:0.1", "--out", str(out)) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# --- tradeoff ---------------------------------------------------------------------


def test_tradeoff_optimal_family(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("tradeoff", "--family", "optimal", "--g", "0.1:0.9:0.1", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == "family,parameter,F,G"
    assert len(rows) == 9
    for row in rows:
        fq, gp = float(row[2]), float(row[3])
        assert fq * fq + gp * gp == pytest.approx(1.0, abs=1e-6)


def test_tradeoff_square_family(tmp_path):
    out = tmp_path / "square.csv"
    assert run_cli("tradeoff", "--family", "square", "--delta", "1:3:0.25", "--out", str(out)) == 0
    _, rows = read_rows(out)
    for row in rows:
        fq, gp = float(row[2]), float(row[3])
        if float(row[1]) > 1.0:
            assert gp == pytest.approx(1.0 - fq, abs=1e-8)


def test_tradeoff_gaussian_between_square_and_optimal(tmp_path):
    out = tmp_path / "gauss.csv"
    assert run_cli("tradeoff", "--family", "gaussian", "--delta", "0.5:3:0.1", "--out", str(out)) == 0
    _, rows = read_rows(out)
    for row in rows:
        fq, gp = float(row[2]), float(row[3])
        assert gp < math.sqrt(1.0 - fq * fq) + 1e-12
        if fq > 1e-6:
            assert gp > 1.0 - fq - 1e-12


def test_tradeoff_validation_errors(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("tradeoff", "--family", "optimal", "--delta", "1:2:0.5", "--out", str(out)) == 2
    assert run_cli("tradeoff", "--family", "square", "--out", str(out)) == 2
    assert not out.exists()


# --- double ------------------------------------------------------------------------


def test_double_optimal_window(tmp_path):
    out = tmp_path / "double.csv"
    assert run_cli("double", "--family", "analytic", "--g", "0.6:0.95:0.01", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == "G,I1,I2"
    assert any(float(r[1]) > 2.0 and float(r[2]) > 2.0 for r in rows)


def test_double_square_has_no_window(tmp_path):
    out = tmp_path / "double_sq.csv"
    assert run_cli("double", "--family", "square", "--g", "0.1:0.9:0.05", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert all(not (float(r[1]) > 2.0 and float(r[2]) > 2.0) for r in rows)


# --- protocol -----------------------------------------------------------------------


def test_protocol_auto_bias_bounds(tmp_path):
    out = tmp_path / "sched.csv"
    assert run_cli("protocol", "--n", "5", "--auto-bias", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == "n,theta_n,F_n,G_n,P_n,chi_n,bound,limit_I,V_n,log10_V_n"
    assert len(rows) == 5
    assert all(float(r[6]) >= 2.0 for r in rows)
    assert all(float(r[6]) > 2.0 for r in rows[:3])


def test_protocol_limit_mode_decay(tmp_path):
    out = tmp_path / "sched12.csv"
    assert run_cli("protocol", "--n", "12", "--limit", "--out", str(out)) == 0
    _, rows = read_rows(out)
    log10_v = [float(r[9]) for r in rows]
    for earlier, later in zip(log10_v[1:], log10_v[2:]):
        assert later < 2.0 * earlier  # faster than any geometric decay


def test_protocol_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("protocol", "--n", "1", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][7]) == pytest.approx(2.37841, abs=1e-5)


def test_protocol_mode_conflicts(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("protocol", "--n", "3", "--auto-bias", "--limit", "--out", str(out)) == 2


# --- montecarlo ----------------------------------------------------------------------


def test_montecarlo_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ("montecarlo", "--scenario", "double", "--g", "0.8", "--trials", "5000", "--seed", "21")
    assert run_cli(*args, "--out", str(first)) == 0
    assert run_cli(*args, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert set(payload) >= {"config_digest", "seed", "trials", "per_bob", "chi_square"}
    assert len(payload["per_bob"]) == 2


def test_montecarlo_walks_the_chain_once(tmp_path, monkeypatch):
    # the chi-square is fitted to the joint run_chain split its counts by, not
    # to a second walk of the chain, and reads as a fit to analytic_joint does
    cfg = _montecarlo_config("double", 0.8)
    report = montecarlo.run_chain(cfg, 5000, 21)
    chi2 = montecarlo.chi_square_report(report.outcome_counts, montecarlo.analytic_joint(cfg), 5000)
    walks = []
    walk = montecarlo._chain_joint
    monkeypatch.setattr(montecarlo, "_chain_joint", lambda cfg: walks.append(cfg) or walk(cfg))
    out = tmp_path / "mc.json"
    assert run_cli("montecarlo", "--scenario", "double", "--trials", "5000", "--seed", "21", "--out", str(out)) == 0
    assert len(walks) == 1
    assert json.loads(out.read_text())["chi_square"] == chi2.to_dict()


def test_montecarlo_rejects_unknown_scenario(tmp_path):
    out = tmp_path / "mc.json"
    code = run_cli("montecarlo", "--scenario", "nonsense", "--trials", "100", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_montecarlo_checks_the_scenario_before_building_a_pointer(tmp_path, capsys):
    # a refused scenario builds no stage (at G = 0.002 the weak stage's grid
    # would be 16.5 M nodes, 132 MB)
    out = tmp_path / "mc.json"
    tracemalloc.start()
    try:
        code = run_cli("montecarlo", "--scenario", "nonsense", "--g", "0.002", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "unknown scenario 'nonsense' (choose single or double)" in capsys.readouterr().err
    assert peak < 1_000_000
    assert not out.exists()


def test_montecarlo_config_builds_no_pointer_grid():
    # the weak G = 0.002 stage is its (F, G); its grid would take 132 MB
    tracemalloc.start()
    try:
        cfg = _montecarlo_config("double", 0.002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert [type(stage.strength) for stage in cfg.stages] == [MeasurementStrength, MeasurementStrength]
    assert cfg.stages[0].strength == _family_strength("optimal", 0.002)
    assert cfg.stages[1].strength == MeasurementStrength(0.0, 1.0)


@pytest.mark.parametrize("trials", ["1.5", "nan", "inf"])
def test_montecarlo_rejects_non_integer_trials(tmp_path, trials):
    out = tmp_path / "mc.json"
    code = run_cli("montecarlo", "--scenario", "single", "--trials", trials, "--out", str(out))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("trials", ["1e12", str(MAX_TRIALS + 1)])
def test_montecarlo_refuses_trials_past_the_cap(tmp_path, monkeypatch, trials, capsys):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(montecarlo, "run_chain", no_trials)
    out = tmp_path / "mc.json"
    code = run_cli("montecarlo", "--scenario", "single", "--trials", trials, "--out", str(out))
    assert code == 2
    assert "at most" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_runs_the_trial_cap(tmp_path):
    # a run's work is its outcome table's, whatever the trial count
    out = tmp_path / "mc.json"
    args = ("montecarlo", "--scenario", "double", "--g", "0.8", "--trials", "1e9", "--seed", "7")
    assert run_cli(*args, "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == MAX_TRIALS
    for bob in payload["per_bob"]:
        assert sum(bob["counts"].values()) == MAX_TRIALS
        assert bob["chsh"] - 2.0 > 5.0 * bob["stderr"]


def test_montecarlo_bytes_repeat_in_fresh_processes(tmp_path):
    # one seed, one report: two interpreters with different hash seeds write the same bytes
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"mc{hash_seed}.json"
        argv = ["montecarlo", "--scenario", "double", "--g", "0.3", "--trials", "1e6", "--seed", "11"]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-m", "weakbell", *argv, "--out", str(out)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
def test_montecarlo_refuses_seed_outside_philox_keys(tmp_path, monkeypatch, seed, capsys):
    def no_chain(*args):
        raise AssertionError("a chain was built")

    monkeypatch.setattr(cli, "_montecarlo_config", no_chain)
    out = tmp_path / "mc.json"
    code = run_cli("montecarlo", "--scenario", "single", "--trials", "10", "--seed", str(seed), "--out", str(out))
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_accepts_largest_seed(tmp_path):
    out = tmp_path / "mc.json"
    args = ("montecarlo", "--scenario", "single", "--g", "1.0", "--trials", "10", "--seed", str(2**128 - 1))
    assert run_cli(*args, "--out", str(out)) == 0
    assert json.loads(out.read_text())["seed"] == 2**128 - 1


def test_montecarlo_accepts_exponent_trial_count(tmp_path):
    out = tmp_path / "mc.json"
    args = ("montecarlo", "--scenario", "single", "--g", "1.0", "--trials", "1e6", "--seed", "2")
    assert run_cli(*args, "--out", str(out)) == 0
    assert json.loads(out.read_text())["trials"] == 1_000_000


def test_montecarlo_json_has_no_bare_nan(tmp_path):
    # three trials leave input cells empty; their E, chsh and stderr are null
    out = tmp_path / "mc.json"
    args = ("montecarlo", "--scenario", "double", "--trials", "3", "--seed", "1")
    assert run_cli(*args, "--out", str(out)) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    for bob in payload["per_bob"]:
        assert set(bob) == {"E", "chsh", "stderr", "counts", "insufficient"}
        assert set(bob["E"]) == {"00", "01", "10", "11"}
        assert set(bob["counts"]) == {"00", "01", "10", "11"}
        assert sum(bob["counts"].values()) == 3
    assert any(bob["chsh"] is None for bob in payload["per_bob"])
    assert all(bob["insufficient"] == (bob["chsh"] is None) for bob in payload["per_bob"])


def test_montecarlo_json_round_trips_per_bob_counts(tmp_path):
    out = tmp_path / "mc.json"
    assert run_cli("montecarlo", "--scenario", "double", "--trials", "500", "--seed", "3", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    report = montecarlo.run_chain(_montecarlo_config("double", 0.8), 500, 3)
    assert len(payload["per_bob"]) == len(report.per_bob) == 2
    for bob_json, bob in zip(payload["per_bob"], report.per_bob):
        assert {(int(key[0]), int(key[1])): n for key, n in bob_json["counts"].items()} == bob.counts
        assert bob_json["insufficient"] is bob.insufficient is False
        assert sum(bob_json["counts"].values()) == 500


def test_montecarlo_single_scenario_strong(tmp_path):
    out = tmp_path / "single.json"
    args = ("montecarlo", "--scenario", "single", "--g", "1.0", "--trials", "20000", "--seed", "4")
    assert run_cli(*args, "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_bob"]) == 1
    bob = payload["per_bob"][0]
    assert abs(bob["chsh"] - 2.0 * math.sqrt(2.0)) < 4.0 * bob["stderr"]


# --- pointer dump and triple scan ------------------------------------------------------


def test_pointer_dump(tmp_path):
    out = tmp_path / "pointer.csv"
    assert run_cli("pointer-dump", "--family", "optimal", "--g", "0.8", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == "q,phi"
    mass = sum(float(r[1]) ** 2 for r in rows) * (float(rows[1][0]) - float(rows[0][0]))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_pointer_dump_refuses_another_familys_flag(tmp_path, capsys):
    out = tmp_path / "pointer.csv"
    assert run_cli("pointer-dump", "--family", "optimal", "--g", "0.8", "--delta", "3", "--out", str(out)) == 2
    assert "does not take --delta" in capsys.readouterr().err
    assert not out.exists()


def test_triple_scan_coarse(tmp_path):
    out = tmp_path / "scan.json"
    assert run_cli("triple-scan", "--resolution", "0.2", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["max_min_chsh"] <= 2.0
    assert payload["cells"] == 16


def test_triple_scan_resolution_floor(tmp_path):
    out = tmp_path / "scan.json"
    assert run_cli("triple-scan", "--resolution", repr(MIN_TRIPLE_RESOLUTION * 0.999), "--out", str(out)) == 2
    assert not out.exists()


def test_protocol_stage_cap(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli("protocol", "--n", str(MAX_PROTOCOL_STAGES + 1), "--limit", "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("tradeoff", "--family", "optimal", "--g", "0.0015"),
        ("tradeoff", "--family", "optimal", "--g", "0.8", "--spacing", repr(2.0**-19)),
        ("tradeoff", "--family", "gaussian", "--delta", "1e4"),
        ("tradeoff", "--family", "optimal", "--g", "1e-300"),
        ("tradeoff", "--family", "square", "--delta", "1", "--spacing", "5e-324"),
        ("pointer-dump", "--family", "exponential", "--scale", "1e308"),
    ],
)
def test_pointer_grid_past_the_cap_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "p.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("montecarlo", "--scenario", "double", "--g", "0.001"),
        ("double", "--family", "optimal", "--g", "0.001"),
        ("tradeoff", "--family", "optimal", "--g", "0.001"),
        ("pointer-dump", "--family", "optimal", "--g", "0.001"),
    ],
)
def test_precision_below_the_cap_names_the_target_and_only_a_flag_the_command_takes(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: target precision 0.001 needs a pointer grid of at least 33012736 nodes, over the cap of 16777216; "
        "use a target precision nearer the strong limit"
    )
    # only tradeoff and pointer-dump take --spacing
    assert ("spacing" in err) == (argv[0] in ("tradeoff", "pointer-dump"))
    assert ("spacing" in err) == err.endswith(", or a coarser --spacing\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "family, g, nodes",
    [("square", "0.00001", 33555456), ("gaussian", "0.0001", 33554432), ("square", "5e-324", 33555456)],
)
def test_double_refusal_past_the_cap_names_the_target_precision(tmp_path, capsys, family, g, nodes):
    # the square half width 1/G and the gaussian width are the builder's, not the user's, parameter;
    # 1/G overflows to inf at 5e-324, with no RuntimeWarning (the suite makes one an error)
    out = tmp_path / "d.csv"
    assert run_cli("double", "--family", family, "--g", g, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: target precision {float(g)!r} needs a pointer grid of at least {nodes} nodes, over the cap of "
        "16777216; use a target precision nearer the strong limit\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "family, flag, name",
    [
        ("exponential", "--scale", "an exponential scale"),
        ("square", "--delta", "a square half width"),
        ("gaussian", "--delta", "a gaussian width"),
    ],
)
def test_tradeoff_refusal_past_the_cap_takes_the_article_of_the_parameter(tmp_path, capsys, family, flag, name):
    out = tmp_path / "t.csv"
    assert run_cli("tradeoff", "--family", family, flag, "1e5", "--out", str(out)) == 2
    nodes = 33555456 if family == "square" else 33554432
    assert capsys.readouterr().err == (
        f"error: {name.split(' ', 1)[1]} 100000.0 needs a pointer grid of at least {nodes} nodes, over the cap of "
        f"16777216; use {name} nearer the strong limit, or a coarser --spacing\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        # the 205th width, past the first chunk of widths the closed form sums together
        (
            ("tradeoff", "--family", "gaussian", "--delta", "10:2100:10"),
            "gaussian width 2050.0 needs a pointer grid of at least 16793600 nodes, over the cap of 16777216; "
            "use a gaussian width nearer the strong limit, or a coarser --spacing",
        ),
        (
            ("tradeoff", "--family", "gaussian", "--delta", "1e-320"),
            "gaussian width 1e-320 is too small for grid spacing 0.001953125: the pointer's norm underflows to 0; "
            "use a finer --spacing",
        ),
        (
            ("double", "--family", "gaussian", "--g", "0.00005:0.5:0.00005"),
            "target precision 5e-05 needs a pointer grid of at least 33554432 nodes, over the cap of 16777216; "
            "use a target precision nearer the strong limit",
        ),
    ],
)
def test_gaussian_sweeps_refuse_the_first_refused_value_as_each_width_alone(tmp_path, capsys, argv, err):
    out = tmp_path / "g.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


_CAP = "over the cap of 16777216; use"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("tradeoff", "--family", "square", "--delta", "0.05:3:0.05"),
            "grid spacing 0.001953125 too coarse for half width 0.05 (need <= width/50)",
        ),
        # the 8th half width and the 9th scale, mid-grid, past the cap
        (
            ("tradeoff", "--family", "square", "--delta", "1e4:4e4:1e3"),
            f"square half width 17000.0 needs a pointer grid of at least 17409024 nodes, {_CAP} "
            "a square half width nearer the strong limit, or a coarser --spacing",
        ),
        (
            ("tradeoff", "--family", "exponential", "--scale", "0.1:2:0.1", "--spacing", "3.814697265625e-06"),
            f"exponential scale 0.9 needs a pointer grid of at least 18874368 nodes, {_CAP} "
            "an exponential scale nearer the strong limit, or a coarser --spacing",
        ),
        (
            ("tradeoff", "--family", "exponential", "--scale", "1e-6:1e-3:1e-6"),
            "exponential scale 1e-06 is too small for grid spacing 0.001953125: the pointer's norm underflows to 0; "
            "use a finer --spacing",
        ),
        (
            ("double", "--family", "optimal", "--g", "0.00001:0.5:0.00001"),
            f"target precision 1e-05 needs a pointer grid of at least 3300987904 nodes, {_CAP} "
            "a target precision nearer the strong limit",
        ),
        (
            ("double", "--family", "square", "--g", "0.00001:0.5:0.00001"),
            f"target precision 1e-05 needs a pointer grid of at least 33555456 nodes, {_CAP} "
            "a target precision nearer the strong limit",
        ),
    ],
)
def test_sweeps_refuse_their_first_refused_value_with_exit_2(tmp_path, capsys, argv, err):
    out = tmp_path / "s.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["tradeoff", "double"])
def test_an_unphysical_closed_form_exits_2_naming_its_pair(tmp_path, capsys, monkeypatch, command):
    closed_form = pointer._FAMILY_STRENGTHS["optimal"]

    def unphysical(values, grid_spacing):
        quality, prec = (a.copy() for a in closed_form(values, grid_spacing))
        quality[4], prec[4] = 0.8, 0.7
        return quality, prec

    monkeypatch.setitem(pointer._FAMILY_STRENGTHS, "optimal", unphysical)
    out = tmp_path / "u.csv"
    assert run_cli(command, "--family", "optimal", "--g", "0.1:0.9:0.1", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: unphysical strength: F^2 + G^2 = {0.8 * 0.8 + 0.7 * 0.7!r} > 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (("--family", "gaussian", "--delta", "1e-5"), "gaussian width 1e-05"),
        (("--family", "gaussian", "--delta", "1e-160"), "gaussian width 1e-160"),
        (("--family", "exponential", "--scale", "1e-320"), "exponential scale 1e-320"),
    ],
)
def test_pointer_narrower_than_the_grid_exits_2_without_a_warning(tmp_path, argv, name):
    # every sample would underflow to 0; 1e-160 used to overflow numpy's divide on the way
    out = tmp_path / "p.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "weakbell", "pointer-dump", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: {name} is too small for grid spacing 0.001953125: "
        "the pointer's norm underflows to 0; use a finer --spacing\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, family, divisor",
    [
        ("--delta", "gaussian", 76.5),
        ("--delta", "gaussian", 76.8),
        ("--scale", "exponential", 1450),
        ("--scale", "exponential", 1470),
    ],
)
def test_pointer_too_narrow_to_normalize_exits_2_naming_the_width(tmp_path, capsys, flag, family, divisor):
    # the grid norm^2 is a subnormal with too few bits: the state built from it
    # misses the norm check, which used to name neither the width nor --spacing
    value = repr(DEFAULT_GRID_SPACING / divisor)
    out = tmp_path / "p.csv"
    assert run_cli("pointer-dump", "--family", family, flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{value} is too small for grid spacing" in err and "--spacing" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "target, blocked, reason",
    [
        ("taken", "taken", "Is a directory"),  # --out names a directory
        ("plain.txt/p.csv", "plain.txt", "File exists: "),  # a path under a regular file
        ("plain.txt/sub/p.csv", "plain.txt/sub", "Not a directory: "),
    ],
)
def test_unwritable_out_exits_2_and_leaves_no_temp_file(tmp_path, capsys, target, blocked, reason):
    (tmp_path / "taken").mkdir()
    (tmp_path / "plain.txt").write_text("kept\n")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    out = tmp_path / target
    assert run_cli("protocol", "--n", "2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {str(out)!r}: {reason}")
    if reason.endswith(": "):
        assert err.rstrip().endswith(repr(str(tmp_path / blocked)))
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    assert (tmp_path / "plain.txt").read_text() == "kept\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_mode_the_umask_leaves(tmp_path, umask, mode):
    # the output is created as open() would create it: 0o666 less the umask
    out = tmp_path / "schedule.csv"
    previous = os.umask(umask)
    try:
        assert run_cli("protocol", "--n", "2", "--out", str(out)) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == mode


def test_failed_write_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "p.csv"
    out.write_text("kept\n")
    # a lone surrogate cannot be encoded, so the write fails after the temporary file exists
    with pytest.raises(UnicodeEncodeError):
        cli._write_blocks(out, ["q,phi\n\ud800\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
    assert out.read_text() == "kept\n"


def test_a_temporary_name_that_is_another_files_exits_2_and_leaves_that_file(tmp_path, monkeypatch, capsys):
    # a clash of 48-bit random names, made certain: the name is drawn from pinned bytes
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(range(n)))
    out = tmp_path / "p.csv"
    clash = tmp_path / f".p.csv.{bytes(range(6)).hex()}.tmp"
    clash.write_bytes(b"another file\n")
    assert run_cli("protocol", "--n", "2", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cannot write --out {str(out)!r}: File exists\n"
    assert list(tmp_path.iterdir()) == [clash]
    assert clash.read_bytes() == b"another file\n"


# an audit hook on the child's open of its temporary file creates that file and
# then raises, as a SIGINT that arrives just after the file is created would
_INTERRUPT_AT_CREATION = """
import sys
from weakbell.cli import main

fired = []

def interrupt_at_creation(event, args):
    if event == "open" and str(args[0]).endswith(".tmp") and not fired:
        fired.append(args[0])
        open(args[0], "x").close()
        raise KeyboardInterrupt

sys.addaudithook(interrupt_at_creation)
sys.exit(main(sys.argv[1:]))
"""


def test_an_interrupt_just_after_the_temporary_file_is_created_leaves_no_file(tmp_path):
    # audit hooks cannot be removed, so only the child installs one
    argv = ["protocol", "--n", "2", "--out", str(tmp_path / "p.csv")]
    proc = subprocess.run([sys.executable, "-c", _INTERRUPT_AT_CREATION, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (130, "interrupted by SIGINT\n")
    assert list(tmp_path.iterdir()) == []


def test_a_dump_past_the_file_size_limit_exits_2_and_leaves_no_file(tmp_path):
    # the limit holds in the child only; Python ignores SIGXFSZ, so the write fails with EFBIG
    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    out = tmp_path / "pointer.csv"  # the 1.2 MB README dump, past the 64 KiB limit
    argv = ["pointer-dump", "--family", "optimal", "--g", "0.8", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "weakbell", *argv], capture_output=True, text=True, preexec_fn=limit_file_size
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write --out {str(out)!r}: File too large\n"
    assert list(tmp_path.iterdir()) == []


def _raising_after_one_block():
    yield "q,phi\n"
    raise RuntimeError("formatting failed")


@pytest.mark.parametrize(
    "blocks, error",
    [(_raising_after_one_block, RuntimeError), (lambda: iter(["q,phi\n", "0.5,\ud800\n"]), UnicodeEncodeError)],
    ids=["blocks-raise", "lone-surrogate-block"],
)
def test_failed_streamed_write_leaves_the_old_output_and_no_temporary_file(tmp_path, blocks, error):
    # the first block is in the temporary file when the second fails
    out = tmp_path / "p.csv"
    out.write_text("kept\n")
    with pytest.raises(error):
        cli._write_blocks(out, blocks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
    assert out.read_text() == "kept\n"


def test_a_command_whose_blocks_fail_exits_1_and_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "pointer.csv"
    out.write_text("kept\n")
    monkeypatch.setattr(pointer, "samples_to_csv", lambda state: _raising_after_one_block())
    assert run_cli("pointer-dump", "--family", "optimal", "--g", "0.8", "--out", str(out)) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: formatting failed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pointer.csv"]
    assert out.read_text() == "kept\n"


def test_streamed_blocks_reach_stdout_one_at_a_time_as_they_are_formatted(monkeypatch):
    events = []

    def blocks(state):
        for k in range(3):
            events.append(f"made {k}")
            yield f"block {k}\n"

    class Stdout:
        def write(self, text):
            events.append(f"wrote {text.strip()}")

        def flush(self):
            pass

    monkeypatch.setattr(pointer, "samples_to_csv", blocks)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert run_cli("pointer-dump", "--family", "optimal", "--g", "0.8", "--out", "-") == 0
    assert events == ["made 0", "wrote block 0", "made 1", "wrote block 1", "made 2", "wrote block 2"]


@pytest.mark.parametrize("row", STREAMED_ROWS, ids=lambda row: "-".join(row["argv"][:3:2]))
def test_stdout_and_file_outputs_have_the_same_bytes(tmp_path, monkeypatch, capsys, row):
    # a double sweep in blocks of 7 rows is 29 blocks; a dump's runs are its 512-node units
    monkeypatch.setattr(bell, "_TARGET_BLOCK", 7)
    out = tmp_path / "out.csv"
    assert run_cli(*row["argv"], "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(*row["argv"], "--out", "-") == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("row", REFUSED_ROWS, ids=lambda row: row["name"])
def test_refused_inputs_write_no_byte_to_stdout(capsys, row):
    assert run_cli(*row["argv"], "--out", "-") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == row["error"] + "\n"


def test_unwritable_default_output_names_the_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "plain.txt").write_text("kept\n")
    monkeypatch.setenv("WEAKBELL_OUTDIR", str(tmp_path / "plain.txt"))
    assert run_cli("protocol", "--n", "2") == 2
    assert "cannot write --out (default under $WEAKBELL_OUTDIR)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt"]


# --- config files, env var, entry point --------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family = square\ndelta = 1:2:0.5\n")
    out = tmp_path / "from_config.csv"
    assert run_cli("tradeoff", "--family", "square", "--config", str(cfg), "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 3  # delta grid came from the config file

    override = tmp_path / "override.csv"
    assert (
        run_cli(
            "tradeoff",
            "--family",
            "square",
            "--delta",
            "1:3:1",
            "--config",
            str(cfg),
            "--out",
            str(override),
        )
        == 0
    )
    _, rows = read_rows(override)
    assert [float(r[1]) for r in rows] == [1.0, 2.0, 3.0]  # flag beat the config


def test_config_file_json_and_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"g": "0.5:0.7:0.1"}))
    out = tmp_path / "json_cfg.csv"
    assert run_cli("tradeoff", "--family", "optimal", "--config", str(cfg), "--out", str(out)) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_flag": 1}))
    assert run_cli("tradeoff", "--family", "optimal", "--g", "0.5", "--config", str(bad)) == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (("montecarlo", "--scenario", "single", "--trials", "10"), {"seed": 1.9}),
        (("montecarlo", "--scenario", "single", "--trials", "10"), {"seed": 7.0}),
        (("montecarlo", "--scenario", "single", "--trials", "10"), {"seed": True}),
        (("montecarlo", "--scenario", "single", "--trials", "10"), {"g": [1]}),
        (("montecarlo", "--scenario", "single", "--trials", "10"), {"trials": float("inf")}),
        (("tradeoff", "--family", "optimal"), {"g": None}),
        (("tradeoff", "--family", "optimal"), {"g": {"start": 0.5}}),
        (("tradeoff", "--family", "optimal", "--g", "0.5"), {"family": "bogus"}),
        (("protocol", "--n", "3"), {"limit": "maybe"}),
        (("protocol", "--n", "3"), {"bias": "abc"}),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_for_text_flags_become_their_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"g": 0.5, "out": 5}))
    assert run_cli("tradeoff", "--family", "optimal", "--config", "g.json") == 0
    assert run_cli("tradeoff", "--family", "optimal", "--g", "0.5", "--out", "flag.csv") == 0
    assert (tmp_path / "5").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    (tmp_path / "switch.cfg").write_text("auto-bias = yes\nseed_unused_line = 1\n")
    assert run_cli("protocol", "--n", "3", "--config", "switch.cfg", "--out", "p.csv") == 2
    (tmp_path / "switch.cfg").write_text("auto-bias = yes\n")
    assert run_cli("protocol", "--n", "3", "--config", "switch.cfg", "--out", "p.csv") == 0
    assert run_cli("protocol", "--n", "3", "--auto-bias", "--out", "flag.csv") == 0
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_deeply_nested_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"g": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run_cli("tradeoff", "--family", "optimal", "--config", str(cfg)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no" / "such.cfg"
    assert run_cli("tradeoff", "--family", "optimal", "--g", "0.5", "--config", str(missing)) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_default_output_directory_env(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKBELL_OUTDIR", str(tmp_path))
    assert run_cli("tradeoff", "--family", "optimal", "--g", "0.5") == 0
    assert (tmp_path / "tradeoff_optimal.csv").exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "weakbell", "tradeoff", "--family", "optimal", "--g", "0.5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    usage = subprocess.run(
        [sys.executable, "-m", "weakbell", "no-such-command"], capture_output=True, text=True
    )
    assert usage.returncode == 2


def test_a_dump_into_a_pipe_closed_after_its_header_exits_141_silently():
    # the 1.2 MB dump overfills the pipe, so its writes meet the closed end
    argv = ["pointer-dump", "--family", "optimal", "--g", "0.8", "--out", "-"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "weakbell", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"q,phi\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _reset_sigint():
    # a shell's background job starts with SIGINT ignored, and Python then raises no KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda signum: signum.name)
def test_a_signal_during_a_dump_exits_128_plus_its_number_and_leaves_no_file(tmp_path, signum):
    # the 61 MB gaussian dump formats for ~3 s after its temporary file appears
    argv = ["pointer-dump", "--family", "gaussian", "--delta", "200", "--out", str(tmp_path / "pointer.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "weakbell", *argv], stderr=subprocess.PIPE, preexec_fn=_reset_sigint
    )
    deadline = time.monotonic() + 60
    while not any(tmp_path.iterdir()):
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.001)
    proc.send_signal(signum)
    assert proc.wait(timeout=60) == 128 + signum
    assert proc.stderr.read() == f"interrupted by {signum.name}\n".encode()
    proc.stderr.close()
    assert list(tmp_path.iterdir()) == []


def test_main_handles_sigterm_only_while_it_runs(monkeypatch):
    during = []
    monkeypatch.setattr(cli, "cmd_protocol", lambda args: during.append(signal.getsignal(signal.SIGTERM)) or 0)
    before = signal.getsignal(signal.SIGTERM)
    assert main(["protocol", "--n", "2"]) == 0
    assert during == [cli._terminate]
    assert signal.getsignal(signal.SIGTERM) is before


def test_an_ignored_sigterm_stays_ignored(monkeypatch):
    during = []
    monkeypatch.setattr(cli, "cmd_protocol", lambda args: during.append(signal.getsignal(signal.SIGTERM)) or 0)
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        assert main(["protocol", "--n", "2"]) == 0
        after = signal.getsignal(signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert during == [signal.SIG_IGN]
    assert after is signal.SIG_IGN


def test_main_off_the_main_thread_leaves_sigterm_alone(monkeypatch):
    during, codes = [], []
    monkeypatch.setattr(cli, "cmd_protocol", lambda args: during.append(signal.getsignal(signal.SIGTERM)) or 0)
    thread = threading.Thread(target=lambda: codes.append(main(["protocol", "--n", "2"])))
    thread.start()
    thread.join()
    assert codes == [0]
    assert during == [signal.getsignal(signal.SIGTERM)]


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable, the
    # README rows and the family sweeps (the gaussian double curve among them)
    # exit 0 and leave scipy unloaded; importing the CLI loads no concurrent.futures
    commands = [[*row["argv"], "--out", str(tmp_path / row["name"])] for row in FAMILY_ROWS]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import weakbell.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        f"for argv in json.loads({json.dumps(commands)!r}):\n"
        "    print(weakbell.cli.main(argv))\n"
        "print(sys.modules['scipy'] is None, sorted(name for name in sys.modules if name.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"] + ["0"] * len(commands) + ["True []"]


# --- imports: each command loads only the modules it runs ------------------------------------

# the package's public names, each under the submodule that defines it
_EXPORTED = {
    "errors": ["InvalidParameterError", "InvalidStateError", "PhysicalityError"],
    "pointer": [
        "DEFAULT_GRID_SPACING", "MeasurementStrength", "PointerState", "make_exponential", "make_gaussian",
        "make_optimal", "make_square", "make_worst", "optimal_from_central", "strength_of", "tradeoff_curve",
    ],
    "channel": ["Direction"],
    "bell": [
        "BellChainConfig", "BobStage", "double_violation_curve", "singlet", "tsirelson_alice", "tsirelson_bob",
        "unbiased_triple_scan",
    ],
    "protocol": ["ProtocolSchedule", "build_schedule", "chi", "feasible_uniform_bias"],
    "montecarlo": ["EmpiricalReport", "analytic_joint", "chi_square_report", "run_chain"],
}
_COMPUTE_MODULES = ["numpy", "hashlib"] + [
    f"weakbell.{name}" for name in ("bell", "channel", "pointer", "protocol", "montecarlo")
]


def _run_python(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("statement", ["import weakbell", "from weakbell import cli", "import weakbell.cli"])
def test_importing_the_package_or_its_cli_loads_no_compute_module(statement):
    script = f"import sys\n{statement}\nprint(sorted(name for name in {_COMPUTE_MODULES!r} if name in sys.modules))"
    assert _run_python(script).split() == ["[]"]


def test_readme_protocol_commands_run_without_numpy(tmp_path):
    commands = {row["name"]: row["argv"] for row in README_ROWS if row["argv"][0] == "protocol"}
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from weakbell.cli import main\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    print(main([*argv, '--out', sys.argv[2] + '/blocked_' + name]))\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy')))\n"
    )
    stdout = _run_python(script, json.dumps(commands), str(tmp_path))
    assert stdout.splitlines() == ["0"] * len(commands) + ["['numpy']"]
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / f"blocked_{name}").read_bytes() == (tmp_path / name).read_bytes()


def test_every_public_name_resolves_on_first_use_to_its_submodules_object():
    # in a fresh process each name's first lookup is the from-import itself
    script = (
        "import importlib, json, sys\n"
        "import weakbell\n"
        "listed = set(dir(weakbell)), set(weakbell.__all__)\n"
        "for home, names in json.loads(sys.argv[1]).items():\n"
        "    for name in [home, *names]:\n"
        "        value = getattr(__import__('weakbell', fromlist=[name]), name)\n"
        "        expected = importlib.import_module('weakbell.' + home)\n"
        "        assert value is (expected if name == home else getattr(expected, name)), name\n"
        "        assert all(name in names for names in listed), name\n"
        "print(sorted(weakbell.__all__))\n"
    )
    stdout = _run_python(script, json.dumps(_EXPORTED))
    assert stdout.split("\n")[0] == repr(sorted([*_EXPORTED, *(n for names in _EXPORTED.values() for n in names)]))


def test_an_unknown_package_name_raises_attribute_error_naming_it():
    import weakbell

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        weakbell.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from weakbell import no_such_name", {})
    assert "cli" not in weakbell.__all__


@pytest.mark.parametrize(
    "argv",
    [["tradeoff", "--family", "square", "--delta", "1:3:0.25"], ["pointer-dump", "--family", "optimal", "--g", "0.8"]],
)
def test_omitted_spacing_writes_the_bytes_of_the_default_spacing(tmp_path, argv):
    assert repr(DEFAULT_GRID_SPACING) == "0.001953125"
    assert cli.parse_command_line(argv).spacing is None
    assert main([*argv, "--out", str(tmp_path / "omitted")]) == 0
    assert main([*argv, "--spacing", "0.001953125", "--out", str(tmp_path / "given")]) == 0
    assert (tmp_path / "omitted").read_bytes() == (tmp_path / "given").read_bytes()


# --- the parser, built once per process ---------------------------------------------------


def test_the_parser_is_built_once_and_not_at_import():
    assert cli.build_parser() is cli.build_parser()
    script = "import weakbell.cli as cli; print(cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_each_command_repeats_its_bytes_in_one_process(tmp_path, capsys):
    # the README rows set a switch (--auto-bias, then --limit, which would clash
    # with a leftover --auto-bias); runs in between that set flags through a
    # config file or stop at a usage error leave no state in the parser either
    for row in README_ROWS:
        assert main([*row["argv"], "--out", str(tmp_path / f"first_{row['name']}")]) == 0
    cfg = tmp_path / "spacing.json"
    cfg.write_text(json.dumps({"spacing": 2 * DEFAULT_GRID_SPACING, "g": "0.5"}))
    assert main(["pointer-dump", "--family", "optimal", "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    assert main(["double", "--family", "bogus", "--g", "0.5"]) == 2
    for row in README_ROWS:
        assert main([*row["argv"], "--out", str(tmp_path / f"second_{row['name']}")]) == 0
    for row in README_ROWS:
        assert (tmp_path / f"first_{row['name']}").read_bytes() == (tmp_path / f"second_{row['name']}").read_bytes()
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_a_command_rebound_after_the_parser_is_built_runs(monkeypatch):
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_double", lambda args: seen.append(args.g) or 0)
    assert main(["double", "--g", "0.5"]) == 0
    assert seen == ["0.5"]


@pytest.mark.parametrize(
    "error, line",
    [
        (KeyError("x"), "internal error: KeyError: 'x'"),
        (RuntimeError(), "internal error: RuntimeError"),
    ],
)
def test_internal_error_exits_1_naming_the_exception(monkeypatch, capsys, error, line):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_protocol", broken)
    assert main(["protocol", "--n", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


# --- public surface ---------------------------------------------------------------------------

# besides the cmd_<command> functions, which main looks up by name: the three
# library readings the README names
_SURFACE_EXEMPT = {"analytic_joint", "chi_square_report", "strength_of"}


def _references(top: ast.AST, modules: set) -> set:
    """The names top loads and does not bind itself, and the attributes it reads of a package module.

    A parameter, an assignment target or a class field of top's own
    binds its name there, so a local precision does not count as a
    reference to a function precision; pointer.precision does.
    """
    nodes = list(ast.walk(top))
    bound = {node.arg for node in nodes if isinstance(node, ast.arg)}
    bound |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    loaded = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attributes = {
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    return (loaded - bound) | attributes


def test_every_public_function_and_class_has_a_caller_in_the_package():
    # a public top-level def is referenced somewhere in the package outside its own
    # body; __init__.py re-exports and imports do not count
    package = Path(cli.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    tops = [top for path in paths for top in ast.parse(path.read_text()).body]
    modules = {path.stem for path in paths}
    public = [
        top
        for top in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith(("_", "cmd_"))
        and top.name not in _SURFACE_EXEMPT
    ]
    references = [(top, _references(top, modules)) for top in tops]
    unused = [
        definition.name
        for definition in public
        if not any(definition.name in names for top, names in references if top is not definition)
    ]
    assert not unused, f"public names nothing in the package uses: {unused}"
