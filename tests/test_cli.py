import json
import math
import subprocess
import sys

import pytest

from weakbell import cli, montecarlo
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


def test_montecarlo_rejects_unknown_scenario(tmp_path):
    out = tmp_path / "mc.json"
    code = run_cli("montecarlo", "--scenario", "nonsense", "--trials", "100", "--out", str(out))
    assert code == 2
    assert not out.exists()


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


def test_importing_the_cli_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special is loaded only when a chi-square p-value or a gaussian width is computed,
    # and concurrent.futures only when montecarlo runs its trials
    script = (
        "import sys, weakbell.cli\n"
        "print('scipy.special' in sys.modules)\n"
        "print('concurrent.futures' in sys.modules)\n"
        f"weakbell.cli.main(['double', '--family', 'analytic', '--g', '0.5', '--out', {str(tmp_path / 'd.csv')!r}])\n"
        "print('scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]
