"""The command table CI runs (ci/commands.json) and its runner (ci/run_commands.py)."""

import hashlib
import importlib.util
import json
import os
import shlex
from pathlib import Path

import pytest
from conftest import COMMAND_ROWS as ROWS
from conftest import FAMILY_ROWS, README_ROWS, REFUSED_ROWS, STREAMED_ROWS

from weakbell import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_commands", ROOT / "ci" / "run_commands.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)

# a stand-in weakbell.cli for the faults the real one does not have: it writes
# its own name to its --out unless the row's name plants a fault
_STUB_CLI = """
import os, sys, warnings

def main(argv):
    name = os.path.basename(argv[-1])
    if name == "refused_otherwise.csv":
        print("error: planted", file=sys.stderr)
        return 2
    if name == "warns.csv":
        warnings.warn("planted", RuntimeWarning)
    if name == "imports_scipy.csv":
        import scipy
    if name != "no_output.csv":
        with open(argv[-1], "w") as out:
            out.write(name)
    if name == "private.csv":
        os.chmod(argv[-1], 0o600)
    if name == "refused_loudly.csv":
        print("error: planted", file=sys.stderr)
        print("error: twice", file=sys.stderr)
        return 2
    return 0
"""


def _row(name, argv=("protocol", "--n", "2"), **bounds):
    return {"name": name, "argv": list(argv), "exit": 0, "readme": False, **bounds}


def _refused(name, error):
    return {**_row(name), "exit": 2, "error": error}


def _run(rows, out, monkeypatch, path, capsys):
    monkeypatch.setenv("PYTHONPATH", str(path))
    table = out.with_name(f"{out.name}.json")
    table.write_text(json.dumps(rows))
    monkeypatch.setattr(runner, "TABLE", table)
    code = runner.main(["--out", str(out)])
    report = json.loads((out / "results.json").read_text())
    return code, {row["name"]: row["failures"] for row in report["rows"]}, capsys.readouterr().err


def _results(out):
    return {row["name"]: row for row in json.loads((out / "results.json").read_text())["rows"]}


@pytest.fixture
def stub(tmp_path):
    path = tmp_path / "stub"
    (path / "weakbell").mkdir(parents=True)
    (path / "weakbell" / "__init__.py").write_text("")
    (path / "weakbell" / "cli.py").write_text(_STUB_CLI)
    (path / "scipy").mkdir()
    (path / "scipy" / "__init__.py").write_text("")
    return path


@pytest.fixture
def umask_022():
    # the children inherit it: an output open() creates reads 644
    previous = os.umask(0o022)
    yield
    os.umask(previous)


def test_readme_commands_are_the_tables_readme_rows():
    lines = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("weakbell ")]
    commands = []
    for line in lines:
        argv = shlex.split(line)[1:]
        commands.append(argv[: argv.index("--out")])
    assert commands == [row["argv"] for row in README_ROWS]
    assert len(commands) == 8


def _choices(parser, dest):
    return next(action.choices for action in parser._actions if action.dest == dest)


def _family(row):
    return row["argv"][row["argv"].index("--family") + 1]


def test_each_tier1_selection_covers_every_command_family_and_refusal():
    # an emptied or shrunk selection fails here, not as a vacuous parametrized test
    commands = _choices(cli.build_parser(), "command")
    assert {row["argv"][0] for row in README_ROWS} == set(commands)
    # the one-process test relies on the README running --auto-bias, then --limit
    switches = [flag for row in README_ROWS for flag in row["argv"] if flag in ("--auto-bias", "--limit")]
    assert switches == ["--auto-bias", "--limit"]
    for command, selection in [("tradeoff", FAMILY_ROWS), ("pointer-dump", STREAMED_ROWS), ("double", STREAMED_ROWS)]:
        families = [_family(row) for row in selection if row["argv"][0] == command]
        assert sorted(families) == sorted(_choices(commands[command], "family")), command
    assert {row["argv"][0] for row in STREAMED_ROWS} == {"pointer-dump", "double"}
    assert len(REFUSED_ROWS) >= 11
    assert {row["argv"][0] for row in REFUSED_ROWS} == set(commands)
    assert len({row["error"] for row in REFUSED_ROWS}) == len(REFUSED_ROWS)


def test_each_row_is_named_once_and_each_bound_holds_its_measurement():
    assert len({row["name"] for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert row["exit"] in (0, 2) and "--out" not in row["argv"], row["name"]
        if row["exit"] == 2:
            assert row["error"].startswith("error: ") and "\n" not in row["error"], row["name"]
        else:
            assert "error" not in row, row["name"]
        assert row.get("sweep", True) is True, row["name"]
        bounded = [key for key in ("peak_mb", "timeout_s") if key in row]
        assert bool(bounded) == ("measured" in row), row["name"]
        if bounded:
            measured = row["measured"]
            assert set(measured) == {"peak_mb", "seconds", "python", "numpy", "commit"}, row["name"]
            assert measured["peak_mb"] <= row.get("peak_mb", float("inf")), row["name"]
            assert measured["seconds"] <= row.get("timeout_s", float("inf")), row["name"]


def test_planted_rows_fail_each_naming_its_row(tmp_path, monkeypatch, capsys):
    real = [_row("ok.csv"), _row("over_budget.csv", peak_mb=1), {**_row("wrong_exit.csv"), "exit": 2}]
    code, failures, err = _run(real, tmp_path / "real", monkeypatch, ROOT / "src", capsys)
    assert code == 1
    assert failures["ok.csv"] == []
    assert failures["over_budget.csv"][0].endswith("MB over the 1 MB bound")
    assert failures["wrong_exit.csv"][0].startswith("exit 0, expected 2")
    assert err.endswith("2 rows failed: over_budget.csv, wrong_exit.csv\n")


def test_planted_faults_fail_each_naming_its_row(tmp_path, monkeypatch, capsys, stub, umask_022):
    planted = [_row(name) for name in ("stub_ok.csv", "no_output.csv", "warns.csv", "imports_scipy.csv", "private.csv")]
    planted += [_refused("refused_loudly.csv", "error: planted"), _refused("refused_otherwise.csv", "error: expected")]
    code, failures, err = _run(planted, tmp_path / "stubbed", monkeypatch, stub, capsys)
    assert code == 1
    assert failures["stub_ok.csv"] == []
    assert failures["no_output.csv"] == ["exit 0 left no output"]
    assert "RuntimeWarning: planted" in failures["warns.csv"][0]
    assert failures["imports_scipy.csv"] == ["scipy was loaded"]
    assert failures["private.csv"] == ["output mode 600, expected 644"]
    assert failures["refused_loudly.csv"] == [
        "stderr ['error: planted', 'error: twice'], expected ['error: planted']",
        "a refused command left a file",
    ]
    assert failures["refused_otherwise.csv"] == ["stderr ['error: planted'], expected ['error: expected']"]
    assert err.endswith(
        "6 rows failed: no_output.csv, warns.csv, imports_scipy.csv, private.csv, refused_loudly.csv, "
        "refused_otherwise.csv\n"
    )


def test_results_hold_each_outputs_size_and_sha256_and_large_outputs_are_removed(
    tmp_path, monkeypatch, capsys, stub
):
    monkeypatch.setattr(runner, "MAX_KEPT_BYTES", len("kept.csv"))
    rows = [_row("kept.csv"), _row("removed.csv"), _refused("refused_otherwise.csv", "error: planted")]
    code, failures, _ = _run(rows, tmp_path / "out", monkeypatch, stub, capsys)
    assert code == 0 and failures == {"kept.csv": [], "removed.csv": [], "refused_otherwise.csv": []}
    results = _results(tmp_path / "out")
    for name in ("kept.csv", "removed.csv"):
        assert (results[name]["stderr"], results[name]["bytes"]) == ("", len(name))
        assert results[name]["sha256"] == hashlib.sha256(name.encode()).hexdigest()
    refused = results["refused_otherwise.csv"]
    assert (refused["stderr"], refused["bytes"], refused["sha256"]) == ("error: planted\n", None, None)
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["kept.csv", "results.json"]


def test_the_runner_writes_only_under_its_out_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    ci_before = sorted((ROOT / "ci").iterdir())
    refused = REFUSED_ROWS[0]
    code, failures, _ = _run([_row("schedule.csv"), refused], tmp_path / "out", monkeypatch, ROOT / "src", capsys)
    assert code == 0 and failures == {"schedule.csv": [], refused["name"]: []}
    output = (tmp_path / "out" / "schedule.csv").read_bytes()
    assert _results(tmp_path / "out")["schedule.csv"]["sha256"] == hashlib.sha256(output).hexdigest()
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*"))
    # out.json is the test's own table
    assert written == ["out", "out.json", "out/results.json", "out/schedule.csv", "work"]
    assert sorted((ROOT / "ci").iterdir()) == ci_before


def test_a_row_past_its_timeout_fails(tmp_path, monkeypatch, capsys):
    code, failures, _ = _run([_row("slow.csv", timeout_s=0.001)], tmp_path / "out", monkeypatch, ROOT / "src", capsys)
    assert code == 1
    assert failures["slow.csv"] == ["no exit within 0.001 s"]
