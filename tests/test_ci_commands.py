"""The command table CI runs (ci/commands.json) and its runner (ci/run_commands.py)."""

import importlib.util
import json
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_commands", ROOT / "ci" / "run_commands.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)

ROWS = json.loads(runner.TABLE.read_text())

# a stand-in weakbell.cli for the faults the real one does not have: it writes
# its --out unless the row's name plants a fault
_STUB_CLI = """
import os, sys, warnings

def main(argv):
    name = os.path.basename(argv[-1])
    if name == "warns.csv":
        warnings.warn("planted", RuntimeWarning)
    if name == "imports_scipy.csv":
        import scipy
    if name != "no_output.csv":
        open(argv[-1], "w").close()
    if name == "refused_loudly.csv":
        print("error: planted", file=sys.stderr)
        print("error: twice", file=sys.stderr)
        return 2
    return 0
"""


def _row(name, argv=("protocol", "--n", "2"), **bounds):
    return {"name": name, "argv": list(argv), "exit": 0, "readme": False, **bounds}


def _run(rows, out, monkeypatch, path, capsys):
    monkeypatch.setenv("PYTHONPATH", str(path))
    table = out.with_name(f"{out.name}.json")
    table.write_text(json.dumps(rows))
    monkeypatch.setattr(runner, "TABLE", table)
    code = runner.main(["--out", str(out)])
    report = json.loads((out / "results.json").read_text())
    return code, {row["name"]: row["failures"] for row in report["rows"]}, capsys.readouterr().err


def test_readme_commands_are_the_tables_readme_rows():
    lines = [line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("weakbell ")]
    commands = []
    for line in lines:
        argv = shlex.split(line)[1:]
        commands.append(argv[: argv.index("--out")])
    assert commands == [row["argv"] for row in ROWS if row["readme"]]
    assert len(commands) == 8


def test_each_row_is_named_once_and_each_bound_holds_its_measurement():
    assert len({row["name"] for row in ROWS}) == len(ROWS)
    for row in ROWS:
        assert row["exit"] in (0, 2) and "--out" not in row["argv"], row["name"]
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

    stub = tmp_path / "stub"
    (stub / "weakbell").mkdir(parents=True)
    (stub / "weakbell" / "__init__.py").write_text("")
    (stub / "weakbell" / "cli.py").write_text(_STUB_CLI)
    (stub / "scipy").mkdir()
    (stub / "scipy" / "__init__.py").write_text("")
    planted = [_row(name) for name in ("stub_ok.csv", "no_output.csv", "warns.csv", "imports_scipy.csv")]
    planted.append({**_row("refused_loudly.csv"), "exit": 2})
    code, failures, err = _run(planted, tmp_path / "stubbed", monkeypatch, stub, capsys)
    assert code == 1
    assert failures["stub_ok.csv"] == []
    assert failures["no_output.csv"] == ["exit 0 left no output"]
    assert "RuntimeWarning: planted" in failures["warns.csv"][0]
    assert failures["imports_scipy.csv"] == ["scipy was loaded"]
    assert failures["refused_loudly.csv"] == [
        "stderr is not one error line: ['error: planted', 'error: twice']",
        "a refused command left a file",
    ]
    assert err.endswith("4 rows failed: no_output.csv, warns.csv, imports_scipy.csv, refused_loudly.csv\n")


def test_the_runner_writes_only_under_its_out_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    ci_before = sorted((ROOT / "ci").iterdir())
    refused = next(row for row in ROWS if row["exit"] == 2)
    code, failures, _ = _run([_row("schedule.csv"), refused], tmp_path / "out", monkeypatch, ROOT / "src", capsys)
    assert code == 0 and failures == {"schedule.csv": [], refused["name"]: []}
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*"))
    # out.json is the test's own table
    assert written == ["out", "out.json", "out/results.json", "out/schedule.csv", "work"]
    assert sorted((ROOT / "ci").iterdir()) == ci_before


def test_a_row_past_its_timeout_fails(tmp_path, monkeypatch, capsys):
    code, failures, _ = _run([_row("slow.csv", timeout_s=0.001)], tmp_path / "out", monkeypatch, ROOT / "src", capsys)
    assert code == 1
    assert failures["slow.csv"] == ["no exit within 0.001 s"]
