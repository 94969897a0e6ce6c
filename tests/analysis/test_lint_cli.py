"""CLI tests: exit codes, formats, `repro lint` wiring, module entry."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.cli import main as repro_main

LEAKY = "def leak(master_key):\n    print(master_key)\n"
CLEAN = "def fine(n):\n    return n + 1\n"


@pytest.fixture
def leaky_file(tmp_path):
    path = tmp_path / "leak.py"
    path.write_text(LEAKY, encoding="utf-8")
    return path


def test_exit_zero_on_clean(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text(CLEAN, encoding="utf-8")
    assert lint_main([str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_on_findings(leaky_file, capsys):
    assert lint_main([str(leaky_file)]) == 1
    out = capsys.readouterr().out
    assert "KEY001" in out and "leak.py" in out


def test_json_format(leaky_file, capsys):
    assert lint_main([str(leaky_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1


def test_github_format(leaky_file, capsys):
    assert lint_main([str(leaky_file), "--format", "github"]) == 1
    assert capsys.readouterr().out.startswith("::error ")


def test_disable_flag(leaky_file):
    assert lint_main([str(leaky_file), "--disable", "KEY001"]) == 0


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.py")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_unparseable_file_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert lint_main([str(bad)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "KEY001",
        "KEY002",
        "CRYPT001",
        "CRYPT002",
        "RNG001",
        "SIM001",
        "CONC001",
        "CONC002",
        "CONC003",
        "WIRE001",
        "WIRE002",
        "RES001",
    ):
        assert rule_id in out


def test_relaxed_profile_silences_key001(leaky_file):
    assert lint_main([str(leaky_file), "--profile", "relaxed"]) == 0
    assert lint_main([str(leaky_file), "--profile", "strict"]) == 1


def test_unknown_profile_is_usage_error(leaky_file, capsys):
    assert lint_main([str(leaky_file), "--profile", "nope"]) == 2
    assert "unknown profile" in capsys.readouterr().err


def _git(tmp_path, *args):
    subprocess.run(
        ["git", *args],
        cwd=tmp_path,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(tmp_path),
            "PATH": os.environ["PATH"],
        },
    )


def test_changed_lints_only_touched_files(tmp_path, capsys):
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "committed_leak.py"
    committed.write_text(LEAKY, encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    # Nothing changed since HEAD: the committed leak is out of scope.
    assert lint_main(["--root", str(tmp_path), "--changed"]) == 0
    capsys.readouterr()
    # An untracked leaky file is in scope and fails the run.
    (tmp_path / "fresh_leak.py").write_text(LEAKY, encoding="utf-8")
    assert lint_main(["--root", str(tmp_path), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "fresh_leak.py" in out and "committed_leak.py" not in out


def test_changed_outside_git_is_usage_error(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path), "--changed"]) == 2
    assert "failed" in capsys.readouterr().err


def _changed_repo(tmp_path):
    """A git repo with one committed and one untracked leaky file."""
    tmp_path.mkdir()
    _git(tmp_path, "init", "-q")
    (tmp_path / "committed_leak.py").write_text(LEAKY, encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    (tmp_path / "fresh_leak.py").write_text(LEAKY, encoding="utf-8")
    return ["--root", str(tmp_path), "--changed"]


@pytest.mark.parametrize("case", ["json", "relaxed", "changed"])
def test_repro_lint_subcommand(case, leaky_file, tmp_path, capsys):
    if case == "json":
        assert repro_main(["lint", str(leaky_file), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["count"] == 1
    elif case == "relaxed":
        assert repro_main(["lint", "--profile", "relaxed", str(leaky_file)]) == 0
    else:
        args = _changed_repo(tmp_path / "repo")
        expected = lint_main(args)
        expected_out = capsys.readouterr().out
        assert repro_main(["lint", *args]) == expected == 1
        assert capsys.readouterr().out == expected_out


def test_python_dash_m_repro_analysis(leaky_file):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(leaky_file)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "KEY001" in proc.stdout
