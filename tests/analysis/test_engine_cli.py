"""Engine, configuration, registry, and CLI behaviour — plus the
repo-level guarantee that the shipped tree lints clean."""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_ID,
    LintConfig,
    all_rule_classes,
    get_rule_class,
    lint_paths,
)
from repro.analysis.cli import main, run_lint
from repro.analysis.config import load_config
from repro.analysis.report import render_json, render_rule_list, render_text
from repro.analysis.rules import Rule, register, resolve_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = textwrap.dedent(
    """
    def prune(path):
        path.unlink()
    """
)

CLEAN = "def prune(path):\n    return path\n"


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_lint_paths_walks_directories(tmp_path):
    package = tmp_path / "repro" / "cache"
    package.mkdir(parents=True)
    (package / "store.py").write_text(VIOLATION)
    (package / "other.py").write_text(CLEAN)
    run = lint_paths([tmp_path], LintConfig())
    assert run.n_files == 2
    assert [f.rule_id for f in run.findings] == ["RL001"]
    assert not run.ok


def test_lint_paths_honours_excludes(tmp_path):
    package = tmp_path / "repro" / "cache"
    package.mkdir(parents=True)
    (package / "store.py").write_text(VIOLATION)
    run = lint_paths([tmp_path], LintConfig(exclude=("*/cache/*",)))
    assert run.n_files == 0
    assert run.ok


def test_lint_paths_rejects_missing_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        lint_paths([tmp_path / "nope"], LintConfig())


def test_syntax_error_becomes_parse_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    run = lint_paths([bad], LintConfig())
    assert [f.rule_id for f in run.findings] == [PARSE_ERROR_ID]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_load_config_reads_pyproject_block(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        textwrap.dedent(
            """
            [tool.repro-lint]
            targets = ["lib"]
            store-modules = ["*lib/db.py"]
            """
        )
    )
    config = load_config(pyproject)
    assert config.targets == ("lib",)
    assert config.store_modules == ("*lib/db.py",)
    # untouched fields keep their defaults
    assert config.frozen_classes == LintConfig().frozen_classes


def test_unknown_config_key_fails_loudly():
    with pytest.raises(ValueError, match="unknown"):
        LintConfig().merged({"store-modulez": ["x"]})


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_the_five_shipped_rules():
    # RL004 (proof polarity) retired with the store's proof table; its id
    # stays unused
    ids = [cls.id for cls in all_rule_classes()]
    assert ids == ["RL001", "RL002", "RL003", "RL005", "RL006"]
    assert get_rule_class("RL001").name == "lock-discipline"
    assert get_rule_class("RL006").name == "compiled-artifact-hygiene"


def test_register_rejects_malformed_ids():
    class BadId(Rule):
        id = "R1"
        name = "bad"
        description = "bad"

    with pytest.raises(ValueError, match="RLxxx"):
        register(BadId)


def test_register_rejects_id_collisions():
    class Usurper(Rule):
        id = "RL001"
        name = "usurper"
        description = "tries to reuse a stable id"

    with pytest.raises(ValueError, match="duplicate"):
        register(Usurper)


def test_resolve_rules_select_and_ignore():
    assert [r.id for r in resolve_rules(select=("RL003",))] == ["RL003"]
    assert [r.id for r in resolve_rules(ignore=("RL002", "RL005"))] == [
        "RL001",
        "RL003",
        "RL006",
    ]
    with pytest.raises(KeyError):
        resolve_rules(select=("RL999",))


# ----------------------------------------------------------------------
# reporters and CLI
# ----------------------------------------------------------------------
def _write_violation(tmp_path):
    package = tmp_path / "repro" / "cache"
    package.mkdir(parents=True)
    target = package / "store.py"
    target.write_text(VIOLATION)
    return target


def test_text_report_lines_are_clickable(tmp_path):
    target = _write_violation(tmp_path)
    run = lint_paths([target], LintConfig())
    text = render_text(run)
    assert f"{target}:3:5: RL001" in text
    assert "1 finding in 1 file" in text


def test_rule_list_mentions_every_rule():
    listing = render_rule_list()
    for cls in all_rule_classes():
        assert cls.id in listing
        assert cls.name in listing


def test_cli_exit_codes(tmp_path):
    target = _write_violation(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert run_lint([str(target)], stdout=out, stderr=err) == 1
    assert "RL001" in out.getvalue()

    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN)
    assert run_lint([str(clean)], stdout=io.StringIO()) == 0

    assert run_lint([str(tmp_path / "nope.py")], stdout=out, stderr=err) == 2
    assert "no such file" in err.getvalue()


def test_cli_json_output(tmp_path):
    target = _write_violation(tmp_path)
    out = io.StringIO()
    assert run_lint([str(target)], json_output=True, stdout=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["n_findings"] == 1
    assert payload["findings"][0]["rule"] == "RL001"
    assert payload == json.loads(render_json(lint_paths([target], LintConfig())))


def test_cli_select_and_unknown_rule(tmp_path):
    target = _write_violation(tmp_path)
    assert run_lint([str(target)], select="RL002", stdout=io.StringIO()) == 0
    err = io.StringIO()
    assert (
        run_lint([str(target)], select="RL999", stdout=io.StringIO(), stderr=err)
        == 2
    )
    assert "unknown rule id" in err.getvalue()


def test_module_main_list_rules():
    assert main(["--list-rules"]) == 0


def test_repro_cli_has_a_lint_subcommand(tmp_path, capsys):
    from repro.__main__ import main as repro_main

    target = _write_violation(tmp_path)
    assert repro_main(["lint", str(target)]) == 1
    assert "RL001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the repository itself
# ----------------------------------------------------------------------
def test_shipped_tree_lints_clean():
    """The acceptance gate: `repro lint src/repro` exits 0 on this tree.

    The tree carries no suppressions, so a newly introduced violation —
    or a new suppression hiding one — fails this test before it fails
    CI.
    """
    config = load_config(REPO_ROOT / "pyproject.toml")
    run = lint_paths([REPO_ROOT / "src" / "repro"], config)
    assert run.findings == []
    assert run.n_files > 50
    assert run.n_suppressed == 0
