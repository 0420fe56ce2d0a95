"""The README's examples run as written: the library-use block, and the
experiment config through `qwmark experiment` and `qwmark verify`."""

from __future__ import annotations

import re
from pathlib import Path

from qwmark import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """First fenced `lang` block after the `## heading` line."""
    text = README.read_text()
    start = text.index(f"\n## {heading}\n")
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, start)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def test_library_use_block_runs():
    exec(compile(readme_block("Library use", "python"), "README.md", "exec"), {})


def test_experiment_config_runs_and_verifies(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(readme_block("Command line", "json"))
    out = tmp_path / "run1"
    assert cli.main(["experiment", "--config", str(config), "--out", str(out), "--trials", "2"]) == 0
    assert cli.main(["verify", "--rows", str(out / "rows.csv"), "--summary", str(out / "summary.json")]) == 0
    capsys.readouterr()
