"""The code-line counter (``scripts/count_loc.py``) on a fixture file."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_loc.py"

FIXTURE = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a trailing comment keeps its line


def f(a, b):
    """One-line docstring."""
    total = (
        a
        + b
    )
    text = """not a docstring,
    but a multi-line string"""
    return total, text, os
'''
# Code: import, def, total = (, a, + b, ), text = (2 lines), return.
CODE, RAW = 9, 16


def test_counts_lines_holding_a_token_less_docstrings_and_comments(tmp_path):
    (tmp_path / "pkg").mkdir()
    fixture = tmp_path / "pkg" / "fixture.py"
    fixture.write_text(FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    for target in (fixture, tmp_path / "pkg"):
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(target)],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == (
            f"{target}: {CODE} code lines, {RAW} raw, in 1 files\n"
        )


def test_help_and_a_missing_path_print_one_line_and_exit_2(tmp_path):
    for args, stream in ((["--help"], "stdout"), ([str(tmp_path / "nowhere")], "stderr")):
        result = subprocess.run(
            [sys.executable, str(SCRIPT), *args], capture_output=True, text=True
        )
        assert result.returncode == 2
        out = getattr(result, stream)
        assert len(out.splitlines()) == 1 and "Traceback" not in out
    assert "nowhere" in result.stderr
