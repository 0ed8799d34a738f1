"""Every narrative script in demos/ runs to completion, and README's library
quick start prints the values it shows."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_the_values_it_shows(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    shown = []
    # one statement at a time, so each print's output lines up with its comment
    for stmt in ast.parse(source).body:
        exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
        printed = capsys.readouterr().out
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            shown.append((printed, comments[stmt.end_lineno] + "\n"))
    assert [printed for printed, _ in shown] == [value for _, value in shown]
    assert len(shown) == 3
