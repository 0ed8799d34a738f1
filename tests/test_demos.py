"""Every narrative script in demos/ runs to completion and prints its
committed output byte for byte, and README's library quick start prints the
values it shows.

Each demo's stdout is committed as ``tests/golden/demos/<demo>.txt``;
regenerate one only for a change that is meant to alter that output.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_demos_are_found():
    assert DEMOS


def test_every_committed_demo_output_has_a_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [demo.stem for demo in DEMOS]


@cache
def _run(demo):
    """One run of ``demo``, shared by the tests that read it; a warning is an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        timeout=120,
        env=env,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_prints_its_committed_output(demo):
    assert _run(demo).stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


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
