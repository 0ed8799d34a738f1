"""The engine never imports the closed form it is checked against, nor the CLI.

``fock``, ``optics`` and ``protocols`` are parsed, not imported, so a
function-level import is caught as well as a module-level one.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noonecp"
ENGINE = ("fock.py", "optics.py", "protocols.py")
FORBIDDEN = {"noonecp.analytics", "noonecp.cli"}


def _imported_modules(tree):
    """Absolute names of every module an import statement in ``tree`` binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # relative imports inside the package resolve against ``noonecp``
            base = "noonecp" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _forbidden_imports(source):
    return sorted(
        name
        for name in _imported_modules(ast.parse(source))
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_neither_oracle_nor_cli(module):
    assert _forbidden_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "from .analytics import p_round_closed_form",
        "from . import cli",
        "import noonecp.analytics",
        "from noonecp import analytics",
        "from noonecp.cli import main",
        "def f():\n    from .analytics import _round_yields",
    ],
)
def test_the_guard_sees_each_import_form(line):
    assert _forbidden_imports(line) != []
