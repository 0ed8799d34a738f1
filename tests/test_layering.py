"""The engine never imports the closed form it is checked against, nor the CLI,
the input checks every layer shares are defined in ``fock`` alone, and so is
the one normalization; ``protocols`` tells its two schemes apart only through
its scheme table, never by testing a protocol's name; the CLI writes
every CSV cell through ``cli._fmt``; a grid is one config plus its
alphas, never a config built per point in a loop; each public name is
declared once, in the ``__all__`` of the module that defines it; and no
function the engine reaches computes the closed form.

Modules are parsed, not imported, so a function-level import or definition
is caught as well as a module-level one; only the check of what the package
exports imports it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noonecp"
ENGINE = ("fock.py", "optics.py", "protocols.py")
FORBIDDEN = {"noonecp.analytics", "noonecp.cli"}
SHARED_CHECKS = {"_finite_real", "_finite_number", "_check_count", "_check_alpha", "_mode_index"}
ABOVE_FOCK = ("optics.py", "protocols.py", "analytics.py", "cli.py")
# The functions that may use math.hypot: the normalization, and the total of
# the detector branches' norms.
HYPOT_USERS = {"fock.py": {"_normalized"}, "optics.py": {"detect_photon"}}


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


def _defined_names(source):
    """Every name a def, class or assignment in ``source`` binds, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_fock_defines_every_shared_check():
    assert SHARED_CHECKS <= set(_defined_names((PACKAGE / "fock.py").read_text()))


@pytest.mark.parametrize("module", ABOVE_FOCK)
def test_no_layer_above_fock_defines_its_own_copy_of_a_shared_check(module):
    assert SHARED_CHECKS.isdisjoint(_defined_names((PACKAGE / module).read_text()))


@pytest.mark.parametrize(
    "source",
    [
        "def _finite_real(value):\n    return True",
        "class C:\n    def _mode_index(self, register, mode):\n        pass",
        "def f():\n    def _check_alpha(alpha):\n        pass",
        "_check_count = lambda value, what: None",
    ],
)
def test_the_guard_sees_each_definition_form(source):
    assert not SHARED_CHECKS.isdisjoint(_defined_names(source))


def _hypot_users(source):
    """The outermost function around each use of ``math.hypot`` in ``source``.

    A use is any ``<module>.hypot`` attribute, called or passed on, and any
    ``from math import hypot``; None stands for module level.
    """
    users = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "hypot":
                users.add(owner)
            elif isinstance(child, ast.ImportFrom) and child.module == "math":
                if any(alias.name == "hypot" for alias in child.names):
                    users.add(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return users


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_math_hypot_is_used_only_by_the_normalization_and_the_detector_total(module):
    assert _hypot_users((PACKAGE / module).read_text()) <= HYPOT_USERS.get(module, set())


@pytest.mark.parametrize(
    "source",
    [
        "def _norm(amps):\n    return math.hypot(*amps)",
        "def _norm(amps):\n    return list(map(math.hypot, *amps))",
        "class C:\n    def norm(self):\n        return math.hypot(3.0, 4.0)",
        "def f():\n    def g():\n        import math as m\n        return m.hypot(1.0)",
        "UNIT = math.hypot(3.0, 4.0)",
        "from math import hypot",
    ],
)
def test_the_guard_sees_each_hypot_use(source):
    assert not _hypot_users(source) <= HYPOT_USERS["fock.py"]


PROTOCOL_NAMES = {"ecp1", "ecp2"}
NAME_TESTS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _protocol_name_tests(source):
    """Line of every ==, !=, in or not in that has a protocol name as an operand.

    An operand counts when it is the name itself or a tuple, list or set
    literal holding it.
    """

    def names(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {n for elt in node.elts for n in names(elt)}
        return {node.value} if isinstance(node, ast.Constant) else set()

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, NAME_TESTS) for op in node.ops)
        and any(names(operand) & PROTOCOL_NAMES for operand in [node.left, *node.comparators])
    ]


def test_protocols_keeps_scheme_facts_in_the_scheme_table():
    # what sets ecp1 and ecp2 apart lives in _SCHEMES, not in tests on their names
    assert _protocol_name_tests((PACKAGE / "protocols.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "t = ca * ca if config.protocol == 'ecp2' else None",
        "if 'ecp1' != protocol:\n    pass",
        "def f(config):\n    return config.protocol in ('ecp2',) or config.loss_eta == 1.0",
        "ok = protocol not in {'ecp1', 'bogus'}",
        "class C:\n    def local(self):\n        return self.name in ['ecp2']",
    ],
)
def test_the_guard_sees_each_protocol_name_test(source):
    assert _protocol_name_tests(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "spec = BeamSplitterSpec('c1', 'c2', 'e1', 'e2', 0.5, sign_convention='ecp2')",
        "_SCHEMES = {'ecp1': 1, 'ecp2': 2}",
        "ok = protocol in PROTOCOLS",
    ],
)
def test_the_guard_lets_scheme_names_appear_outside_tests(source):
    assert _protocol_name_tests(source) == []


def _csv_cell_breaches(source):
    """Line of every ".12g" spec outside ``_fmt``, and of every ","-join whose
    cells are not ``_fmt``'s output.

    A join's cells count as ``_fmt``'s output when they are ``map(_fmt, ...)``,
    a list or tuple of ``_fmt(...)`` calls, or a comprehension of one.
    """

    def formatted(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fmt"

    def cells_formatted(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
            return getattr(node.args[0], "id", None) == "_fmt"
        if isinstance(node, (ast.List, ast.Tuple)):
            return all(map(formatted, node.elts))
        return isinstance(node, (ast.ListComp, ast.GeneratorExp)) and formatted(node.elt)

    breaches = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.Constant) and ".12g" in str(child.value):
                if owner != "_fmt":
                    breaches.append(child.lineno)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "join"
                and isinstance(child.func.value, ast.Constant)
                and child.func.value.value == ","
                and not (len(child.args) == 1 and cells_formatted(child.args[0]))
            ):
                breaches.append(child.lineno)
            visit(child, owner)

    visit(ast.parse(source), None)
    return breaches


def test_cli_formats_every_csv_cell_through_fmt():
    assert _csv_cell_breaches((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _pct(x):\n    return format(float(x), '.12g')",
        "line = f'p_total = {p:.12g}'",
        "def f(x):\n    return '%.12g' % x",
        "def f(x):\n    return '{:.12g}'.format(x)",
        "row = ','.join([str(k), '' if t is None else _fmt(t), _fmt(p)])",
        "def f(cells):\n    return ','.join(map(str, cells))",
        "row = ','.join(str(c) for c in cells)",
        "row = ','.join(cells)",
    ],
)
def test_the_guard_sees_each_csv_cell_written_outside_fmt(source):
    assert _csv_cell_breaches(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "def _fmt(x):\n    return '' if x is None else format(x, '.12g')",
        "def _row(*cells):\n    return ','.join(map(_fmt, cells))",
        "row = ','.join([_fmt(alpha), _fmt(eta)])",
        "row = ','.join(_fmt(c) for c in cells)",
        "text = '\\n'.join([header, *rows])",
        "print(f'wall_time_s = {wall:.6f}')",
    ],
)
def test_the_guard_lets_fmt_and_other_text_through(source):
    assert _csv_cell_breaches(source) == []


GRID_CALLERS = ("cli.py", "analytics.py")
CONFIG_BUILDERS = {"ProtocolConfig", "replace", "_make_config"}


def _per_point_configs(source):
    """Line of every ProtocolConfig, dataclasses replace or _make_config call
    that runs once per iteration of a for or while loop or a comprehension.

    The iterable of a for loop and the outermost iterable of a comprehension
    run once, so they do not count; ``str.replace`` is not a config builder.
    """

    def builds_config(node):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in CONFIG_BUILDERS
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "replace":
            return getattr(func.value, "id", None) == "dataclasses"
        return func.attr in CONFIG_BUILDERS

    def repeated_parts(loop):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            return loop.body
        if isinstance(loop, ast.While):
            return [loop.test, *loop.body]
        first, *rest = loop.generators
        elts = [loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]
        return [*elts, first.target, *first.ifs, *rest]

    loops = (
        ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
        ast.GeneratorExp,
    )
    return sorted({
        node.lineno
        for loop in ast.walk(ast.parse(source))
        if isinstance(loop, loops)
        for part in repeated_parts(loop)
        for node in ast.walk(part)
        if isinstance(node, ast.Call) and builds_config(node)
    })


@pytest.mark.parametrize("module", GRID_CALLERS)
def test_grid_callers_build_one_config_not_one_per_point(module):
    assert _per_point_configs((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "configs = [replace(settings, alpha=a) for a in grid]",
        "for a in grid:\n    configs.append(replace(settings, alpha=a))",
        "configs = [ProtocolConfig('ecp2', a) for a in grid]",
        "while todo:\n    cfg = _make_config(args, 'ecp1', todo.pop())",
        "runs = {a: run_schedule(dataclasses.replace(cfg, alpha=a)) for a in grid}",
        "total = sum(run_schedule(noonecp.ProtocolConfig('ecp1', a)).p_total for a in grid)",
        "def f(grid):\n    for a in grid:\n        if a:\n            yield _make_config(args, 'ecp1', a)",
        "pairs = [(a, b) for a in grid for b in [ProtocolConfig('ecp1', a)]]",
    ],
)
def test_the_guard_sees_each_per_point_config(source):
    assert _per_point_configs(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "settings = _make_config(args, protocol, 0.5)",
        "cfg = replace(settings, alpha=0.3)",
        "for schedule in run_schedules(ProtocolConfig('ecp2', 0.5), grid):\n    print(schedule)",
        "totals = [s.p_total for s in run_schedules(_make_config(args, 'ecp1', 0.5), grid)]",
        "for line in rows:\n    print(line.replace(',', '  '))",
        "keys = [key.replace('-', '_') for key in raw]",
    ],
)
def test_the_guard_lets_one_config_per_grid_through(source):
    assert _per_point_configs(source) == []


LIBRARY = ("fock.py", "optics.py", "protocols.py", "analytics.py")


def _export_breaches(source):
    """Every way the ``__all__`` of a module with ``source`` misstates its names.

    A public name is one a top-level def, class or assignment binds without
    a leading underscore; an imported name is not the module's own. Each
    public name must be listed in ``__all__`` exactly once, and ``__all__``
    may list nothing else.
    """
    defined, listed = set(), None
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            }
            if "__all__" in names:
                listed = list(ast.literal_eval(node.value))
            defined |= names
    if listed is None:
        return ["no __all__"]
    public = {name for name in defined if not name.startswith("_")}
    return (
        [f"not in __all__: {name}" for name in sorted(public - set(listed))]
        + [f"not a public name defined here: {name}" for name in sorted(set(listed) - public)]
        + [f"listed twice: {name}" for name in sorted({n for n in listed if listed.count(n) > 1})]
    )


@pytest.mark.parametrize("module", LIBRARY)
def test_each_library_module_lists_exactly_its_public_names_in_all(module):
    assert _export_breaches((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def run():\n    pass",
        "__all__ = ['a']\na = 1\nb = 2",
        "__all__ = ['f']\ndef f():\n    pass\nclass C:\n    pass",
        "__all__ = ['x']\nx, Y = 1, 2",
        "__all__ = ['a', 'c']\na = 1",
        "from .fock import PureState\n__all__ = ['PureState']",
        "__all__ = ['_helper']\ndef _helper():\n    pass",
        "__all__ = ['a', 'a']\na = 1",
    ],
)
def test_the_guard_sees_each_misstated_all(source):
    assert _export_breaches(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "__all__ = ['a', 'f']\na: int = 1\ndef f():\n    b = 2\n    return b",
        "from math import pi\n__all__ = ['C']\nclass C:\n    x = 1\n_private = 2",
        "__all__ = ('T', 'g')\nT = tuple[int, ...]\nasync def g():\n    pass",
    ],
)
def test_the_guard_lets_a_true_all_through(source):
    assert _export_breaches(source) == []


def test_the_package_republishes_each_module_list_once():
    import noonecp

    modules = [getattr(noonecp, module[:-3]) for module in LIBRARY]
    assert noonecp.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(noonecp.__all__)) == len(noonecp.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(noonecp, name) is getattr(module, name), name
    namespace = {}
    exec("from noonecp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(noonecp.__all__)


def test_the_package_init_lists_no_names_of_its_own():
    # it republishes each module with a wildcard import, so a public name is
    # declared once, next to its definition
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    named_imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name != "*"
    ]
    assert named_imports == []
    name_lists = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set))
        and any(isinstance(elt, ast.Constant) for elt in node.elts)
    ]
    assert name_lists == []


ENGINE_ENTRIES = ("run_round", "run_schedule", "run_schedules")
# The closed form's helpers, and the math functions only the closed form needs.
ORACLE_HELPERS = {"_imbalance", "_ratio_power", "_SPLITTER", "vbs_transmission"}
ORACLE_MATH = {"exp", "expm1", "log", "log1p", "atanh"}


def _oracle_uses_in_engine(source):
    """(function, name) for each oracle name in a function the engine reaches.

    The walk starts at the engine entries that ``source`` defines and follows
    every top-level function or class of ``source`` that a reached body
    names; a reached class brings in all its methods. A helper counts where
    a body reads its name, and a math function also as an attribute
    (``math.log``); a field named like a helper is not a use.
    """
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    todo = [name for name in ENGINE_ENTRIES if name in defs]
    reached = set(todo)
    uses = set()
    while todo:
        owner = todo.pop()
        for node in (n for stmt in defs[owner].body for n in ast.walk(stmt)):
            if isinstance(node, ast.Attribute) and node.attr in ORACLE_MATH:
                uses.add((owner, node.attr))
            elif not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            elif node.id in ORACLE_HELPERS | ORACLE_MATH:
                uses.add((owner, node.id))
            elif node.id in defs and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    return sorted(uses)


def test_the_engine_reaches_no_closed_form():
    # run_round and the schedules must check the closed form independently,
    # so nothing they call may compute it
    source = (PACKAGE / "protocols.py").read_text()
    assert set(ENGINE_ENTRIES) <= set(_defined_names(source))
    assert _oracle_uses_in_engine(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "def run_round(state, config, round_k):\n    return _imbalance(config.alpha)",
        "def run_round(state, config, round_k):\n    return _SPLITTER * config.alpha",
        "def run_round(state, config, round_k):\n    r_pow, _ = _ratio_power(1.0, round_k)\n"
        "    return r_pow",
        "def run_schedule(config):\n    return math.log(config.alpha)",
        "def run_schedules(config, alphas):\n    return list(map(math.exp, alphas))",
        "def run_round(state, config, round_k):\n    from math import atanh\n"
        "    return atanh(0.5)",
        "def _tail(x):\n    return math.log1p(-x)\n\n"
        "def run_round(state, config, round_k):\n    return _tail(0.5)",
        "def run_schedule(config):\n    return run_schedules(config, [config.alpha])\n\n"
        "def run_schedules(config, alphas):\n    return [_t(a) for a in alphas]\n\n"
        "def _t(a):\n    return vbs_transmission(a, 1)",
        "class _Fold:\n    def value(self):\n        return m.expm1(1.0)\n\n"
        "def run_round(state, config, round_k):\n    return _Fold().value()",
    ],
)
def test_the_guard_sees_each_oracle_use_the_engine_reaches(source):
    assert _oracle_uses_in_engine(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "def vbs_transmission(alpha, round_k):\n    return _imbalance(alpha)[0]\n\n"
        "def run_round(state, config, round_k):\n    return state",
        "def _imbalance(alpha):\n    return math.log(alpha)\n\n"
        "def run_schedules(config, alphas):\n    return [math.sqrt(a) for a in alphas]",
        "class _Oracle:\n    def p(self):\n        return math.exp(-1.0)\n\n"
        "def run_round(state, config, round_k):\n    return state",
        "def run_round(state, config, round_k):\n"
        "    return math.ldexp(math.frexp(config.theta)[0], round_k)",
        "class RoundStats(NamedTuple):\n    vbs_transmission: float\n\n"
        "def run_round(state, config, round_k):\n    return RoundStats(0.5).vbs_transmission",
    ],
)
def test_the_guard_lets_oracle_code_the_engine_never_reaches_through(source):
    assert _oracle_uses_in_engine(source) == []
