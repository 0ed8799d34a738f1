"""Layering guards, read from the package's source.

Most rules confine a name: ``CONFINED`` lists the functions of each module
that name it, and ``_namers`` finds who does. Next to each rule sit snippets
that must breach it and snippets that must not, so a guard that goes blind
shows. The walkers after the table check rules of other kinds. Modules are
parsed, not imported, so a function-level import or definition is caught as
well as a module-level one; only the check of what the package exports
imports it.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noonecp"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
SHARED_CHECKS = {
    "_finite_real", "_finite_number", "_finite_amplitudes", "_check_count", "_check_alpha",
    "_mode_index",
}
ABOVE_FOCK = ("optics.py", "protocols.py", "analytics.py", "cli.py")


def _namers(source, dotted_name):
    """The outermost function around each use of ``dotted_name`` in ``source``
    (None for module level). A use reads, calls or passes on the name's last
    part, bare or as an attribute, or imports it or a name within it, under any
    alias and from any module; relative imports resolve against ``noonecp``. A
    def, a string or a docstring is not a use.
    """
    last, within = dotted_name.rpartition(".")[2], f"{dotted_name}."

    def uses(node):
        if isinstance(node, ast.Name):
            return isinstance(node.ctx, ast.Load) and node.id == last
        if isinstance(node, ast.Attribute):
            return node.attr == last
        if isinstance(node, ast.Import):
            bound = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["noonecp" if node.level else "", node.module]))
            bound = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            return False
        return any(n.rpartition(".")[2] == last or f"{n}.".startswith(within) for n in bound)

    def namers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                yield from namers(child, child.name)
                continue
            if uses(child):
                yield owner
            yield from namers(child, owner)

    return set(namers(ast.parse(source), None))


class Confined(NamedTuple):
    owners: dict  # module -> the functions that name it; a module left out may not
    read_as: str  # the module each snippet below is read as
    sees: tuple  # snippets that breach the rule
    lets: tuple = ()  # snippets that keep it


CONFINED = {
    # the one normalization, the fold check's norm of the raw second detector
    # group, and the total of the detector branches' norms
    "math.hypot": Confined(
        {"fock.py": {"_normalized", "_fold_fidelity"}, "optics.py": {"detect_photon"}},
        "fock.py", (
            "def _norm(amps):\n    return math.hypot(*amps)",
            "def _norm(amps):\n    return list(map(math.hypot, *amps))",
            "class C:\n    def norm(self):\n        return math.hypot(3.0, 4.0)",
            "def f():\n    def g():\n        import math as m\n        return m.hypot(1.0)",
            "UNIT = math.hypot(3.0, 4.0)",
            "from math import hypot",
            "def _interfere_and_detect(branch):\n"
            "    norm = math.hypot(*other._terms.values())",
        ), (
            "def _fold_fidelity(kept, other, idx):\n    return (s / math.hypot(*amps)) ** 2",
        ),
    ),
    # a phase class is worked out by the readout, and a theta's readings are
    # proved apart once by the config; a round reads the readout's classes by
    # position and works out no phase class of its own
    "math.remainder": Confined(
        {"optics.py": {"_partition"}, "protocols.py": {"__post_init__"}}, "protocols.py", (
            "def _probe_round(state, config):\n"
            "    success_class = abs(math.remainder(theta, math.tau))",
            "def _rounds(config, alphas):\n    key = abs(math.remainder(config.theta, math.tau))\n"
            "    yield key",
            "def _interfere_and_detect(branch):\n    from math import remainder\n"
            "    return remainder",
            "class _Pass:\n    def reading(self, phase):\n"
            "        return abs(math.remainder(phase, math.tau))",
            "SUCCESS_CLASS = abs(math.remainder(0.1, math.tau))",
        ), (
            "class ProtocolConfig:\n    def __post_init__(self):\n"
            "        if abs(math.remainder(self.theta, math.tau)) < PHASE_CLASS_TOLERANCE:\n"
            "            raise ValueError(self.theta)",
            "def _probe_round(state, config):\n"
            "    \"\"\"Leaves ``math.remainder`` to the readout and the config.\"\"\"\n"
            "    (zero, branch, mass), *success = _partition(joint, phases)",
        ),
    ),
    # the public round is the two stages below; the package runs the stages, never the round
    "noonecp.protocols.run_round": Confined({}, "protocols.py", (
        "def run_schedule(config):\n    return run_round(state, config, 1)",
        "def _rounds(config, alphas):\n    outcome = run_round(state, config, 1)\n"
        "    yield outcome",
        "outcome = run_round(state, config, 1)",
        "def _grid(config, states):\n    return list(map(run_round, states, repeat(config)))",
        "class _Pass:\n    def step(self, k):\n        return protocols.run_round(self.s, self.c, k)",
        "def f():\n    from .protocols import run_round as step\n    return step",
        "def f(states):\n    return [run_round(s, c, 1) for s in states]",
        "def f():\n    from noonecp import run_round as step\n    return step",
    ), (
        "def run_round(state, config, round_k):\n    return state",
        "__all__ = ['run_round', 'run_schedule']",
        "def run_schedule(config):\n    \"\"\"Calls ``run_round`` through _rounds.\"\"\"\n"
        "    return outcome.round_index",
    )),
    # the probe stage: the public round, and the engine's one recycling loop, whose
    # consumers (every grid, schedule and cross-check) fold what it streams
    "noonecp.protocols._probe_round": Confined(
        {"protocols.py": {"run_round", "_rounds"}}, "protocols.py", (
            "def run_schedule(config):\n    return _probe_round(state, config)",
            "def _grid(config, states):\n    return list(map(_probe_round, states, repeat(config)))",
            "class _Pass:\n    def step(self):\n        return protocols._probe_round(self.s, self.c)",
            "def f():\n    from .protocols import _probe_round as step\n    return step",
            "probed = _probe_round(state, config)",
        ), (
            "def _rounds(config, alphas):\n    t, p, b, state, f = _probe_round(state, config)\n"
            "    yield t",
            "def _rounds(config, alphas):\n    def step():\n        return _probe_round(s, config)\n"
            "    yield step()",
            "def run_round(state, config, round_k):\n    return _probe_round(state, config)",
        ),
    ),
    # the entry check: an outside state is checked and made the engine's float pair
    # once, by the public round; no stage or loop checks a pair the engine made
    "noonecp.protocols._noon_pair": Confined({"protocols.py": {"run_round"}}, "protocols.py", (
        "def _probe_round(state, config):\n    pair = _noon_pair(state, config.n_photons)",
        "def _rounds(config, alphas):\n    for k in range(1, 3):\n"
        "        state = _noon_pair(state, config.n_photons)",
        "def _rounds(config, alphas):\n    check = protocols._noon_pair\n    yield check",
        "def f():\n    from .protocols import _noon_pair as entry\n    return entry",
        "def run_schedule(config):\n    return [_noon_pair(s, 1) for s in states]",
    ), (
        "def run_round(state, config, round_k):\n    pair = _noon_pair(state, config.n_photons)",
        "def _noon_pair(state, n):\n    return state",
        "def _probe_round(state, config):\n    \"\"\"Takes what ``_noon_pair`` made.\"\"\"\n"
        "    return state",
    )),
    # the detection stage: the recycled failure branch, and the success branch only
    # where a success state is formed (never on the grid totals or the cross-check)
    "noonecp.protocols._interfere_and_detect": Confined(
        {"protocols.py": {"_probe_round", "run_round", "run_schedule"}}, "protocols.py", (
            "def _grid_totals(config, alphas):\n"
            "    return [_interfere_and_detect(b) for *_, b in _rounds(config, alphas)]",
            "def _rounds(config, alphas):\n    yield _interfere_and_detect(branch)",
            "def f():\n    from .protocols import _interfere_and_detect as detect\n    return detect",
            "class _Pass:\n    def fold(self, b):\n        return protocols._interfere_and_detect(b)",
        ), (
            "def run_schedule(config):\n"
            "    for *_, b in _rounds(config, [config.alpha]):\n"
            "        state = _interfere_and_detect(b)",
            "def _interfere_and_detect(branch):\n    return branch",
        ),
    ),
    # the scheme table: the probe stage and the loss factor read a config's scheme
    # off it, and the entry check reads the labels a caller's register may not
    # hold; the detection stage takes its branch alone, and run_round and
    # run_schedule leave the table to those
    "noonecp.protocols._SCHEMES": Confined(
        {"protocols.py": {None, "_noon_pair", "_probe_round", "_loss_factor"}},
        "protocols.py", (
            "def run_round(state, config, round_k):\n    scheme = _SCHEMES[config.protocol]",
            "def run_schedule(config):\n"
            "    mode = protocols._SCHEMES[config.protocol].aux_modes[1]",
            "def f():\n    from .protocols import _SCHEMES as schemes\n    return schemes",
            "class _Pass:\n    def scheme(self):\n        return _SCHEMES[self.c.protocol]",
            "def _interfere_and_detect(branch, config):\n    scheme = _SCHEMES[config.protocol]",
        ), (
            "PROTOCOLS = tuple(_SCHEMES)",
            "def run_round(state, config, round_k):\n"
            "    \"\"\"Leaves ``_SCHEMES`` to the stages.\"\"\"\n    return state",
        ),
    ),
    # the readout's core weighs its classes unnormalized: the public readout
    # normalizes them, the probe stage hands them to the detection stage
    "noonecp.optics._partition": Confined(
        {"optics.py": {"homodyne_partition"}, "protocols.py": {None, "_probe_round"}},
        "protocols.py", (
            "def _rounds(config, alphas):\n    for reading in _partition(joint, phases):\n"
            "        yield reading",
            "def run_schedule(config):\n    return optics._partition(joint, phases)",
            "def f():\n    from .optics import _partition as weigh\n    return weigh",
            "class _Pass:\n    def read(self, state, phases):\n"
            "        return _partition(state, phases)",
        ), (
            "def _probe_round(state, config):\n"
            "    (zero, branch, mass), *success = _partition(joint, phases)",
            "def _rounds(config, alphas):\n    \"\"\"Streams what ``_partition`` weighs.\"\"\"\n"
            "    yield k",
        ),
    ),
    # the public readout's record: the public tag builds one and the public
    # readout unpacks it; the round hands the readout core its joint state and
    # phase map, so no stage builds a public record
    "noonecp.optics.TaggedState": Confined(
        {"optics.py": {"cross_kerr_tag", "homodyne_partition"}}, "protocols.py", (
            "def _probe_round(state, config):\n"
            "    tagged = TaggedState(joint, _tag_phases(joint, {}, tags))",
            "def _rounds(config, alphas):\n"
            "    yield k, optics.TaggedState(state, phases)",
            "def _interfere_and_detect(branch):\n"
            "    from .optics import TaggedState as Tagged\n    return Tagged(branch, {})",
        ), (
            "def _probe_round(state, config):\n"
            "    \"\"\"Builds no ``TaggedState``.\"\"\"\n"
            "    (zero, branch, mass), *success = _partition(joint, phases)",
        ),
    ),
    # the unchecked cores: each public op checks its labels, indices and phases and
    # then calls its core; the round's stages call the cores on registers whose
    # labels and positions the scheme table and the entry check fixed once
    "noonecp.fock._tensor": Confined(
        {"fock.py": {"tensor"}, "protocols.py": {None, "_probe_round"}}, "protocols.py", (
            "def _rounds(config, alphas):\n    joint = _tensor(state, aux)\n    yield joint",
            "def run_round(state, config, round_k):\n    return fock._tensor(state, aux)",
            "def _interfere_and_detect(branch):\n"
            "    from .fock import _tensor as join\n    return join",
            "class _Pass:\n    def join(self, a, b):\n        return _tensor(a, b)",
            "def _grid_totals(config, alphas):\n    return [_tensor(s, aux) for s in states]",
        ), (
            "def _probe_round(state, config):\n    joint = _tensor(state, aux)",
            "def run_round(state, config, round_k):\n"
            "    \"\"\"Leaves ``_tensor`` to the probe stage.\"\"\"\n    return state",
        ),
    ),
    "noonecp.optics._tag_phases": Confined(
        {"optics.py": {"cross_kerr_tag"}, "protocols.py": {None, "_probe_round"}},
        "protocols.py", (
            "def _rounds(config, alphas):\n    yield _tag_phases(joint, {}, ((1, theta),))",
            "def _interfere_and_detect(branch, config):\n"
            "    return optics._tag_phases(branch, {}, ((3, config.theta),))",
            "def f():\n    from .optics import _tag_phases as tag\n    return tag",
            "class _Pass:\n    def tag(self, s):\n        return _tag_phases(s, {}, ((1, 0.1),))",
        ), (
            "def _probe_round(state, config):\n    phases = _tag_phases(joint, {}, tags)",
            "def _rounds(config, alphas):\n"
            "    \"\"\"Leaves ``_tag_phases`` to the probe stage.\"\"\"\n    yield k",
        ),
    ),
    "noonecp.optics._split": Confined(
        {"optics.py": {"beam_splitter"}, "protocols.py": {None, "_interfere_and_detect"}},
        "protocols.py", (
            "def _probe_round(state, config):\n    return _split(joint, *_MIXER, 2, 3, reg)",
            "def prepare_aux_ecp2(transmissivity, modes):\n"
            "    return optics._split(photon, t, 'ecp2', 0, 1, modes)",
            "def f():\n    from .optics import _split as mix\n    return mix",
            "class _Pass:\n    def mix(self, s):\n        return _split(s, 0.5, 'ecp1', 2, 3, reg)",
        ), (
            "def _interfere_and_detect(branch):\n"
            "    mixed = _split(unit, *_MIXER, *_PORTS, branch._register)",
            "def prepare_aux_ecp2(transmissivity, modes):\n"
            "    \"\"\"Checked by ``beam_splitter``, not ``_split``.\"\"\"\n"
            "    return beam_splitter(photon, spec)",
        ),
    ),
    "noonecp.optics._detect": Confined(
        {"optics.py": {"detect_photon"}, "protocols.py": {None, "_interfere_and_detect"}},
        "protocols.py", (
            "def _probe_round(state, config):\n    return _detect(joint, (2, 3), (0, 1))",
            "def run_schedule(config):\n"
            "    return optics._detect(state, _PORTS, _KEPT)",
            "def f():\n    from .optics import _detect as click\n    return click",
            "class _Pass:\n    def click(self, s):\n        return _detect(s, (2, 3), (0, 1))",
        ), (
            "def _interfere_and_detect(branch):\n"
            "    branches = _detect(mixed, _PORTS, _KEPT)",
            "def run_schedule(config):\n"
            "    \"\"\"Leaves ``_detect`` to the detection stage.\"\"\"\n    return k",
        ),
    ),
    # the sign correction is folded into the detector-fold check's overlap, so
    # no stage forms a corrected copy: no module of the package calls the public op
    "noonecp.optics.negate_occupied": Confined({}, "protocols.py", (
        "from .optics import negate_occupied",
        "def _interfere_and_detect(branch):\n    flipped = negate_occupied(other, 'b1')",
        "def run_schedule(config):\n    return negate_occupied(state, 'b1')",
        "def _probe_round(state, config):\n    return optics.negate_occupied(joint, 'b1')",
        "class _Pass:\n    def flip(self, s):\n        return negate_occupied(s, 'b1')",
    ), (
        "def _interfere_and_detect(branch):\n    fid = _fold_fidelity(kept, other, 1)",
        "def _interfere_and_detect(branch):\n"
        "    \"\"\"Folds ``negate_occupied``'s sign into the overlap.\"\"\"\n    return kept",
    )),
    # loss is one factor applied after the lossless circuit: the loss model and
    # compare-loss's columns scale by it, and the grid fold stays lossless
    "noonecp.protocols._loss_factor": Confined(
        {"protocols.py": {"apply_loss_model"}, "cli.py": {None, "cmd_compare_loss"}},
        "protocols.py", (
            "def _grid_totals(config, alphas):\n    factor = _loss_factor(config)\n"
            "    return [total * factor for (total,) in totals]",
            "def run_schedule(config):\n"
            "    return [s * protocols._loss_factor(config) for s in totals]",
            "def _rounds(config, alphas):\n    yield k, t, p * _loss_factor(config), u",
            "def f():\n    from .protocols import _loss_factor as factor\n    return factor",
            "class _Pass:\n    def scale(self, total):\n        return total * _loss_factor(self.c)",
        ), (
            "def apply_loss_model(schedule, config):\n    f = _loss_factor(config)",
            "def _grid_totals(config, alphas):\n"
            "    \"\"\"Leaves ``_loss_factor`` to its callers.\"\"\"\n    return totals",
        ),
    ),
    # the detector-fold check: the detection stage takes its fidelity from the
    # seam's fold, which alone takes the signed overlap and divides it by the
    # raw second group's norm
    "noonecp.fock._fold_fidelity": Confined(
        {"protocols.py": {None, "_interfere_and_detect"}}, "protocols.py", (
            "def run_schedule(config):\n    return _fold_fidelity(a, b, 1)",
            "def _probe_round(state, config):\n    return fock._fold_fidelity(a, b, 1)",
            "def f():\n    from .fock import _fold_fidelity as fold\n    return fold",
            "class _Pass:\n    def fold(self, a, b):\n        return _fold_fidelity(a, b, 1)",
        ), (
            "def _interfere_and_detect(branch):\n"
            "    fid = _fold_fidelity(kept, other, 1)",
            "def run_schedule(config):\n"
            "    \"\"\"Leaves ``_fold_fidelity`` to the detection stage.\"\"\"\n    return k",
        ),
    ),
    # labels are resolved to positions only by the public ops; the scheme table
    # and the round's stages work on the one fixed layout, by position
    "noonecp.fock._mode_index": Confined(
        {
            "fock.py": {"create"},
            "optics.py": {
                None, "beam_splitter", "cross_kerr_tag", "detect_photon", "negate_occupied"
            },
        },
        "protocols.py", (
            "from .fock import _mode_index",
            "def _scheme(aux_modes, detectors, local):\n"
            "    tags = (_mode_index(joint, 'b1'), 3)",
            "def _interfere_and_detect(branch):\n"
            "    i = fock._mode_index(branch._register, 'a2')",
        ), (
            "def _scheme(aux_modes, detectors, local):\n"
            "    \"\"\"Needs no ``_mode_index``.\"\"\"\n    return aux_modes",
        ),
    ),
    # the one normalization: the public ``normalized`` wraps it, and ``detect_photon``
    # normalizes each detector group ``_detect`` returns raw; the engine goes
    # through ``normalized``, for its branch and the one group it keeps
    "noonecp.fock._normalized": Confined(
        {"fock.py": {"normalized"}, "optics.py": {None, "detect_photon"}}, "protocols.py", (
            "def _probe_round(state, config):\n    unit, norm = _normalized(members)",
            "def _rounds(config, alphas):\n    yield fock._normalized(branch._terms)",
            "def run_schedule(config):\n"
            "    from .fock import _normalized as unit\n    return unit",
            "class _Pass:\n    def unit(self, branch):\n        return _normalized(branch._terms)",
            "def _interfere_and_detect(branch):\n"
            "    unit = PureState._derived(branch._register, _normalized(branch._terms)[0])",
            "def _interfere_and_detect(branch):\n"
            "    unit, norm = _normalized(other._terms)",
        ), (
            "def _interfere_and_detect(branch):\n    unit = normalized(branch)",
            "def _rounds(config, alphas):\n"
            "    \"\"\"Leaves ``_normalized`` to the detection stage.\"\"\"\n    yield k",
        ),
    ),
    # a branch state is normalized where a state leaves a stage: the public readout
    # normalizes each class, and in the engine only the detection stage its branch
    "noonecp.fock.normalized": Confined(
        {
            "optics.py": {None, "homodyne_partition"},
            "protocols.py": {None, "_interfere_and_detect"},
        },
        "protocols.py", (
            "def _probe_round(state, config):\n    return normalized(branch)",
            "def _rounds(config, alphas):\n    yield fock.normalized(branch)",
            "def run_schedule(config):\n"
            "    from .fock import normalized as unit\n    return unit",
            "class _Pass:\n    def unit(self, branch):\n        return normalized(branch)",
            "def _grid_totals(config, alphas):\n    return list(map(normalized, branches))",
        ), (
            "from .fock import normalized",
            "def _interfere_and_detect(branch):\n    unit = normalized(branch)",
            "def _rounds(config, alphas):\n"
            "    \"\"\"Leaves ``normalized`` to the detection stage.\"\"\"\n    yield k",
        ),
    ),
    # an absent success reading heralds nothing: the schedule reports its fidelity as
    # NaN without detecting it, and no seam or stage turns a zero norm into NaN
    "math.nan": Confined({"protocols.py": {"run_schedule"}}, "fock.py", (
        "def _normalized(terms):\n    scale = _Batch([1.0 / n if n else math.nan for n in norm])",
        "def _interfere_and_detect(branch):\n    return math.nan",
        "def _per_element(value, size):\n    from math import nan\n    return [nan] * size",
        "class _Batch(tuple):\n    def __truediv__(self, other):\n        return math.nan",
        "UNDEFINED = math.nan",
    ), (
        "def _normalized(terms):\n    scale = _Batch([1.0 / n for n in norm])",
        "def _normalized(terms):\n    \"\"\"A NaN norm is refused, not ``math.nan``.\"\"\"\n"
        "    return terms",
        "def _off(value, expected, tolerance):\n    return value != value",
    )),
    "noonecp.analytics": Confined({"cli.py": {None}, "__init__.py": {None}}, "protocols.py", (
        "from .analytics import p_round_closed_form",
        "import noonecp.analytics",
        "from noonecp import analytics",
        "def f():\n    from .analytics import _round_yields",
    )),
    "noonecp.cli": Confined({"__main__.py": {None}}, "protocols.py", (
        "from . import cli",
        "from noonecp.cli import main",
    )),
}


@pytest.mark.parametrize("name", CONFINED)
@pytest.mark.parametrize("module", MODULES)
def test_each_module_names_a_confined_name_just_where_the_table_says(module, name):
    # equal, not only within: a function that stops naming it leaves the table too
    assert _namers((PACKAGE / module).read_text(), name) == CONFINED[name].owners.get(module, set())


@pytest.mark.parametrize("name, source", [(n, s) for n in CONFINED for s in CONFINED[n].sees])
def test_the_guard_sees_each_breach_of_a_confinement(name, source):
    rule = CONFINED[name]
    assert not _namers(source, name) <= rule.owners.get(rule.read_as, set())


@pytest.mark.parametrize("name, source", [(n, s) for n in CONFINED for s in CONFINED[n].lets])
def test_the_guard_lets_each_confined_use_through(name, source):
    rule = CONFINED[name]
    assert _namers(source, name) <= rule.owners.get(rule.read_as, set())


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
        "settings = _make_config(args, protocol)",
        "cfg = replace(settings, alpha=0.3)",
        "for total in _grid_totals(ProtocolConfig('ecp2'), grid):\n    print(total)",
        "totals = [t * f for t in _grid_totals(_make_config(args, 'ecp1'), grid)]",
        "for line in rows:\n    print(line.replace(',', '  '))",
        "keys = [key.replace('-', '_') for key in raw]",
    ],
)
def test_the_guard_lets_one_config_per_grid_through(source):
    assert _per_point_configs(source) == []


# Where each config builder takes alpha: its position, and its keyword.
ALPHA_ARGUMENT = {"ProtocolConfig": 1, "_make_config": 2}


def _literal_alphas(source):
    """Line of every ProtocolConfig or _make_config call whose alpha, by
    position or by keyword, is a numeric literal.

    A numeric literal is an int, float or complex constant (not a bool), or
    arithmetic on such constants alone, such as -0.5 or 1 / 2. A call through
    an attribute (``noonecp.ProtocolConfig``) counts; a position past a
    starred argument is not known, so it is not read.
    """

    def numeric(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float, complex)) and not isinstance(
                node.value, bool
            )
        if isinstance(node, ast.UnaryOp):
            return numeric(node.operand)
        return isinstance(node, ast.BinOp) and numeric(node.left) and numeric(node.right)

    def alpha(call):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ALPHA_ARGUMENT:
            return None
        for keyword in call.keywords:
            if keyword.arg == "alpha":
                return keyword.value
        position = ALPHA_ARGUMENT[name]
        leading = call.args[: position + 1]
        if len(leading) > position and not any(isinstance(a, ast.Starred) for a in leading):
            return leading[position]
        return None

    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and numeric(alpha(node))
    )


@pytest.mark.parametrize("module", MODULES)
def test_no_config_in_the_package_is_given_a_placeholder_alpha(module):
    # alpha is the input, not a setting: a config that runs a grid leaves it out
    assert _literal_alphas((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "settings = _make_config(args, protocol, 0.5)",
        "settings = ProtocolConfig(protocol, 0.5, n_photons, k_max)",
        "cfg = ProtocolConfig(protocol='ecp2', alpha=0.5, max_rounds=3)",
        "cfg = noonecp.ProtocolConfig('ecp1', -0.5)",
        "def f(args):\n    return _make_config(args, 'ecp1', alpha=1 / 2)",
        "class C:\n    def c(self):\n        return protocols.ProtocolConfig('ecp2', 1)",
        "totals = _grid_totals(_make_config(args, protocol, 7e-1), args.grid)",
    ],
)
def test_the_guard_sees_each_placeholder_alpha(source):
    assert _literal_alphas(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "settings = ProtocolConfig(protocol, n_photons=n_photons, max_rounds=k_max)",
        "settings = _make_config(args, protocol)",
        "config = _make_config(args, args.protocol, math.sqrt(args.alpha_sq))",
        "cfg = ProtocolConfig('ecp2', alpha, 2, 10, 0.1, 0.9)",
        "cfg = ProtocolConfig('ecp1', n_photons=2, theta=0.1, loss_eta=0.9)",
        "cfg = _make_config(args, protocol, None)",
        "cfg = ProtocolConfig(*fields, 0.5)",
        "point = SweepPoint(0.5, 0.2, ())",
    ],
)
def test_the_guard_lets_a_config_without_a_literal_alpha_through(source):
    assert _literal_alphas(source) == []


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


ENGINE_ENTRIES = ("run_round", "run_schedule", "_grid_totals", "_rounds")
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
        "def _grid_totals(config, alphas):\n    return list(map(math.exp, alphas))",
        "def run_round(state, config, round_k):\n    from math import atanh\n"
        "    return atanh(0.5)",
        "def _tail(x):\n    return math.log1p(-x)\n\n"
        "def run_round(state, config, round_k):\n    return _tail(0.5)",
        "def run_schedule(config):\n    return _fold(config, [config.alpha])\n\n"
        "def _fold(config, alphas):\n    return [_t(a) for a in alphas]\n\n"
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
        "def run_schedule(config):\n    return math.sqrt(config.alpha)",
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


def _script_entries(source):
    """Line of every comparison of ``__name__`` with "__main__"."""

    def operands(node):
        return {
            n.id if isinstance(n, ast.Name) else n.value
            for n in [node.left, *node.comparators]
            if isinstance(n, (ast.Name, ast.Constant))
        }

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and {"__name__", "__main__"} <= operands(node)
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__main__.py"])
def test_only_the_package_main_is_a_script_entry(module):
    # ``python -m noonecp`` and the console script are the entries
    assert _script_entries((PACKAGE / module).read_text()) == []


def test_the_guard_sees_a_script_entry():
    assert _script_entries('if __name__ == "__main__":\n    sys.exit(main())') != []


def test_the_guard_lets_other_uses_of_the_module_name_through():
    assert _script_entries("log = logging.getLogger(__name__)\nok = __name__ == 'noonecp'") == []


# Module-level imports a module keeps without reading them, each with its reason.
UNREAD_IMPORTS_KEPT = {
    # benchmarks/test_benchmark.py looks up noonecp.protocols.tensor; ROADMAP
    # item 3 mends that test and deletes the import with it
    ("protocols.py", "tensor"),
}


def _unread_imports(source):
    """Each name a module-level import of ``source`` binds and no code reads.

    A read is a load of the bare name anywhere in the module, an annotation
    included; a string, a docstring or a store is not one. Star imports and
    ``__future__`` imports bind nothing to read.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(bound) - read)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_reads_every_name_it_imports(module):
    kept = sorted(name for owner, name in UNREAD_IMPORTS_KEPT if owner == module)
    assert _unread_imports((PACKAGE / module).read_text()) == kept


@pytest.mark.parametrize(
    "source",
    [
        "import math\nx = 1",
        "from typing import Iterable, Sequence\ndef f(xs: Iterable[int]):\n    return xs",
        "from .fock import _elements, _per_element\n"
        "def f(v):\n    return _per_element(v, 1)",
        "import os.path as osp\nimport os\nHOME = os.sep",
        "from math import pi as PI\ndef pi():\n    return 3",
        "import json\njson = None",
        "import math\n\"\"\"Uses math.pi.\"\"\"",
        "from itertools import starmap\ndef f(rows):\n    return 'starmap'",
    ],
)
def test_the_guard_sees_each_unread_import(source):
    assert _unread_imports(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "from __future__ import annotations\nimport math\nTAU = math.tau",
        "from typing import Sequence\ndef f(xs: Sequence[int]):\n    return xs",
        "import os.path\nHOME = os.path.expanduser('~')",
        "from . import fock\nfrom .fock import *\n__all__ = fock.__all__",
        "from math import pi as PI\ndef area(r):\n    return PI * r * r",
        "import sys\nclass C:\n    def f(self):\n        return sys.maxsize",
        "def f():\n    import json\n    return 1",
    ],
)
def test_the_guard_lets_each_read_import_through(source):
    assert _unread_imports(source) == []


def _power_squares(source):
    """Line of every square taken as a power: ``**`` or ``**=`` with the
    constant exponent 2 or 2.0, or a ``pow`` or ``math.pow`` call with it.

    A float square is one multiply, ``x * x``, which is correctly rounded;
    libm ``pow`` need not be.
    """

    def two(node):
        return (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and node.value == 2
        )

    def squares(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            return two(node.right if isinstance(node, ast.BinOp) else node.value)
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name == "pow" and two(node.args[1])
        return False

    return [node.lineno for node in ast.walk(ast.parse(source)) if squares(node)]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_in_the_package_squares_with_a_power(module):
    assert _power_squares((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(x):\n    return x**2",
        "def f(a):\n    return abs(a) ** 2",
        "def f(s, n):\n    return (s / n) ** 2.0",
        "def f(x):\n    return pow(x, 2)",
        "import math\ndef f(x):\n    return math.pow(x, 2)",
        "def f(x):\n    x **= 2\n    return x",
    ],
)
def test_the_guard_sees_each_square_taken_as_a_power(source):
    assert _power_squares(source) != []


@pytest.mark.parametrize(
    "source",
    [
        "LARGE = 2.0**1022",
        "SMALL = 2.0**-600",
        "def f(q, a):\n    return q ** (a // 2)",
        "def f(x):\n    return x * x",
        "def f(x):\n    return pow(2, x)",
    ],
)
def test_the_guard_lets_other_powers_and_multiplies_through(source):
    assert _power_squares(source) == []
