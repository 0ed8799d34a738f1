"""Command-line driver: single runs, alpha sweeps and loss comparison.

Three subcommands:

* ``run``: one schedule at a fixed alpha^2, printed as a per-round table
  with closed-form cross-checks, optionally written as CSV.
* ``sweep``: simulated and closed-form p_total over an alpha grid, as CSV.
* ``compare-loss``: lossy ecp1 vs ecp2 totals over an alpha grid, as CSV,
  from one lossless engine pass scaled by each scheme's loss factor.

Exit codes: 0 on success, 2 on usage errors, 3 on I/O errors. A flat
key=value config file's values are read as the chosen subcommand's flags:
an explicit flag wins, every file value is checked, and keys the
subcommand has no flag for are ignored. Each CSV row is one ``%``
operation on its table's template, which the command builds once from
``_fmt``'s conversions of the table's cell types: a round or K is an
integer, ecp1's vbs_t is empty (ecp1 has no variable beam splitter) and
any other number has 12 significant digits and '.' decimals. Lines end in LF; output is
byte-identical across runs with identical flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
import time

from .analytics import (
    _linspace,
    _round_yields,
    default_alpha_grid,
    p_total_closed_form,
)
from .protocols import (
    PROTOCOLS,
    ProtocolConfig,
    _grid_totals,
    _loss_factor,
    apply_loss_model,
    run_schedule,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


def _fmt(kind: type) -> str:
    """The %-conversion of a CSV cell of type ``kind``.

    Empty for None (the conversion takes the None and writes nothing), an
    int as written, any other number to 12 significant digits.
    """
    if kind is type(None):
        return "%.0s"
    return "%d" if issubclass(kind, int) else "%.12g"


def _template(*kinds: type) -> str:
    """The row template of cells of these types: their conversions, ','-joined.

    Every row of a table has the same cell types, so each command builds
    its table's template once, before its first row.
    """
    return ",".join(map(_fmt, kinds))


# The template of one number on its own, as run's settings and summary print it.
_NUMBER = _template(float)


def _row(template: str, *cells: float | int | None) -> str:
    """One CSV row, or one cell, in one ``%`` operation on its table's template."""
    return template % cells


def _number(text: str, kind: type, what: str) -> int | float:
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects {what}, got {text!r}") from None


_real = functools.partial(_number, kind=float, what="a number")


def _protocol(text: str) -> str:
    protocol = text.lower()
    if protocol not in PROTOCOLS:
        raise argparse.ArgumentTypeError(f"must be one of {PROTOCOLS}, got {text!r}")
    return protocol


def _positive_int(text: str) -> int:
    value = _number(text, int, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = _real(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value + 0.0  # -0.0 is the channel 0


def _alpha_sq(text: str) -> float:
    value = _real(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly inside (0, 1), got {value}")
    return value


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expects a file path, got ''")
    return text


def _grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects start:stop:steps, got {text!r}")
    start = _number(parts[0], float, "a number as start")
    stop = _number(parts[1], float, "a number as stop")
    steps = _number(parts[2], int, "an integer as steps")
    if steps < 0:
        raise argparse.ArgumentTypeError(f"steps must be >= 0, got {steps}")
    if not (0.0 < start < 1.0 and 0.0 < stop < 1.0):
        raise argparse.ArgumentTypeError(
            f"endpoints must lie strictly inside (0, 1), got {text!r}"
        )
    if start > stop:
        raise argparse.ArgumentTypeError(f"start must not exceed stop, got {text!r}")
    return _linspace(start, stop, steps)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's by name; one shared set, never changed."""
    parser = argparse.ArgumentParser(
        prog="noonecp",
        description="Simulate iterated entanglement concentration of NOON states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {
        "run": sub.add_parser("run", help="one schedule at a fixed alpha^2"),
        "sweep": sub.add_parser("sweep", help="p_total over an alpha grid, vs closed form"),
        "compare-loss": sub.add_parser(
            "compare-loss", help="lossy ecp1 vs ecp2 over an alpha grid"
        ),
    }
    p_run, p_sweep, p_cmp = subparsers.values()

    p_run.add_argument("--alpha-sq", type=_alpha_sq)
    for p in (p_run, p_cmp):
        p.add_argument("--eta", type=_unit_interval, default=1.0, help="channel transmission")
    for p in (p_sweep, p_cmp):
        p.add_argument(
            "--grid", type=_grid, default=default_alpha_grid(), help="alpha grid start:stop:steps"
        )
    for p in (p_run, p_sweep):
        p.add_argument("--protocol", type=_protocol, default="ecp2", help="ecp1 or ecp2")
    for p in subparsers.values():
        p.add_argument("--n", type=_positive_int, default=1, help="photon number N")
        p.add_argument("--rounds", type=_positive_int, default=10, help="rounds to run")
        p.add_argument("--theta", type=_real, default=0.1, help="probe phase (rad)")
        p.add_argument("--out", type=_out_path, help="output CSV path")
        p.add_argument("--config", help="flat key=value config file")
    return parser, subparsers


def _config_flags(
    path: str, subparsers: dict[str, argparse.ArgumentParser], command: str
) -> list[str]:
    """The config file's values for the flags of ``command``, one ``--flag=value`` each.

    Flat key=value file; '#' starts a comment, blank lines are skipped.
    Keys match flag names case-insensitively, with '-' and '_'
    interchangeable. A key that no subcommand has a flag for is an error.
    The '=' keeps a value such as -0.2 from reading as a flag of its own.
    """
    flags = {name: set(vars(p.parse_args([]))) - {"config"} for name, p in subparsers.items()}
    known = set().union(*flags.values())
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    tokens: list[str] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in known:
            raise _UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in flags[command]:
            tokens.append(f"--{key.replace('_', '-')}={value.strip()}")
    return tokens


def _make_config(
    args: argparse.Namespace, protocol: str, alpha: float | None = None
) -> ProtocolConfig:
    try:
        return ProtocolConfig(
            protocol=protocol,
            alpha=alpha,
            n_photons=args.n,
            max_rounds=args.rounds,
            theta=args.theta,
            # sweep has no --eta; its schedules are lossless
            loss_eta=getattr(args, "eta", 1.0),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _write_csv(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_RUN_CSV_HEADER = (
    "round,vbs_t,p_conditional,p_unconditional,p_round_oracle,delta,success_fidelity"
)


def cmd_run(args: argparse.Namespace) -> int:
    if args.alpha_sq is None:
        raise _UsageError("run requires --alpha-sq (flag or config file)")
    config = _make_config(args, args.protocol, math.sqrt(args.alpha_sq))
    started = time.perf_counter()
    schedule = run_schedule(config)
    oracle = _round_yields(config.alpha, 1, config.max_rounds)
    wall = time.perf_counter() - started
    deltas = [abs(row.p_unconditional - o) for row, o in zip(schedule.per_round, oracle)]
    # a scheme without a variable beam splitter reports vbs_t as None: an empty cell
    vbs_t = type(schedule.per_round[0].vbs_transmission)
    template = _template(int, vbs_t, float, float, float, float, float)
    rows = [
        _row(template, k, t, p, u, o, delta, fidelity)
        for (k, t, p, u, fidelity), o, delta in zip(schedule.per_round, oracle, deltas)
    ]
    csv = _csv(_RUN_CSV_HEADER, rows)
    settings = (
        f"protocol={config.protocol} alpha_sq={_row(_NUMBER, args.alpha_sq)} "
        f"n={config.n_photons} rounds={config.max_rounds} "
        f"theta={_row(_NUMBER, config.theta)} eta={_row(_NUMBER, config.loss_eta)}\n"
    )
    summary = [
        f"p_total          = {_row(_NUMBER, schedule.p_total)}",
        f"p_total_oracle   = {_row(_NUMBER, functools.reduce(operator.add, oracle))}",
        f"max_round_delta  = {_row(_NUMBER, max(deltas))}",
    ]
    if config.loss_eta < 1.0:
        lossy = apply_loss_model(schedule, config).p_total
        summary.append(
            f"p_total_with_loss= {_row(_NUMBER, lossy)} (eta={_row(_NUMBER, config.loss_eta)})"
        )
    summary.append(f"wall_time_s      = {wall:.6f}\n")
    # the table is the CSV with two spaces for each ','
    sys.stdout.write(settings + csv.replace(",", "  ") + "\n".join(summary))
    if args.out is not None:
        _write_csv(args.out, csv)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    header = "alpha,alpha_sq,k_max,p_total,p_total_oracle,delta"
    # one engine pass folds the whole grid's unconditional column
    totals = _grid_totals(_make_config(args, args.protocol), args.grid)
    template = _template(float, float, int, float, float, float)
    rows = []
    for alpha, simulated in zip(args.grid, totals):
        oracle = p_total_closed_form(alpha, args.rounds)
        delta = abs(simulated - oracle)
        rows.append(_row(template, alpha, alpha * alpha, args.rounds, simulated, oracle, delta))
    _write_csv(args.out, _csv(header, rows))
    return EXIT_OK


def cmd_compare_loss(args: argparse.Namespace) -> int:
    header = "alpha,eta,p_total_ecp1,p_total_ecp2,advantage"
    ecp1, ecp2 = _make_config(args, "ecp1"), _make_config(args, "ecp2")
    # Both schemes run one circuit on their own labels (same mixer, tags and
    # ket order), so their lossless passes agree bit for bit and one pass
    # serves both: ``_grid_totals`` is lossless, and each column is that pass
    # times the scheme's loss factor, as ``apply_loss_model`` scales. This
    # holds only while loss is a factor applied after the circuit; once loss
    # is put into the circuit, each scheme needs its own pass again.
    lossless = _grid_totals(ecp2, args.grid)
    f1, f2 = _loss_factor(ecp1), _loss_factor(ecp2)
    template = _template(float, float, float, float, float)
    rows = []
    for alpha, total in zip(args.grid, lossless):
        p1, p2 = total * f1, total * f2
        rows.append(_row(template, alpha, args.eta, p1, p2, p2 - p1))
    _write_csv(args.out, _csv(header, rows))
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare-loss": cmd_compare_loss,
}


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go right after the subcommand, so explicit ones win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, subparsers, args.command)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits after --help (0) or after printing a usage error
        return exc.code if exc.code in (EXIT_OK, EXIT_USAGE) else EXIT_USAGE
    except _UsageError as exc:
        print(f"noonecp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"noonecp: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
