"""End-to-end tests for the command-line driver."""

import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from noonecp import ProtocolConfig, analytics, cli, default_alpha_grid, protocols
from noonecp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, _grid, build_parser, main

BALANCED_SQ = 0.5
SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    """Run ``python args`` with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env
    )


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_run_prints_summary_and_table(capsys):
    code, out, err = _run(
        capsys, ["run", "--alpha-sq", "0.8", "--protocol", "ecp2", "--rounds", "2"]
    )
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("protocol=ecp2 alpha_sq=0.8 n=1 rounds=2")
    assert "round" in lines[1] and "p_unconditional" in lines[1]
    assert lines[2].startswith("1  0.8  ")
    assert any(line.startswith("p_total ") for line in lines)
    assert any(line.startswith("p_total_oracle") for line in lines)
    assert any(line.startswith("wall_time_s") for line in lines)


def test_readme_run_example_is_the_real_output(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    command = "$ noonecp run --alpha-sq 0.8 --protocol ecp2 --rounds 4\n"
    shown = readme.split(command, 1)[1].split("```", 1)[0].splitlines()
    code, out, _ = _run(capsys, command.split()[2:])
    assert code == EXIT_OK
    assert out.splitlines()[: len(shown)] == shown
    assert len(shown) == 7


def test_run_values_match_closed_form(capsys):
    code, out, _ = _run(
        capsys, ["run", "--alpha-sq", "0.8", "--protocol", "ecp1", "--rounds", "1"]
    )
    assert code == EXIT_OK
    totals = {
        line.split("=")[0].strip(): float(line.split("=")[1].split()[0])
        for line in out.splitlines()
        if "=" in line and line.split("=")[0].strip().startswith(("p_total", "max_round"))
    }
    assert totals["p_total"] == pytest.approx(0.32, abs=1e-12)
    assert totals["p_total_oracle"] == pytest.approx(0.32, abs=1e-12)
    assert totals["max_round_delta"] < 1e-12


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_run_deep_rounds_match_oracle(tmp_path, capsys, protocol):
    # the recycled small amplitude reaches ~1e-20 by round 6 and is kept
    out_path = tmp_path / "run.csv"
    argv = ["run", "--alpha-sq", "0.8", "--protocol", protocol, "--rounds", "40"]
    code, _, _ = _run(capsys, argv + ["--out", str(out_path)])
    assert code == EXIT_OK
    _, rows = _csv_rows(out_path.read_text())
    for row in rows[5:10]:
        oracle, delta, fidelity = map(float, row[4:7])
        assert oracle > 0.0
        assert delta <= 1e-12 * oracle, row
        assert fidelity == pytest.approx(1.0, abs=1e-12)
    assert float(rows[10][3]) == 0.0
    assert math.isnan(float(rows[10][6]))


def test_run_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code, _, _ = _run(
        capsys,
        [
            "run",
            "--alpha-sq",
            "0.8",
            "--protocol",
            "ecp2",
            "--rounds",
            "4",
            "--out",
            str(out_path),
        ],
    )
    assert code == EXIT_OK
    text = out_path.read_text()
    header, rows = _csv_rows(text)
    assert header == (
        "round,vbs_t,p_conditional,p_unconditional,p_round_oracle,delta,success_fidelity"
    )
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.64 / 0.68, abs=1e-12)
    for r in rows:
        assert float(r[5]) < 1e-12
    assert text.endswith("\n")
    assert "\r" not in text


def test_run_ecp1_leaves_vbs_column_empty(tmp_path, capsys):
    out_path = tmp_path / "run1.csv"
    code, _, _ = _run(
        capsys,
        ["run", "--alpha-sq", "0.5", "--protocol", "ecp1", "--rounds", "2", "--out", str(out_path)],
    )
    assert code == EXIT_OK
    _, rows = _csv_rows(out_path.read_text())
    assert all(r[1] == "" for r in rows)


@pytest.mark.parametrize("protocol, alpha_sq", [("ecp1", 0.3), ("ecp2", 0.5 + 5.2e-15)])
def test_run_prints_its_csv_as_its_table(tmp_path, capsys, protocol, alpha_sq):
    # run writes its stdout in one piece; the table in it is the --out CSV
    # with two spaces for each ','
    out_path = tmp_path / "run.csv"
    code, out, err = _run(capsys, [
        "run", "--protocol", protocol, "--alpha-sq", repr(alpha_sq), "--rounds", "60",
        "--out", str(out_path),
    ])
    assert code == EXIT_OK, err
    csv_lines = out_path.read_text().splitlines()
    assert len(csv_lines) == 61
    shown = out.splitlines()
    assert shown[0].startswith(f"protocol={protocol} alpha_sq={_cell_rule(alpha_sq)} ")
    assert shown[1:62] == [line.replace(",", "  ") for line in csv_lines]
    assert shown[62].startswith("p_total          = ")


def _cell_rule(x):
    """A CSV cell as the cli module docstring states its rule, written apart from cli."""
    if x is None:
        return ""
    return str(x) if isinstance(x, int) else format(x, ".12g")


# Each table's command, and the kinds of its row's cells: d a round or K,
# g any other number, - ecp1's absent vbs_t.
_TABLES = {
    "run-ecp1": (["run", "--protocol", "ecp1", "--alpha-sq", "0.3"], "d-ggggg"),
    "run-ecp2": (["run", "--protocol", "ecp2", "--alpha-sq", "0.3"], "dgggggg"),
    "sweep": (["sweep", "--grid", "0.1:0.9:3"], "ggdggg"),
    "compare-loss": (["compare-loss", "--eta", "0.9", "--grid", "0.1:0.9:3"], "ggggg"),
}
_EDGE_COUNTS = [10**13, 0, 1]
_EDGE_NUMBERS = [-0.0, 0.0, 1e13, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_each_tables_row_template_writes_every_cell_as_fmt_does(table, capsys, monkeypatch):
    # a table's rows are one % on a template of _fmt's conversions; fed edge
    # cells of the table's own kinds, each field must be what _fmt's
    # conversion and the stated cell rule make of its cell
    argv, kinds = _TABLES[table]
    rows = []
    real_row = cli._row

    def spy(template, *cells):
        rows.append((template, cells))
        return real_row(template, *cells)

    monkeypatch.setattr(cli, "_row", spy)
    assert main([*argv, "--rounds", "3"]) == EXIT_OK
    capsys.readouterr()
    rows = [row for row in rows if len(row[1]) > 1]  # run's summary formats lone cells
    shapes = {"".join("-" if c is None else "d" if type(c) is int else "g" for c in cells)
              for _, cells in rows}
    assert shapes == {kinds}
    # every row of the table is written with the one template its command built
    templates = {template for template, _ in rows}
    assert len(templates) == 1
    (template,) = templates
    for j in range(len(_EDGE_NUMBERS)):
        cells = tuple(
            None if kind == "-"
            else _EDGE_COUNTS[j % len(_EDGE_COUNTS)] if kind == "d"
            else _EDGE_NUMBERS[(i + j) % len(_EDGE_NUMBERS)]
            for i, kind in enumerate(kinds)
        )
        fields = real_row(template, *cells).split(",")
        assert fields == [_cell_rule(c) for c in cells], cells
        assert fields == [cli._fmt(type(c)) % (c,) for c in cells], cells


def test_run_reports_lossy_total(capsys):
    code, out, _ = _run(
        capsys,
        ["run", "--alpha-sq", "0.5", "--protocol", "ecp1", "--rounds", "1", "--eta", "0.9"],
    )
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.startswith("p_total_with_loss"))
    assert float(line.split("=")[1].split()[0]) == pytest.approx(0.405, abs=1e-12)


def test_run_first_round_yield_for_three_photons(tmp_path, capsys):
    out_path = tmp_path / "n3.csv"
    code, _, _ = _run(
        capsys,
        [
            "run",
            "--protocol",
            "ecp2",
            "--alpha-sq",
            "0.8",
            "--n",
            "3",
            "--rounds",
            "4",
            "--out",
            str(out_path),
        ],
    )
    assert code == EXIT_OK
    _, rows = _csv_rows(out_path.read_text())
    assert len(rows) == 4
    assert float(rows[0][3]) == pytest.approx(0.32, abs=1e-12)


def test_run_balanced_ten_rounds_total(capsys):
    code, out, _ = _run(
        capsys, ["run", "--alpha-sq", "0.5", "--protocol", "ecp1", "--rounds", "10"]
    )
    assert code == EXIT_OK
    line = next(l for l in out.splitlines() if l.startswith("p_total "))
    assert float(line.split("=")[1]) == pytest.approx(0.9990234375, abs=1e-12)


def test_run_takes_its_oracle_yields_in_one_pass(capsys, monkeypatch):
    imbalance = analytics._imbalance
    calls = []

    def spy(alpha):
        calls.append(alpha)
        return imbalance(alpha)

    monkeypatch.setattr(analytics, "_imbalance", spy)
    code, _, _ = _run(capsys, ["run", "--alpha-sq", "0.8", "--rounds", "1000"])
    assert code == EXIT_OK
    assert calls == [math.sqrt(0.8)]


def test_run_requires_alpha_sq(capsys):
    code, _, err = _run(capsys, ["run"])
    assert code == EXIT_USAGE
    assert "alpha-sq" in err


def test_run_rejects_boundary_alpha(capsys):
    for bad in ("0", "1", "1.0", "-0.2"):
        code, _, err = _run(capsys, ["run", "--alpha-sq", bad])
        assert code == EXIT_USAGE
        assert "alpha-sq" in err


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_run_beyond_float_exponent_depth(tmp_path, capsys, protocol):
    out_path = tmp_path / "deep.csv"
    argv = ["run", "--protocol", protocol, "--alpha-sq", "0.8", "--rounds", "2000"]
    code, _, err = _run(capsys, argv + ["--out", str(out_path)])
    assert code == EXIT_OK, err
    _, rows = _csv_rows(out_path.read_text())
    assert len(rows) == 2000
    assert all(math.isfinite(float(r[4])) for r in rows)


def test_run_rejects_bad_numbers(capsys):
    assert _run(capsys, ["run", "--alpha-sq", "0.5", "--rounds", "0"])[0] == EXIT_USAGE
    assert _run(capsys, ["run", "--alpha-sq", "0.5", "--n", "0"])[0] == EXIT_USAGE
    assert _run(capsys, ["run", "--alpha-sq", "0.5", "--eta", "1.5"])[0] == EXIT_USAGE
    assert _run(capsys, ["run", "--alpha-sq", "0.5", "--theta", "0"])[0] == EXIT_USAGE
    # N tags of -theta/N that do not cancel theta in doubles
    for argv in (
        ["run", "--alpha-sq", "0.3", "--n", "11", "--theta", "1e8"],
        ["sweep", "--n", "19", "--theta", "1e7"],
        ["compare-loss", "--n", "11", "--theta", "1e8"],
    ):
        code, _, err = _run(capsys, argv)
        assert code == EXIT_USAGE, argv
        assert "cancel" in err, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--alpha-sq", "0.36", "--rounds", "2"],
        ["sweep", "--rounds", "2", "--grid", "0.1:0.9:3"],
        ["compare-loss", "--rounds", "2", "--grid", "0.1:0.9:3"],
    ],
    ids=["run", "sweep", "compare-loss"],
)
def test_a_theta_whose_success_reading_folds_to_zero_is_a_usage_error(argv):
    # theta = 2*pi + 1e-9 reads apart from 0, but 19 tags of -theta/19 fold
    # the success ket to within the homodyne tolerance of 0
    proc = _python("-m", "noonecp", *argv, "--n", "19", "--theta", "6.283185308179586")
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("noonecp: error: theta=6.283185308179586 split into 19 ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--theta", "--eta", "--alpha-sq"])
def test_numeric_flags_report_a_non_number_alike(capsys, flag):
    argv = ["run", "--alpha-sq", "0.5", flag, "abc"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"argument {flag}: expects a number, got 'abc'" in err


@pytest.mark.parametrize("grid", ["0.3:0.4:0", "0.3:0.4:1"], ids=["empty", "one-point"])
@pytest.mark.parametrize("command", ["sweep", "compare-loss"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "0"], "multiple of 2[*]pi"),
        (["--theta", "nan"], "finite real"),
        (["--n", "19", "--theta", "1e7"], "cancel"),
    ],
)
def test_grid_commands_check_settings_whatever_the_grid_length(
    capsys, grid, command, flags, message
):
    code, out, err = _run(capsys, [command, "--grid", grid, *flags])
    assert code == EXIT_USAGE
    assert out == ""
    assert re.search(message, err)


def test_compare_loss_empty_grid_writes_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = _run(capsys, ["compare-loss", "--grid", "0.3:0.4:0", "--out", str(out_path)])
    assert code == EXIT_OK
    assert out_path.read_text() == "alpha,eta,p_total_ecp1,p_total_ecp2,advantage\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--help"]) == EXIT_OK
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    code = main(["sweep", "--eta", "0.9"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_sweep_stdout_csv(capsys):
    code, out, _ = _run(
        capsys, ["sweep", "--grid", "0.3:0.9:7", "--rounds", "3", "--protocol", "ecp1"]
    )
    assert code == EXIT_OK
    header, rows = _csv_rows(out)
    assert header == "alpha,alpha_sq,k_max,p_total,p_total_oracle,delta"
    assert len(rows) == 7
    assert float(rows[0][0]) == pytest.approx(0.3, abs=1e-12)
    assert float(rows[-1][0]) == pytest.approx(0.9, abs=1e-12)
    for r in rows:
        assert r[2] == "3"
        assert float(r[1]) == pytest.approx(float(r[0]) ** 2, rel=1e-10)
        assert float(r[5]) < 1e-12


def test_sweep_single_round_column_is_first_yield(capsys):
    code, out, _ = _run(capsys, ["sweep", "--grid", "0.2:0.8:4", "--rounds", "1"])
    assert code == EXIT_OK
    _, rows = _csv_rows(out)
    for r in rows:
        x = float(r[1])
        assert float(r[3]) == pytest.approx(2 * x * (1 - x), abs=1e-12)


def test_sweep_peak_lands_at_balanced_point(capsys):
    code, out, _ = _run(
        capsys, ["sweep", "--grid", "0.3:0.95:131", "--rounds", "8"]
    )
    assert code == EXIT_OK
    _, rows = _csv_rows(out)
    totals = [float(r[3]) for r in rows]
    alphas = [float(r[0]) for r in rows]
    best = alphas[totals.index(max(totals))]
    target = 1 / math.sqrt(2)
    nearest = min(alphas, key=lambda a: abs(a - target))
    assert best == pytest.approx(nearest, abs=1e-12)


def test_sweep_empty_grid_writes_header_only(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = _run(
        capsys, ["sweep", "--grid", "0.5:0.5:0", "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert out_path.read_text() == "alpha,alpha_sq,k_max,p_total,p_total_oracle,delta\n"


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    args = ["sweep", "--grid", "0.15:0.95:23", "--rounds", "6"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run(capsys, args + ["--out", str(a)])[0] == EXIT_OK
    assert _run(capsys, args + ["--out", str(b)])[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _spy_on_passes(monkeypatch):
    """Record the number of alphas of each engine pass the CLI makes."""
    sizes = []
    real = protocols._rounds

    def spy(config, alphas):
        sizes.append(len(alphas))
        return real(config, alphas)

    monkeypatch.setattr(protocols, "_rounds", spy)
    return sizes


def test_sweep_runs_a_benchmark_sized_grid_in_one_pass(capsys, monkeypatch):
    sizes = _spy_on_passes(monkeypatch)
    code, _, err = _run(capsys, ["sweep", "--grid", "0.0478:0.9575:212", "--rounds", "10"])
    assert code == EXIT_OK, err
    assert sizes == [212]


def test_compare_loss_runs_one_pass_for_both_schemes(capsys, monkeypatch):
    sizes = _spy_on_passes(monkeypatch)
    code, _, err = _run(capsys, ["compare-loss", "--eta", "0.9"])
    assert code == EXIT_OK, err
    assert sizes == [len(default_alpha_grid())]


# A 200-point grid shaped like the benchmark's jittered 0.05:0.95 grids, and
# the lopsided ends alpha^2 = 1e-4 and 0.9999.
_LOSS_GRID = _grid("0.0537:0.9468:200") + [math.sqrt(1e-4), math.sqrt(0.9999)]


@pytest.mark.parametrize("eta", [1.0, 0.9, 0.37, 0.0])
@pytest.mark.parametrize("k_max", [1, 10, 60])
@pytest.mark.parametrize("theta", [0.1, -2.0, math.pi])
@pytest.mark.parametrize("n", [1, 100])
def test_compare_loss_columns_are_each_schemes_own_grid_totals(
    capsys, monkeypatch, n, theta, k_max, eta
):
    # compare-loss prints each scheme's column from one shared lossless pass;
    # each unformatted cell must have the bits of that scheme's own lossless
    # pass times its loss factor
    cells = []
    real_row = cli._row
    monkeypatch.setattr(
        cli, "_row", lambda template, *row: cells.append(row) or real_row(template, *row)
    )
    args = build_parser()[0].parse_args([
        "compare-loss", "--n", str(n), "--theta", repr(theta), "--rounds", str(k_max),
        "--eta", repr(eta),
    ])
    args.grid = _LOSS_GRID
    assert cli.cmd_compare_loss(args) == EXIT_OK
    capsys.readouterr()
    want = {}
    for protocol in protocols.PROTOCOLS:
        config = ProtocolConfig(
            protocol, n_photons=n, max_rounds=k_max, theta=theta, loss_eta=eta
        )
        factor = protocols._loss_factor(config)
        want[protocol] = [t * factor for t in protocols._grid_totals(config, _LOSS_GRID)]
    assert [alpha for alpha, *_ in cells] == _LOSS_GRID
    for column, protocol in ((2, "ecp1"), (3, "ecp2")):
        assert [row[column].hex() for row in cells] == [t.hex() for t in want[protocol]]
    assert [row[4].hex() for row in cells] == [(row[3] - row[2]).hex() for row in cells]


def test_deep_sweep_runs_the_whole_grid_in_one_pass(capsys, monkeypatch):
    sizes = _spy_on_passes(monkeypatch)
    code, _, err = _run(capsys, ["sweep", "--grid", "0.1:0.9:20", "--rounds", "1000"])
    assert code == EXIT_OK, err
    assert sizes == [20]


def test_sweep_rejects_bad_grids(capsys):
    for bad in (
        "0.5:0.9", "0:0.9:5", "0.1:1:5", "0.9:0.1:5", "a:b:c", "0.2:0.8:-1", "5:7:0",
    ):
        code, _, _ = _run(capsys, ["sweep", "--grid", bad])
        assert code == EXIT_USAGE, bad


def _grid_cases():
    rng = random.Random(20121209)
    for _ in range(2000):
        start, stop = sorted((rng.uniform(1e-6, 1.0 - 1e-6), rng.uniform(1e-6, 1.0 - 1e-6)))
        yield start, stop, rng.randint(0, 300)
    for _ in range(500):
        # shaped like the benchmark's jittered 0.05:0.95 grids
        start = float(f"{0.05 + rng.uniform(-0.01, 0.01):.4f}")
        stop = float(f"{0.95 + rng.uniform(-0.01, 0.01):.4f}")
        yield start, stop, rng.randint(180, 220)
        yield start, stop, rng.choice((1, 2))
        yield start, start, rng.randint(0, 300)
    # subnormal endpoints, where numpy's step underflows to zero
    for steps in range(8):
        yield 5e-324, 1.5e-323, steps


def test_grid_is_numpy_linspace_bit_for_bit():
    for start, stop, steps in _grid_cases():
        expected = [float(x) for x in np.linspace(start, stop, steps)]
        assert _grid(f"{start!r}:{stop!r}:{steps}") == expected, (start, stop, steps)
    assert default_alpha_grid() == [float(x) for x in np.linspace(0.01, 0.999, 199)]


def test_compare_loss_zero_advantage_without_loss(capsys):
    code, out, _ = _run(capsys, ["compare-loss", "--grid", "0.3:0.8:5", "--rounds", "4"])
    assert code == EXIT_OK
    header, rows = _csv_rows(out)
    assert header == "alpha,eta,p_total_ecp1,p_total_ecp2,advantage"
    for r in rows:
        assert float(r[1]) == 1.0
        assert abs(float(r[4])) < 1e-12


def test_compare_loss_balanced_row(capsys):
    alpha = math.sqrt(BALANCED_SQ)
    grid = f"{alpha}:{alpha}:1"
    code, out, _ = _run(
        capsys, ["compare-loss", "--eta", "0.9", "--grid", grid, "--rounds", "1"]
    )
    assert code == EXIT_OK
    _, rows = _csv_rows(out)
    assert len(rows) == 1
    r = rows[0]
    assert float(r[2]) == pytest.approx(0.405, abs=1e-12)
    assert float(r[3]) == pytest.approx(0.5, abs=1e-12)
    assert float(r[4]) == pytest.approx(0.095, abs=1e-12)


def test_compare_loss_dead_channel(capsys):
    from noonecp import p_total_closed_form

    code, out, _ = _run(
        capsys, ["compare-loss", "--eta", "0", "--grid", "0.4:0.8:3", "--rounds", "2"]
    )
    assert code == EXIT_OK
    _, rows = _csv_rows(out)
    for r in rows:
        assert float(r[2]) == 0.0
        # the local-aux scheme never touches the channel, so its column
        # still carries the lossless total
        assert float(r[3]) == pytest.approx(
            p_total_closed_form(float(r[0]), 2), abs=1e-12
        )


def test_minus_zero_eta_is_the_dead_channel(capsys):
    argv = ["compare-loss", "--grid", "0.4:0.8:3", "--rounds", "2", "--eta"]
    assert _run(capsys, argv + ["-0.0"]) == _run(capsys, argv + ["0"])
    code, out, _ = _run(capsys, ["run", "--alpha-sq", "0.8", "--eta", "-0.0"])
    assert code == EXIT_OK
    assert out.splitlines()[0].endswith(" eta=0")
    assert "(eta=0)" in out


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "# one concentration job\n"
        "protocol = ecp1\n"
        "alpha-sq = 0.8\n"
        "rounds = 1\n"
    )
    code, out, _ = _run(capsys, ["run", "--config", str(cfg)])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("protocol=ecp1 alpha_sq=0.8 n=1 rounds=1")


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("protocol = ecp1\nalpha-sq = 0.8\nrounds = 5\n")
    code, out, _ = _run(capsys, ["run", "--config", str(cfg), "--rounds", "1"])
    assert code == EXIT_OK
    first = out.splitlines()[0]
    assert "rounds=1" in first
    assert "protocol=ecp1" in first


def test_config_file_values_do_not_leak_into_later_calls(tmp_path, capsys):
    # main() parses every call, --config or not, with one parser per process;
    # a --config call must not leave its file's values behind in that parser
    cfg = tmp_path / "job.cfg"
    cfg.write_text("protocol = ecp1\nalpha-sq = 0.8\nrounds = 3\nn = 2\ntheta = 0.3\n")
    code, out, _ = _run(capsys, ["run", "--config", str(cfg)])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("protocol=ecp1 alpha_sq=0.8 n=2 rounds=3 theta=0.3")
    code, out, _ = _run(capsys, ["run", "--alpha-sq", "0.8"])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "protocol=ecp2 alpha_sq=0.8 n=1 rounds=10 theta=0.1 eta=1"
    cfg.write_text("rounds = 2\n")
    assert _run(capsys, ["sweep", "--config", str(cfg), "--grid", "0.4:0.6:2"])[0] == EXIT_OK
    code, out, _ = _run(capsys, ["sweep", "--grid", "0.4:0.6:2"])
    assert code == EXIT_OK
    assert {row[2] for row in _csv_rows(out)[1]} == {"10"}
    # and a run without --alpha-sq still finds it missing
    assert _run(capsys, ["run"])[0] == EXIT_USAGE


def test_config_file_call_leaves_the_parser_defaults_as_built(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha-sq = 0.8\nrounds = 3\n")
    assert _run(capsys, ["run", "--config", str(cfg)])[0] == EXIT_OK
    assert build_parser()[1]["run"].get_default("rounds") == 10


def test_config_file_value_is_checked_even_when_a_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha-sq = 0.8\nrounds = abc\n")
    code, out, err = _run(capsys, ["run", "--config", str(cfg), "--rounds", "2"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --rounds: expects an integer, got 'abc'" in err


def test_config_file_negative_value_is_read_as_that_number(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha-sq = 0.8\ntheta = -0.2\nrounds = 1\n")
    code, out, err = _run(capsys, ["run", "--config", str(cfg)])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == "protocol=ecp2 alpha_sq=0.8 n=1 rounds=1 theta=-0.2 eta=1"


def test_config_file_underscore_keys_accepted(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("ALPHA_SQ = 0.5\n")
    code, out, _ = _run(capsys, ["run", "--config", str(cfg), "--rounds", "1"])
    assert code == EXIT_OK
    assert "alpha_sq=0.5" in out.splitlines()[0]


def test_config_file_ignores_keys_the_subcommand_has_no_flag_for(tmp_path, capsys):
    # sweep has no --eta and compare-loss no --protocol: such keys are
    # ignored, even with values the other subcommands would reject
    args = ["sweep", "--grid", "0.4:0.6:2"]
    plain = _run(capsys, args)
    cfg = tmp_path / "job.cfg"
    cfg.write_text("eta = 7\n")
    assert _run(capsys, args + ["--config", str(cfg)]) == plain
    assert plain[0] == EXIT_OK
    cmp = ["compare-loss", "--grid", "0.4:0.6:2", "--rounds", "2"]
    cfg.write_text("protocol = ecp3\n")
    assert _run(capsys, cmp + ["--config", str(cfg)]) == _run(capsys, cmp)


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha-sq = 0.5\nshininess = 11\n")
    code, _, err = _run(capsys, ["run", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "shininess" in err


def test_config_file_bad_syntax(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("alpha-sq 0.5\n")
    code, _, err = _run(capsys, ["run", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "key=value" in err


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"rounds = 1\xff\n")
    code, out, err = _run(capsys, ["run", "--config", str(cfg)])
    assert (code, out) == (EXIT_USAGE, "")
    assert str(cfg) in err and "UTF-8" in err


def test_config_file_saved_with_a_byte_order_mark(tmp_path, capsys):
    # editors on Windows often start a UTF-8 file with U+FEFF
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes("alpha_sq = 0.8\nrounds = 2\n".encode("utf-8-sig"))
    code, out, err = _run(capsys, ["run", "--config", str(cfg)])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0].startswith("protocol=ecp2 alpha_sq=0.8 n=1 rounds=2")


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code, _, err = _run(
        capsys, ["run", "--alpha-sq", "0.5", "--config", str(tmp_path / "absent.cfg")]
    )
    assert code == EXIT_IO
    assert "i/o error" in err


def test_unwritable_out_is_io_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = _run(
        capsys, ["sweep", "--grid", "0.4:0.6:3", "--out", str(target)]
    )
    assert code == EXIT_IO
    assert "i/o error" in err


@pytest.mark.parametrize("command", [
    ["run", "--alpha-sq", "0.8"], ["sweep", "--grid", "0.4:0.6:3"], ["compare-loss"],
])
def test_empty_out_path_is_a_usage_error_before_any_work(command, capsys, monkeypatch):
    monkeypatch.setattr(protocols, "_rounds", None)  # any engine work would raise TypeError
    code, out, err = _run(capsys, [*command, "--out", ""])
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --out: expects a file path, got ''" in err


@pytest.mark.parametrize("line", ["out =", "out = ", "OUT=  # no path"])
def test_config_file_empty_out_is_a_usage_error_before_any_work(
    line, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(protocols, "_rounds", None)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"alpha-sq = 0.8\n{line}\n")
    code, out, err = _run(capsys, ["run", "--config", str(cfg)])
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --out: expects a file path, got ''" in err


def test_module_entry_point_runs():
    proc = _python("-m", "noonecp", "run", "--alpha-sq", "0.8", "--rounds", "2")
    assert proc.returncode == 0
    assert "p_total" in proc.stdout


def test_module_entry_point_help_exits_zero():
    proc = _python("-m", "noonecp", "--help")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "compare-loss" in proc.stdout


def test_unknown_protocol_is_usage_error(capsys):
    code, out, err = _run(capsys, ["run", "--alpha-sq", "0.5", "--protocol", "ecp3"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "argument --protocol: must be one of ('ecp1', 'ecp2'), got 'ecp3'" in err


def test_cli_runs_without_numpy(tmp_path):
    script = textwrap.dedent(
        f"""
        import sys
        import noonecp, noonecp.cli
        code = noonecp.cli.main(
            ["sweep", "--grid", "0.3:0.6:3", "--rounds", "2", "--out", {str(tmp_path / "s.csv")!r}]
        )
        loaded = [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]
        assert code == 0 and not loaded, (code, loaded)
        """
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s.csv").read_text().count("\n") == 4
