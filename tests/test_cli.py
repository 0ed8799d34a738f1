"""End-to-end tests for the command-line driver."""

import math
import subprocess
import sys

import pytest

from noonecp.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main

BALANCED_SQ = 0.5


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


def test_sweep_rejects_bad_grids(capsys):
    for bad in ("0.5:0.9", "0:0.9:5", "0.1:1:5", "0.9:0.1:5", "a:b:c", "0.2:0.8:-1"):
        code, _, _ = _run(capsys, ["sweep", "--grid", bad])
        assert code == EXIT_USAGE, bad


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "noonecp", "run", "--alpha-sq", "0.8", "--rounds", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "p_total" in proc.stdout
