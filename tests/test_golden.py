"""The CLI reproduces its committed golden CSVs byte for byte.

Each file under ``tests/golden/`` is named after the command that wrote it;
regenerate one only for a change that is meant to alter that output.
"""

from pathlib import Path

import pytest

from noonecp.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "sweep_default.csv": ["sweep"],
    "compare_loss_default.csv": ["compare-loss"],
    "compare_loss_n100_eta0.9.csv": [
        "compare-loss", "--n", "100", "--eta", "0.9", "--grid", "0.05:0.95:200",
    ],
    "sweep_ecp1_n3_k12.csv": [
        "sweep", "--protocol", "ecp1", "--n", "3", "--rounds", "12",
        "--grid", "0.01:0.99:150",
    ],
    "run_alpha_sq0.8_k40.csv": ["run", "--alpha-sq", "0.8", "--rounds", "40"],
    # ecp1 has no variable beam splitter, so every vbs_t cell is empty; the
    # success branch dies after round 10 and rows 11-60 read 0 and nan.
    "run_ecp1_n2_alpha_sq0.3_k60.csv": [
        "run", "--protocol", "ecp1", "--alpha-sq", "0.3", "--n", "2", "--rounds", "60",
    ],
    # About 55 success rounds, then the failure branch repeats to K = 1000.
    "run_ecp2_alpha_sq0.5000000000000052_k1000.csv": [
        "run", "--protocol", "ecp2", "--rounds", "1000", "--alpha-sq", "0.5000000000000052",
    ],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_csv(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
