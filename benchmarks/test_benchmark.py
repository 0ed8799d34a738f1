"""Tests of the benchmark itself: reference, tracing, seeds, checks.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys

import mpmath
import pytest

import run
from reference import DPS, Checker, reference_yields, yields_at
from tracing import LAYERS, Tracer, self_times
from workloads import WORKLOADS, make_passes

cli, analytics = run._import_package()


def _checker():
    return Checker(analytics.ORACLE_MATCH_TOLERANCE, analytics.p_total_closed_form)


def test_reference_is_exact_at_the_balanced_point():
    with mpmath.workdps(DPS):
        yields = yields_at(mpmath.mpf(1) / 2, 1000)
        assert all(p == mpmath.mpf(2) ** -k for k, p in enumerate(yields, start=1))


def test_reference_matches_closed_form_on_shallow_rounds():
    for alpha in analytics.default_alpha_grid():
        alpha = float(alpha)
        for k, ref in enumerate(reference_yields(alpha, 5), start=1):
            closed = analytics.p_round_closed_form(alpha, k)
            assert abs(mpmath.mpf(closed) - ref) <= 1e-12 * ref, (alpha, k)


def test_reference_total_saturates_at_twice_the_smaller_weight():
    with mpmath.workdps(DPS):
        total = mpmath.fsum(reference_yields(math.sqrt(0.8), 60))
        assert abs(total - 2 * (1 - mpmath.mpf(math.sqrt(0.8)) ** 2)) < mpmath.mpf(10) ** -40


def test_self_time_subtracts_the_union_of_children():
    # root [0,10]; a [1,4] and c [3,6] overlap; b [5,9] holds g [6,7];
    # h [9.5,12] overhangs the root's end.
    names = ["root", "a", "c", "b", "g", "h"]
    parent = [-1, 0, 0, 0, 3, 0]
    start = [0.0, 1.0, 3.0, 5.0, 6.0, 9.5]
    end = [10.0, 4.0, 6.0, 9.0, 7.0, 12.0]
    got = dict(zip(names, self_times(parent, start, end)))
    assert got == pytest.approx(
        {"root": 10 - 8 - 0.5, "a": 3, "c": 3, "b": 3, "g": 1, "h": 2.5}
    )


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    import noonecp
    import noonecp.fock
    import noonecp.protocols

    originals = (noonecp.fock.tensor, noonecp.protocols.tensor, noonecp.tensor,
                 noonecp.cli.main, noonecp.fock.PureState.__init__)
    tracer = Tracer()
    argv = ["sweep", "--rounds", "2", "--grid", "0.3:0.7:3", "--out", str(tmp_path / "s.csv")]
    with tracer.install():
        assert noonecp.protocols.tensor is noonecp.fock.tensor is noonecp.tensor
        assert noonecp.protocols.tensor is not originals[0]
        assert cli.main(argv) == 0
    assert (noonecp.fock.tensor, noonecp.protocols.tensor, noonecp.tensor,
            noonecp.cli.main, noonecp.fock.PureState.__init__) == originals

    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["protocols.run_schedule.calls"] == 3
    assert metrics["protocols.run_round.calls"] == 6
    assert metrics["analytics.p_total_closed_form.calls"] == 3
    assert metrics["fock.tensor.calls"] == 6
    assert metrics["fock.PureState.calls"] > 0
    assert metrics["optics.detector_branch_keep_frac"] == 0.5
    assert all(metrics[f"{layer}.errors"] == 0 for layer in LAYERS)
    assert list(tracer.parent).count(-1) == 1
    root_duration = tracer.end[0] - tracer.start[0]
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(root_duration)

    out = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(out))
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(spans) == len(tracer.start)
    assert {s["trace"] for s in spans} == {0}


def test_same_seed_gives_identical_argv_and_csv(tmp_path):
    for workload in WORKLOADS:
        out = str(tmp_path / "out.csv")
        first = make_passes(workload, 7, out)
        assert json.dumps(first).encode() == json.dumps(make_passes(workload, 7, out)).encode()
        assert first != make_passes(workload, 8, out)

        csvs = []
        for name in ("a.csv", "b.csv"):
            for argv in make_passes(workload, 7, str(tmp_path / name))[0]:
                assert cli.main(argv) == 0
                csvs.append((tmp_path / name).read_bytes())
        half = len(csvs) // 2
        assert csvs[:half] == csvs[half:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_counts_a_corrupted_row(tmp_path, workload):
    out = tmp_path / "out.csv"
    client = run.Client(cli, out)
    records = client.run_pass(make_passes(workload, 3, str(out))[0]).records
    checker = _checker()
    clean = [checker.check(*r) for r in records]
    assert all(t.ops > 0 and t.ops_failed == 0 for t in clean)
    assert all(t.rounds_verified > 0 for t in clean)

    argv, code, text = records[0]
    lines = text.split("\n")
    fields = lines[2].split(",")
    fields[-2 if workload == "deep" else 1] = "garbage"
    lines[2] = ",".join(fields)
    bad = checker.check(argv, code, "\n".join(lines))
    assert bad.ops == clean[0].ops
    assert bad.ops_failed == 1

    missing = checker.check(argv, code, "\n".join(lines[:2] + lines[3:]))
    assert missing.ops_failed >= 1
    assert checker.check(argv, 1, text).ops_failed == clean[0].ops


def test_delta_beyond_tolerance_fails_the_row(tmp_path):
    out = tmp_path / "out.csv"
    argv = ["sweep", "--rounds", "3", "--grid", "0.3:0.7:3", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().split("\n")
    fields = lines[1].split(",")
    fields[5] = "1e-6"
    lines[1] = ",".join(fields)
    tally = _checker().check(argv, 0, "\n".join(lines))
    assert (tally.ops, tally.ops_failed) == (3, 1)


def test_run_checks_rounds_above_the_floor(tmp_path):
    out = tmp_path / "out.csv"
    argv = ["run", "--protocol", "ecp2", "--rounds", "40", "--alpha-sq", "0.8", "--out", str(out)]
    assert cli.main(argv) == 0
    tally = _checker().check(argv, 0, out.read_text())
    assert (tally.ops, tally.ops_failed, tally.rounds_verified) == (1, 0, 40)
    # P_10 = 6.7e-309 at alpha^2 = 0.8 is below the 1e-300 floor.
    assert tally.engine_checked == tally.closed_form_checked == 9


def test_run_prints_result_last(capsys):
    assert run.main(["--workload", "sweep", "--seed", "5", "--seconds", "0.2", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "setup_s", "rounds_per_s", "peak_rss_mb",
        "ops_ok_frac", "engine_on_ref_frac", "closed_form_on_ref_frac",
    }
    stamp = json.loads(lines[-2])["stamp"]
    assert {"loadavg_1m_start", "loadavg_1m_end", "numpy", "mpmath", "nproc"} <= set(stamp)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if (run.ROOT / "BENCHMARK.json").exists():
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
