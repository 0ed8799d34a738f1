"""Run the benchmark over several seeds and summarise it, as a baseline.

    python3 benchmarks/collect.py --seeds 1-10 --workloads sweep,deep,loss \\
        --seconds 30 --out benchmarks/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed and reports
each end-to-end metric's median, quartiles and quartile spread (as a share
of the median), then one ``--trace 1`` run for the per-layer figures. It
also records the off-reference counters of two fixed ``run`` inputs,
alpha^2 = 0.8 and 0.5, next to the seeded ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from reference import Checker

FIXED_RUNS = ("0.8", "0.5")


def _bench(workload: str, seed: int, seconds: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _fixed_runs() -> list[dict]:
    cli, analytics = run._import_package()
    checker = Checker(analytics.ORACLE_MATCH_TOLERANCE, analytics.p_total_closed_form)
    rows = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as work:
        out = Path(work) / "out.csv"
        for alpha_sq in FIXED_RUNS:
            argv = ["run", "--protocol", "ecp2", "--rounds", "1000",
                    "--alpha-sq", alpha_sq, "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            tally = checker.check(argv, code, out.read_text(encoding="utf-8"))
            rows.append({"argv": argv[:-2], "ops_failed": tally.ops_failed,
                         **(tally.detail[0] if tally.detail else {})})
    return rows


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="sweep,deep,loss")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_bench(workload, seed, args.seconds, 0) for seed in _seeds(args.seeds)]
        names = runs[0]["result"]["metrics"]
        traced = _bench(workload, _seeds(args.seeds)[0], args.seconds, 1)
        report["workloads"][workload] = {
            "end_to_end": {
                name: _summary([r["result"]["metrics"][name]["value"] for r in runs])
                for name in names
            },
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "stamps": [r["stamp"] for r in runs],
            "details": [r["detail"] for r in runs],
            "traced": traced,
        }
        print(workload, {n: round(s["spread"] or 0, 4) for n, s in
                         report["workloads"][workload]["end_to_end"].items()}, flush=True)
    report["fixed_runs"] = _fixed_runs()
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
