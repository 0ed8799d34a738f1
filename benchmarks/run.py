"""End-to-end benchmark of the ``noonecp`` command line.

    python3 benchmarks/run.py --workload {sweep,deep,loss} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory, and every
file a run writes goes under ``.bench_out/`` there. One closed-loop client
on one thread calls ``noonecp.cli.main`` in-process with argv lists
generated from the seed (``workloads.py``), one pass after another, until
``--seconds`` have passed; every CSV is then checked against the mpmath
reference (``reference.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
loop untraced and then one pass with every public function of every layer
wrapped (``tracing.py``) and reports the per-layer metrics; README.md
defines each. The last line of standard output is the result object; the
line before it holds the run stamp (commit or source digest, versions,
nproc, load average at start and end) and the check detail.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

from reference import Checker, Tally  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, make_passes  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# On a shared two-vCPU machine one thread's speed drifts by 20-40% over tens
# of seconds. So calibration_s() runs before and after every pass, and the
# pass's rate is scaled by the mean kernel time over CALIBRATION_NOMINAL_S:
# rates read as if the kernel took this long, about its time on the machine
# the baseline was recorded on.
CALIBRATION_NOMINAL_S = 0.03

_UNITS = {"rounds_per_s": "1/s", "peak_rss_mb": "MB"}

_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import noonecp.cli
from workloads import make_passes
make_passes({workload!r}, {seed!r}, {out!r})
print(repr(time.perf_counter()))
"""


def _loadavg_1m() -> float:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return float(fh.read().split()[0])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noonecp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _import_package():
    """Import noonecp from this checkout's src/, or raise ImportError."""
    if not (SRC / "noonecp" / "__init__.py").is_file():
        raise ImportError(f"no noonecp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noonecp.analytics
    import noonecp.cli

    if Path(noonecp.cli.__file__).resolve().parent != SRC / "noonecp":
        raise ImportError(f"imported noonecp from {noonecp.cli.__file__}, not {SRC}")
    return noonecp.cli, noonecp.analytics


def calibration_s() -> float:
    """Time of a fixed pure-Python kernel: the interpreter's speed right now.

    The kernel mixes integer arithmetic, tuple-keyed dict updates, complex
    arithmetic and small comprehensions, like the engine and the closed
    form, but calls nothing from the package under test.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table: dict[tuple[int, int], complex] = {}
    for i in range(30_000):
        key = (i & 7, (i >> 3) & 7)
        table[key] = table.get(key, 0j) + complex(i * 0.5, 1.0) * 0.25
    norms = []
    for i in range(3_000):
        branch = {(j, i & 3): complex(j, 0.5) for j in range(6)}
        norms.append(sum(abs(v) ** 2 for v in branch.values()) ** 0.5)
    norms.sort()
    return time.perf_counter() - started


class SetupProbe:
    """Times fresh interpreters from process start until they are ready."""

    def __init__(self, workload: str, seed: int, out: str):
        self._code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                                   workload=workload, seed=seed, out=out)
        self.seconds: list[float] = []

    def __call__(self) -> None:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", self._code], cwd=ROOT, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.seconds.append(float(proc.stdout) - started)


class Sample(NamedTuple):
    """One timed pass: CLI seconds, mean calibration around it, (argv, code, csv)s."""

    elapsed: float
    calibration: float
    records: list[tuple[list[str], int, str]]


class Client:
    """Runs passes through ``cli.main`` and keeps each call's CSV."""

    def __init__(self, cli, out_csv: Path):
        self._cli = cli
        self._out_csv = out_csv
        self._sink = io.StringIO()
        self._calibration = calibration_s()
        self.first_error: str | None = None

    def run_pass(self, argvs: list[list[str]]) -> Sample:
        elapsed = 0.0
        records = []
        for argv in argvs:
            self._out_csv.unlink(missing_ok=True)
            self._sink.seek(0)
            self._sink.truncate()
            with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
                started = time.perf_counter()
                try:
                    code = self._cli.main(argv)
                except Exception:
                    code = -1
                    if self.first_error is None:
                        self.first_error = traceback.format_exc()
                finally:
                    elapsed += time.perf_counter() - started
            text = self._out_csv.read_text(encoding="utf-8") if self._out_csv.exists() else ""
            records.append((argv, code, text))
        before, self._calibration = self._calibration, calibration_s()
        return Sample(elapsed, (before + self._calibration) / 2, records)

    def run_for(self, passes: list, seconds: float, probe: SetupProbe | None) -> list[Sample]:
        """Cycle through ``passes`` for ``seconds``, spreading the probes over it."""
        samples: list[Sample] = []
        started = time.perf_counter()
        while (now := time.perf_counter() - started) < seconds:
            if probe is not None and len(probe.seconds) < SETUP_PROBES * now / seconds:
                probe()
            samples.append(self.run_pass(passes[len(samples) % len(passes)]))
        while probe is not None and len(probe.seconds) < SETUP_PROBES:
            probe()
        return samples


def _verify(checker: Checker, samples: list[Sample]) -> tuple[list[int], Tally]:
    """Verified rounds of each pass, and the summed tally."""
    total = Tally()
    rounds = []
    for sample in samples:
        tally = Tally()
        for argv, code, text in sample.records:
            tally.add(checker.check(argv, code, text))
        rounds.append(tally.rounds_verified)
        total.add(tally)
    return rounds, total


def _share_ok(bad: int, checked: int) -> float:
    return 1.0 - bad / checked if checked else 1.0


def _distinct(detail: list[dict]) -> list[dict]:
    seen = {}
    for row in detail:
        seen.setdefault(row["alpha_sq"], row)
    return list(seen.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object plus stamp and detail."""
    cli, analytics = _import_package()
    stamp = {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": _loadavg_1m(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
    }
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        out_csv = work / "out.csv"
        passes = make_passes(workload, seed, str(out_csv))
        probe = None if trace else SetupProbe(workload, seed, str(out_csv))
        client = Client(cli, out_csv)
        client.run_pass(passes[0])
        samples = client.run_for(passes, seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer = Tracer()
            with tracer.install():
                traced = client.run_pass(passes[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = Checker(analytics.ORACLE_MATCH_TOLERANCE, analytics.p_total_closed_form)
    rounds, tally = _verify(checker, samples)
    raw_rates = [r / s.elapsed for r, s in zip(rounds, samples)]
    rates = [r * s.calibration / CALIBRATION_NOMINAL_S for r, s in zip(raw_rates, samples)]
    detail = {
        "passes": len(samples),
        "ops": tally.ops, "ops_failed": tally.ops_failed,
        "engine_checked": tally.engine_checked, "engine_off": tally.engine_off,
        "closed_form_checked": tally.closed_form_checked,
        "closed_form_off": tally.closed_form_off,
        "raw_rounds_per_s": statistics.median(raw_rates),
        "calibration_s": statistics.median(s.calibration for s in samples),
    }
    if tally.detail:
        detail["runs"] = _distinct(tally.detail)
    if client.first_error:
        detail["first_error"] = client.first_error

    if trace:
        tally.add(_verify(checker, [traced])[1])
        metrics = tracer.layer_metrics()
        untraced_first = statistics.median(
            s.elapsed / s.calibration for i, s in enumerate(samples) if i % len(passes) == 0
        )
        metrics["tracing_overhead_frac"] = traced.elapsed / traced.calibration / untraced_first - 1
        tracer.write_jsonl(str(OUT_DIR / f"trace-{workload}.jsonl"))
        layer_self = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        detail["self_share"] = {
            layer: value / sum(layer_self.values()) for layer, value in layer_self.items()
        }
        detail["spans"] = len(tracer.start)
    else:
        metrics = {
            "setup_s": statistics.median(probe.seconds),
            "rounds_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_frac": _share_ok(tally.ops_failed, tally.ops),
            "engine_on_ref_frac": _share_ok(tally.engine_off, tally.engine_checked),
            "closed_form_on_ref_frac": _share_ok(tally.closed_form_off, tally.closed_form_checked),
        }
        detail["setup_s_all"] = probe.seconds
    stamp["loadavg_1m_end"] = _loadavg_1m()

    result = {
        "correct": tally.ops_failed == 0 and client.first_error is None,
        "attempted": tally.ops,
        "failed": tally.ops_failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items()
        },
    }
    return {"stamp": stamp, "detail": detail, "result": result}


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"benchmark: cannot import the package: {exc}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"stamp": run["stamp"], "detail": run["detail"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
