"""Benchmark of minmaxot: three workloads through ``minmaxot.cli.main``.

    python3 perfbench/run.py --workload gauss_flow --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``). Each repetition is a fresh worker process (see worker.py), so
interpreter start and imports are never timed. Repetitions run until
``--seconds`` have passed; figures are medians over them.

--trace 0 gives the end-to-end metrics: untraced repetitions of the whole
workload back to back, then set-up probes that stop a run at its first
solver step until set-up has been sampled several times. step_ms is the
10th percentile of all step times of the run: on a shared host the median
step moves with other tenants' load (on a 2-vCPU Xeon VM its spread over
ten seeds reached 0.26 of the median), the 10th percentile much less (at
most 0.15); the median and the tail percentile are printed as well.
--trace 1 gives the per-layer metrics: pairs of one untraced and one traced
repetition; the traced one must write byte-identical outputs, and the ratio
of their wall times is the tracing overhead.

Every repetition runs the workload's correctness gates. Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
HARD_LIMIT_S = 170.0  # every process ends well within the 180 s a run may take
MIN_SETUP_SAMPLES = 5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "step_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "density.fit_ms": "ms",
    "density.fit_points": "count",
    "density.binned_fraction": "ratio",
    "density.drift_fwd_ms": "ms",
    "density.drift_rev_ms": "ms",
    "density.drift_points": "count",
    "density.diag_ms": "ms",
    "flow.step_self_ms": "ms",
    "flow.record_ms": "ms",
    "flow.loop_self_ms": "ms",
    "flow.init_s": "s",
    "flow.clamped_frac": "ratio",
    "model.sample_s": "s",
    "model.density_s": "s",
    "oracle.coupling_cost_ms": "ms",
    "response.init_s": "s",
    "response.first_pass_s": "s",
    "response.pass_ms": "ms",
    "response.passes": "count",
    "response.sweep_s": "s",
    "response.ode_s": "s",
    "response.kernel_bytes": "bytes",
    "cli.output_s": "s",
    "cli.rows_written": "count",
    "trace.overhead": "ratio",
}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


class Session:
    """Launches worker repetitions for one run and keeps their results."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # repetition -> reasons

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def repeat(self, mode: str, counted: bool = True) -> tuple[dict | None, Path]:
        """One worker process; returns its result and out dir.

        The result is None when the run produced nothing to measure (crash,
        timeout, nonzero exit). A failed gate is recorded as a failure, but
        the timings of that repetition are kept.
        """
        self.count += 1
        out = self.run_dir / f"rep{self.count}-{mode}"
        result_file = self.run_dir / f"rep{self.count}-{mode}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--out", str(out), "--mode", mode, "--result", str(result_file),
        ] + (["--tiny"] if self.args.tiny else [])
        if counted:
            self.attempted += 1
        label = f"rep{self.count} ({mode})"
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(HARD_LIMIT_S - self.elapsed(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return self.fail(label, "timed out", counted), out
        if proc.returncode != 0:
            why = f"worker exit {proc.returncode}: {proc.stderr.strip()}"
            return self.fail(label, why, counted), out
        result = json.loads(result_file.read_text(encoding="utf-8"))
        result["label"] = label
        if result["error"]:
            return self.fail(label, result["error"].strip(), counted), out
        if mode == "probe":
            if result["setup_s"] is None:
                return self.fail(label, "set-up never finished", counted), out
            return result, out
        if result["rc"] != 0:
            return self.fail(label, f"cli.main returned {result['rc']}", counted), out
        bad = [name for name, ok in result["gates"] if not ok]
        if not result["gates"] or bad:
            self.fail(label, f"gates failed: {bad or 'none ran'}", counted)
        return result, out

    def fail(self, label: str, why: str, counted: bool = True) -> None:
        if counted:
            self.failures.setdefault(label, []).append(why)
        return None


def identical_outputs(a: Path, b: Path) -> list[str]:
    """Names of output files that differ; summary.csv minus its wall-clock column."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return ["<file list>"]
    differ = []
    for name in names:
        da, db = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "summary.csv":
            da, db = _drop_wall_column(da), _drop_wall_column(db)
        if da != db:
            differ.append(name)
    return differ


def _drop_wall_column(raw: bytes) -> list[list[str]]:
    rows = [line.split(",") for line in raw.decode("utf-8").splitlines()]
    col = rows[0].index("wall_clock_seconds")
    return [r[:col] + r[col + 1:] for r in rows]


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    best = 50
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            best = p
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return best, cuts[int(best * 10) - 1]


def run_e2e(session: Session, deadline: float) -> tuple[dict, list[dict], dict]:
    """Untraced repetitions until the deadline, then set-up probes until set-up
    has been sampled MIN_SETUP_SAMPLES times."""
    session.repeat("probe", counted=False)  # warm-up: file cache, bytecode
    full, setups = [], []
    while session.elapsed() < HARD_LIMIT_S / 2:
        if not full or session.elapsed() < deadline:
            mode = "e2e"
        elif len(setups) < MIN_SETUP_SAMPLES:
            mode = "probe"
        else:
            break
        result, out = session.repeat(mode)
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            break  # a crashing workload is not retried
        setups.append(result["setup_s"])
        if mode == "e2e":
            full.append(result)
    steps = [ms for r in full for ms in r["step_ms"]]
    metrics = {}
    if full and steps:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in full),
            "setup_s": statistics.median(setups),
            "step_ms": (
                statistics.quantiles(steps, n=10, method="inclusive")[0] if len(steps) > 1
                else steps[0]
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        }
    info = {"full_reps": len(full), "setup_samples": len(setups), "step_samples": len(steps)}
    return metrics, full, info


def run_traced(session: Session, deadline: float) -> tuple[dict, list[dict], dict]:
    """Pairs of an untraced and a traced repetition until the deadline."""
    session.repeat("probe", counted=False)  # warm-up: file cache, bytecode
    pairs = []
    while session.elapsed() < HARD_LIMIT_S / 2 and (not pairs or session.elapsed() < deadline):
        plain, plain_out = session.repeat("e2e")
        traced, traced_out = session.repeat("trace")
        differ = ["<no result>"]
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
            differ = identical_outputs(plain_out, traced_out)
            if differ:
                session.fail(traced["label"], f"outputs differ from the untraced run: {differ}")
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)
        if differ:
            break  # a failing workload is not retried
    metrics = {}
    if pairs:
        layers = [t["layers"] for _, t in pairs]
        metrics = {name: statistics.median(l[name] for l in layers) for name in LAYER_UNITS
                   if name in layers[0]}
        metrics["trace.overhead"] = statistics.median(t["wall_s"] / p["wall_s"] for p, t in pairs)
    info = {"pairs": len(pairs)}
    if pairs:
        info["counter_hooks_s"] = statistics.median(
            t["layers"]["trace.counters_s"] for _, t in pairs
        )
    return metrics, [r for pair in pairs for r in pair], info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "minmaxot" / "cli.py").is_file():
        print(f"error: no minmaxot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(args, run_dir)
    if args.trace:
        metrics, reps, info = run_traced(session, args.seconds)
        units = LAYER_UNITS
    else:
        metrics, reps, info = run_e2e(session, args.seconds)
        units = E2E_UNITS

    facts = machine_facts()
    print(f"minmaxot benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if reps:
        print("config: " + " ".join(f"{k}={v}" for k, v in reps[0]["config"].items()))
        gates = reps[0]["gates"]
        print(f"gates: {len(gates)} checked on each of {len(reps)} repetitions: "
              + " ".join(f"{name}={'pass' if ok else 'FAIL'}" for name, ok in gates))
        absent = sorted({name for r in reps for name in r["absent"]})
        if absent:
            print("absent spans (reported as 0): " + " ".join(absent))
    print("repetitions: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for label, reasons in session.failures.items():
        print(f"FAILED {label}: {'; '.join(reasons)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:26s} {metrics[name]:.6g} {unit}")
    steps = [ms for r in reps for ms in r["step_ms"]]
    if not args.trace and len(steps) >= 20:
        p, value = tail_percentile(steps)
        print(f"{'step median':26s} {statistics.median(steps):.6g} ms over {len(steps)} steps")
        print(f"{'step p' + format(p, 'g'):26s} {value:.6g} ms")
    failed = len(session.failures)
    attempted = max(session.attempted, 1)
    print(f"{'failed_frac':26s} {failed / attempted:.6g} ratio ({failed}/{attempted} repetitions)")

    complete = set(metrics) == set(units)
    report = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
