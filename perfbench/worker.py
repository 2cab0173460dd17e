"""One benchmark repetition in a fresh process: ``minmaxot.cli.main(argv)``
with spans around the package's public calls, then the correctness gates.

Modes:
  e2e    spans only where the end-to-end metrics need timestamps (the
         trajectory record, the kernel passes, cli.main);
  trace  spans at every public call that flow.run, cli and ResponseEvaluator
         make, plus health counters;
  probe  like e2e, but stops the run as soon as its set-up phase is over.

Usage: python3 worker.py --root DIR --workload NAME --seed N --out DIR
                         --mode e2e|trace|probe --result FILE [--tiny]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import COUNTERS_SPAN, SetupReached, Tracer, self_times
from workloads import WORKLOADS, gates_for, read_resolved_config

PASS_NAMES = (
    "response.partition_function",
    "response.marginal_kl_sum",
    "response.marginal_kl_sum_derivative",
    "response.tilted_cost_mean",
)


class Hooks:
    """Span wrappers plus the counters read from their arguments and results."""

    def __init__(self, mode: str):
        self.mode = mode
        self.tracer = Tracer()
        self.setup_end: float | None = None
        self.fit_points: list[tuple[int, int]] = []  # (step, points offered)
        self.drift_points: list[tuple[int, int]] = []  # (step, query points)
        self.binned: list[float] = []
        self.clamped: list[float] = []
        self.kernel_bytes = 0

    def _end_setup(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            if self.mode == "probe":
                raise SetupReached

    def _on_record(self, args, kwargs) -> None:
        self.tracer.step += 1
        self._end_setup()

    def _on_pass(self, args, kwargs) -> None:
        self.tracer.step += 1

    def _after_pass(self, args, kwargs, result) -> None:
        self._end_setup()

    def _after_fit(self, args, kwargs, hist) -> None:
        self.fit_points.append((self.tracer.step, len(args[0])))
        self.binned.append(hist.binned_fraction)

    def _after_drift(self, args, kwargs, grad) -> None:
        self.drift_points.append((self.tracer.step, len(np.atleast_2d(args[2]))))

    def _after_step(self, args, kwargs, ps) -> None:
        rho1 = kwargs.get("rho1", args[5] if len(args) > 5 else None)
        rho2 = kwargs.get("rho2", args[6] if len(args) > 6 else None)
        if rho1 is None or rho2 is None:
            return
        on_face = 0
        for pts, box in ((ps.x2, rho1.box), (ps.y1, rho2.box)):
            on_face += int(np.any((pts == box.low) | (pts == box.high), axis=1).sum())
        self.clamped.append(on_face / (len(ps.x2) + len(ps.y1)))

    def _after_init(self, args, kwargs, result) -> None:
        ev = args[0]
        self.kernel_bytes = len(ev.nodes_x) * len(ev.nodes_y) * 8

    def install(self) -> None:
        from minmaxot import cli, flow, model, response

        wrap = self.tracer.wrap
        evaluator = response.ResponseEvaluator
        wrap(cli, "main", "cli.main")
        wrap(flow.TrajectoryRecorder, "record", "flow.record", on_call=self._on_record)
        for attr in ("partition_function", "marginal_kl_sum",
                     "marginal_kl_sum_derivative", "tilted_cost_mean"):
            wrap(evaluator, attr, f"response.{attr}", on_call=self._on_pass,
                 on_return=self._after_pass)
        wrap(evaluator, "solve_penalty_ode", "response.solve_penalty_ode")
        if self.mode != "trace":
            return
        wrap(cli, "run", "flow.run")
        wrap(cli, "scenario_marginals", "cli.scenario_marginals")
        wrap(cli, "write_resolved_config", "cli.write_resolved_config")
        for attr in ("save_trajectory_csv", "save_particles_csv", "interpolant"):
            wrap(cli, attr, f"flow.{attr}")
        wrap(flow, "init_particles", "flow.init_particles")
        wrap(flow, "step_particles", "flow.step_particles", on_return=self._after_step)
        wrap(flow, "step_lambda", "flow.step_lambda")
        wrap(flow, "fit_histogram", "density.fit_histogram", on_return=self._after_fit)
        for attr in ("grad_log_ratio_forward", "grad_log_ratio_reverse"):
            wrap(flow, attr, f"density.{attr}", on_return=self._after_drift)
        wrap(flow, "kl_estimate", "density.kl_estimate")
        wrap(flow, "l2_error", "density.l2_error")
        wrap(flow, "empirical_coupling_cost", "oracle.empirical_coupling_cost")
        wrap(model.Marginal, "sample", "model.sample")
        wrap(model.Marginal, "density_at", "model.density_at")
        wrap(evaluator, "__init__", "response.init", on_return=self._after_init)
        wrap(evaluator, "best_response_energy", "response.best_response_energy")


def step_samples_ms(spans: list[list]) -> list[float]:
    """Per solver step: consecutive record starts for the particle flow, and
    every fourth marginal_kl_sum start (one RK4 step) for the penalty ODE."""
    records = [s[1] for s in spans if s[0] == "flow.record"]
    if len(records) > 1:
        return [1e3 * d for d in np.diff(records)]
    ode = [i for i, s in enumerate(spans) if s[0] == "response.solve_penalty_ode"]
    if not ode:
        return []
    starts = [s[1] for s in spans if s[0] == "response.marginal_kl_sum" and s[3] == ode[0]]
    return [1e3 * d for d in np.diff(starts[::4])]


def layer_metrics(hooks: Hooks, spans: list[list], main_end: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition (0 where a layer is idle)."""
    own = self_times(spans)
    records = [s for s in spans if s[0] == "flow.record"]
    n_steps = max(len(records) - 1, 0)

    def total(name: str, stepped: bool = False) -> float:
        return sum(
            (own[i] for i, s in enumerate(spans)
             if s[0] == name and (not stepped or 0 <= s[4] < n_steps)),
            0.0,
        )

    def per_step_ms(*names: str) -> float:
        return 1e3 * sum(total(n, stepped=True) for n in names) / n_steps if n_steps else 0.0

    def per_step_count(pairs: list[tuple[int, int]]) -> float:
        return sum(n for step, n in pairs if 0 <= step < n_steps) / n_steps if n_steps else 0.0

    loop_self_ms = 0.0
    runs = [i for i, s in enumerate(spans) if s[0] == "flow.run"]
    if runs and n_steps:
        window = records[-1][1] - records[0][1]
        covered = sum(
            s[2] - s[1] for s in spans if s[3] == runs[0] and 0 <= s[4] < n_steps
        )
        loop_self_ms = 1e3 * (window - covered) / n_steps

    passes = sorted((s for s in spans if s[0] in PASS_NAMES), key=lambda s: s[1])
    ode = [s for s in spans if s[0] == "response.solve_penalty_ode"]
    out = {
        "density.fit_ms": per_step_ms("density.fit_histogram"),
        "density.fit_points": per_step_count(hooks.fit_points),
        "density.binned_fraction": min(hooks.binned, default=0.0),
        "density.drift_fwd_ms": per_step_ms("density.grad_log_ratio_forward"),
        "density.drift_rev_ms": per_step_ms("density.grad_log_ratio_reverse"),
        "density.drift_points": per_step_count(hooks.drift_points),
        "density.diag_ms": per_step_ms("density.kl_estimate", "density.l2_error"),
        "flow.step_self_ms": per_step_ms("flow.step_particles"),
        "flow.record_ms": per_step_ms("flow.record"),
        "flow.loop_self_ms": loop_self_ms,
        "flow.init_s": total("flow.init_particles"),
        "flow.clamped_frac": max(hooks.clamped, default=0.0),
        "model.sample_s": total("model.sample"),
        "model.density_s": total("model.density_at"),
        "oracle.coupling_cost_ms": per_step_ms("oracle.empirical_coupling_cost"),
        "response.init_s": total("response.init"),
        "response.first_pass_s": passes[0][2] - passes[0][1] if passes else 0.0,
        "response.pass_ms": (
            1e3 * float(np.median([s[2] - s[1] for s in passes[1:]])) if len(passes) > 1 else 0.0
        ),
        "response.passes": float(len(passes)),
        "response.sweep_s": ode[0][1] - passes[0][1] if ode and passes else 0.0,
        "response.ode_s": ode[0][2] - ode[0][1] if ode else 0.0,
        "response.kernel_bytes": float(hooks.kernel_bytes),
    }
    run_ends = [s[2] for s in spans if s[0] == "flow.run"]
    out["cli.output_s"] = main_end - run_ends[0] if run_ends else 0.0
    out["trace.counters_s"] = total(COUNTERS_SPAN)
    return out


def rows_written(out: Path) -> int:
    """Data rows over every CSV the run wrote (header lines excluded)."""
    rows = 0
    for path in sorted(out.glob("*.csv")):
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True, choices=("e2e", "trace", "probe"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import minmaxot
    from minmaxot import cli

    if Path(minmaxot.__file__).resolve().parent != (src / "minmaxot").resolve():
        raise SystemExit(f"minmaxot imported from {minmaxot.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    hooks = Hooks(args.mode)
    hooks.install()
    argv = workload.argv(args.seed, out, args.tiny)

    result: dict = {"mode": args.mode, "error": None, "rc": None}
    started = time.perf_counter()
    try:
        result["rc"] = cli.main(argv)
    except SetupReached:
        pass
    except Exception:  # a crash of the program under test is a failed repetition
        result["error"] = traceback.format_exc()
    finished = time.perf_counter()
    hooks.tracer.uninstall()
    spans = hooks.tracer.spans

    result["setup_s"] = None if hooks.setup_end is None else hooks.setup_end - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["absent"] = hooks.tracer.absent
    if args.mode != "probe" and result["error"] is None:
        result["wall_s"] = finished - started
        result["step_ms"] = step_samples_ms(spans)
        try:
            config = read_resolved_config(out)
            result["config"] = config
            result["gates"] = gates_for(workload, out, config) if result["rc"] == 0 else []
            if args.mode == "trace":
                layers = layer_metrics(hooks, spans, finished)
                layers["cli.rows_written"] = float(rows_written(out))
                result["layers"] = layers
                hooks.tracer.write_csv(out.parent / f"{out.name}-spans.csv")
        except (OSError, ValueError, KeyError, IndexError):
            result["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
