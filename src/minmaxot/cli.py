"""Experiment runner: reproduces the built-in scenarios, compares the three
divergence-variant methods, and sweeps the semi-analytic validation layer.

Everything is emitted as plot-ready CSV with full round-trip float
formatting; a copy of the fully resolved configuration is written next to
the outputs. Subcommands: run, compare-methods, validate-response.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .density import (
    fit_histogram,
    kl_estimate,
    kl_estimate_reverse,
    l2_error,
    reference_at_centers,
)
from .flow import (
    BOX_PAD_FRACTION,
    FlowDivergedError,
    Trajectory,
    TrajectoryRecorder,
    frozen_rows,
    interpolant,
    method_preset,
    run,
    save_particles_csv,
    save_trajectory_csv,
    write_csv_rows,
)
from .model import (
    Box,
    FlowConfig,
    Marginal,
    load_empirical_csv,
    make_gaussian,
    make_mixture,
    make_ring_peak,
    quadratic_cost,
)
from .oracle import gaussian_w2_squared
from .response import ResponseEvaluator, penalty_ode_steps

SCENARIOS = ("gaussian_pair", "ring_to_mixture", "custom_csv")

# The gaussian_pair scenario: N(mean, cov) for each mean, one shared cov.
GAUSS_MEANS = ((0.4, 0.4), (0.6, 0.6))
GAUSS_COV = 0.02 * np.eye(2)
GAUSS_COV.setflags(write=False)


@dataclass
class ExperimentSpec:
    """A fully resolved experiment: scenario, method, flow config, outputs.

    The method sets the flow's divergence variants (``method_preset``).
    """

    scenario: str
    method: str
    flow: FlowConfig
    outputs: Path
    snapshot_steps: tuple[int, ...] = ()
    interpolant_s_values: tuple[float, ...] = (0.25, 0.5, 0.75)
    mu_csv: str | None = None
    nu_csv: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        variant_x, variant_y = method_preset(self.method)
        self.flow = dataclasses.replace(
            self.flow, kl_variant_x=variant_x, kl_variant_y=variant_y
        )
        if any(not 0.0 <= s <= 1.0 for s in self.interpolant_s_values):
            raise ValueError("interpolant s values must lie in [0, 1]")
        if any(not 0 <= k <= self.flow.steps for k in self.snapshot_steps):
            raise ValueError("snapshot steps must lie within [0, steps]")
        self.outputs = Path(self.outputs)


def scenario_marginals(spec: ExperimentSpec) -> tuple[Marginal, Marginal]:
    if spec.scenario == "gaussian_pair":
        return tuple(make_gaussian(mean, GAUSS_COV) for mean in GAUSS_MEANS)
    if spec.scenario == "ring_to_mixture":
        mu = make_ring_peak()
        parts = [
            (0.25, make_gaussian([sx * 0.85, sy * 0.85], 0.02 * np.eye(2)))
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        ]
        return mu, make_mixture(parts)
    if spec.mu_csv is None or spec.nu_csv is None:
        raise ValueError("custom_csv scenario needs mu_csv and nu_csv paths")
    return load_empirical_csv(spec.mu_csv), load_empirical_csv(spec.nu_csv)


# Tuned defaults per scenario; flags and config files override them.
_SCENARIO_FLOW_DEFAULTS = {
    "gaussian_pair": {
        "n_pairs": 10_000,
        "dt": 5e-4,
        "steps": 2000,
        "beta": 0.005,
        "lambda0": 4.0,
        "bins_per_dim": 22,
    },
    "ring_to_mixture": {
        "n_pairs": 10_000,
        "dt": 5e-4,
        "steps": 1500,
        "beta": 0.005,
        "lambda0": 4.0,
        "bins_per_dim": 20,
    },
    "custom_csv": {},
}


def resolve_flow_config(scenario: str, config_values: dict, flag_values: dict) -> FlowConfig:
    """Layer flow settings: scenario defaults, then config file, then flags."""
    merged = dict(_SCENARIO_FLOW_DEFAULTS.get(scenario, {}))
    merged.update(config_values)
    merged.update(flag_values)
    return FlowConfig(**merged)


def read_config_file(path) -> dict:
    """Flat key = value text; '#' starts a comment; keys are setting names."""
    values: dict = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v)


# Every setting a flag or a --config file may give, with the parser of its
# text. The flag's dest, the config key and the resolved_config.txt line
# share the name, so a resolved config can be fed back.
_SETTINGS = {f.name: type(f.default) for f in dataclasses.fields(FlowConfig)} | {
    "scenario": str,
    "method": str,
    "out": str,
    "mu_csv": str,
    "nu_csv": str,
    "particles": int,
    "snapshot_steps": _ints,
    "interpolant_s_values": _floats,
}


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_resolved_config(path: Path, spec: ExperimentSpec) -> None:
    lines = [
        f"scenario = {spec.scenario}",
        f"method = {spec.method}",
    ]
    for f in dataclasses.fields(FlowConfig):
        lines.append(f"{f.name} = {_fmt(getattr(spec.flow, f.name))}")
    lines.append(f"snapshot_steps = {_fmt(spec.snapshot_steps)}")
    lines.append(f"interpolant_s_values = {_fmt(spec.interpolant_s_values)}")
    if spec.mu_csv:
        lines.append(f"mu_csv = {spec.mu_csv}")
    if spec.nu_csv:
        lines.append(f"nu_csv = {spec.nu_csv}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_summary(path: Path, traj: Trajectory, seed: int, wall_seconds: float) -> None:
    final = traj.final_row()
    header = ["cost", "lambda", "kl1", "kl2", "l2_mu", "l2_nu", "wall_clock_seconds", "seed"]
    row = [
        repr(final["cost"]),
        repr(final["lambda"]),
        repr(final["kl1"]),
        repr(final["kl2"]),
        repr(final["l2_mu"]),
        repr(final["l2_nu"]),
        repr(float(wall_seconds)),
        str(seed),
    ]
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n", encoding="utf-8")


def cmd_run(spec: ExperimentSpec) -> int:
    """Execute the flow and write trajectory, snapshots, interpolants, summary."""
    mu, nu = scenario_marginals(spec)
    cost = quadratic_cost()
    cfg = spec.flow

    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    requested = tuple(spec.snapshot_steps)
    recorder = TrajectoryRecorder(snapshot_steps=tuple(set(requested) | {cfg.steps}))
    started = time.perf_counter()
    try:
        traj = run(mu, nu, cost, cfg, recorder=recorder)
    except FlowDivergedError as err:
        if err.trajectory is not None:
            save_trajectory_csv(out / "trajectory.csv", err.trajectory)
        print(f"error: {err}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    save_trajectory_csv(out / "trajectory.csv", traj)
    snapshot_steps = sorted(set(requested))
    # The frozen families are the same floats in every snapshot: format them once.
    frozen = frozen_rows(traj.snapshots[snapshot_steps[0]]) if snapshot_steps else None
    for k in snapshot_steps:
        save_particles_csv(out / f"particles_step{k}.csv", traj.snapshots[k], frozen)
    last = traj.snapshots[cfg.steps]
    for s in spec.interpolant_s_values:
        pts = interpolant(last, s)
        with open(out / f"interpolant_s{_fmt(float(s))}.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x_{a + 1}" for a in range(pts.shape[1])) + "\n")
            write_csv_rows(fh, pts)
    _write_summary(out / "summary.csv", traj, cfg.seed, wall)
    return 0


def cmd_compare_methods(spec: ExperimentSpec) -> int:
    """Run methods I, II, III with a shared seed; tabulate marginal errors."""
    mu, nu = scenario_marginals(spec)
    if mu.kind != "analytic" or nu.kind != "analytic":
        print("error: compare-methods needs an analytic scenario", file=sys.stderr)
        return 1
    cost = quadratic_cost()
    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    rows = []
    for method in ("I", "II", "III"):
        cfg = dataclasses.replace(spec, method=method).flow
        recorder = TrajectoryRecorder(snapshot_steps=(cfg.steps,))
        try:
            traj = run(mu, nu, cost, cfg, recorder=recorder)
        except FlowDivergedError as err:
            print(f"error: method {method}: {err}", file=sys.stderr)
            return 1
        last = traj.snapshots[cfg.steps]
        metrics = marginal_error_table(last, mu, nu, cfg.bins_per_dim)
        rows.append((method, *metrics))

    with open(out / "methods.csv", "w", encoding="utf-8") as fh:
        fh.write("method,l2_error,kl,reverse_kl,total_kl\n")
        for method, l2, kl, rkl, tot in rows:
            fh.write(f"{method},{repr(l2)},{repr(kl)},{repr(rkl)},{repr(tot)}\n")
    return 0


def marginal_error_table(ps, mu: Marginal, nu: Marginal, bins_per_dim: int):
    """Final-state marginal errors: summed L2, forward KL, reverse KL, total."""

    def errors(points, ref):
        rho = fit_histogram(points, Box.hull([points], BOX_PAD_FRACTION), bins_per_dim)
        q = reference_at_centers(rho, ref)
        return l2_error(rho, q), kl_estimate(rho, q), kl_estimate_reverse(rho, q)

    l2, kl, rkl = (a + b for a, b in zip(errors(ps.pooled_x(), mu), errors(ps.pooled_y(), nu)))
    return l2, kl, rkl, kl + rkl


def cmd_validate_response(
    spec: ExperimentSpec,
    lambda_grid: tuple[float, ...],
    ode_horizon: float,
    ode_dt: float = 0.25,
    quad_nodes: int = 56,
) -> int:
    """Sweep the semi-analytic layer and integrate the penalty ODE.

    Writes response_report.csv with, per penalty weight: the partition
    function, the marginal-KL sum V, its derivative by formula and by finite
    difference, the value -lam log Z, the residual |d(-lam log Z)/dlam - V|,
    and the exp(-c*/lam) <= Z lower-bound indicator. The ODE trace goes to
    ode_trace.csv with its sqrt-growth bound margin. A bad ODE horizon or
    step raises ``ValueError`` before any file is written.
    """
    penalty_ode_steps(ode_horizon, ode_dt)
    mu, nu = scenario_marginals(spec)
    if mu.kind != "analytic" or nu.kind != "analytic":
        print("error: validate-response needs an analytic scenario", file=sys.stderr)
        return 1
    cost = quadratic_cost()
    ev = ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=quad_nodes)
    c_star = _scenario_optimal_cost(spec, mu, nu, cost)

    out = spec.outputs
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out / "resolved_config.txt", spec)

    with open(out / "response_report.csv", "w", encoding="utf-8") as fh:
        fh.write(
            "lambda,Z,V,dV_dlambda,dV_dlambda_fd,E_d,danskin_residual,z_lower_bound_ok\n"
        )
        for lam in lambda_grid:
            z = ev.partition_function(lam)
            v = ev.marginal_kl_sum(lam)
            dv = ev.marginal_kl_sum_derivative(lam)
            h = 1e-4 * lam
            dv_fd = (ev.marginal_kl_sum(lam + h) - ev.marginal_kl_sum(lam - h)) / (2 * h)
            e_d = ev.best_response_energy(lam)
            ed_fd = (ev.best_response_energy(lam + h) - ev.best_response_energy(lam - h)) / (
                2 * h
            )
            residual = abs(ed_fd - v)
            ok = bool(np.exp(-c_star / lam) <= z)
            cells = [lam, z, v, dv, dv_fd, e_d, residual]
            fh.write(",".join(repr(float(c)) for c in cells) + f",{ok}\n")

    trace = ev.solve_penalty_ode(spec.flow.lambda0, ode_horizon, ode_dt)
    c0 = spec.flow.lambda0**2 / 2.0
    with open(out / "ode_trace.csv", "w", encoding="utf-8") as fh:
        fh.write("t,lambda,V,growth_bound,bound_margin\n")
        for t, lam, v in trace:
            bound = float(np.sqrt(2.0 * (c_star * t + c0)))
            fh.write(
                f"{repr(float(t))},{repr(float(lam))},{repr(float(v))},"
                f"{repr(bound)},{repr(bound - float(lam))}\n"
            )
    return 0


def _scenario_optimal_cost(spec: ExperimentSpec, mu, nu, cost) -> float:
    if spec.scenario == "gaussian_pair":
        return gaussian_w2_squared(GAUSS_MEANS[0], GAUSS_COV, GAUSS_MEANS[1], GAUSS_COV)
    # Exact discrete surrogate on a moderate sample for non-Gaussian scenarios.
    from .oracle import discrete_ot

    rng = np.random.default_rng(0)
    xs = mu.sample(512, rng)
    ys = nu.sample(512, rng)
    return discrete_ot(xs, ys, cost).cost


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmaxot",
        description="Particle min-max solver for optimal transport plans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def setting(p, flag, dest=None, **kwargs):
        """A flag that sets the named setting, parsed by its table entry."""
        dest = dest or flag[2:].replace("-", "_")
        p.add_argument(flag, dest=dest, type=_SETTINGS[dest], **kwargs)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        setting(p, "--scenario", choices=SCENARIOS)
        setting(p, "--method", choices=("I", "II", "III"))
        setting(p, "--out", help="output directory")
        for flag in ("--seed", "--steps", "--dt", "--beta", "--lambda0"):
            setting(p, flag)
        setting(p, "--particles", help="total particle pairs over both families (must be even)")
        setting(p, "--bins", "bins_per_dim", help="bins per grid dimension")
        setting(p, "--mu-csv")
        setting(p, "--nu-csv")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    setting(p_run, "--snapshot-steps", help="comma-separated step indices")
    setting(
        p_run, "--interpolant-s", "interpolant_s_values",
        help="comma-separated s values (default 0.25,0.5,0.75)",
    )

    p_cmp = sub.add_parser("compare-methods", help="run methods I, II, III with one seed")
    add_common(p_cmp)

    p_val = sub.add_parser("validate-response", help="sweep the semi-analytic layer")
    add_common(p_val)
    p_val.add_argument(
        "--lambda-grid", type=str, default="0.05,0.1,0.5,1,5", help="comma-separated weights"
    )
    p_val.add_argument("--ode-horizon", type=float, default=100.0)
    p_val.add_argument("--ode-dt", type=float, default=0.25)
    p_val.add_argument("--quad-nodes", type=int, default=56)
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    """Lay the flags over the --config values and build the experiment."""
    text = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(text) - set(_SETTINGS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, val in text.items():
        try:
            values[key] = _SETTINGS[key](val)
        except ValueError as err:
            raise ValueError(f"bad value for {key} in {args.config}: {val!r} ({err})") from err
    values.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    if "particles" in values:
        total = values.pop("particles")
        if total % 2 != 0:
            raise ValueError("particles counts both families and must be even")
        values["n_pairs"] = total // 2

    method = values.pop("method", "I")
    for key, variant in zip(("kl_variant_x", "kl_variant_y"), method_preset(method)):
        if values.get(key, variant) != variant:
            raise ValueError(
                f"{key} = {values[key]} contradicts method {method}, which sets {variant}"
            )
    scenario = values.pop("scenario", "gaussian_pair")
    flow_values = {
        f.name: values.pop(f.name) for f in dataclasses.fields(FlowConfig) if f.name in values
    }
    return ExperimentSpec(
        scenario=scenario,
        method=method,
        flow=resolve_flow_config(scenario, flow_values, {}),
        outputs=Path(values.pop("out", "minmaxot_out")),
        **values,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "run":
            return cmd_run(spec)
        if args.command == "compare-methods":
            return cmd_compare_methods(spec)
        grid = tuple(float(v) for v in args.lambda_grid.split(",") if v)
        return cmd_validate_response(
            spec,
            lambda_grid=grid,
            ode_horizon=args.ode_horizon,
            ode_dt=args.ode_dt,
            quad_nodes=args.quad_nodes,
        )
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
