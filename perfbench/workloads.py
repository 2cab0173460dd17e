"""The three benchmark workloads: the command line each runs and the
correctness gates its outputs must pass.

Gates use the acceptance bands of the test suite as they stand; none is
widened here. Each gate is a (name, passed) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Criterion-1 bands of the two-Gaussian benchmark (tests/test_acceptance.py).
COST_BAND = (0.075, 0.10)
MAX_L2 = 0.012
MAX_KL_SUM = 0.2
# Z against its closed form, and the covariance derivative against finite
# differences (criteria 5 and 6).
Z_REL_TOL = 1e-6
DV_REL_TOL = 1e-3

GAUSS_MEANS = ([0.4, 0.4], [0.6, 0.6])
GAUSS_COV = 0.02 * np.eye(2)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "flow" | "response"
    why: str

    def argv(self, seed: int, out: Path, tiny: bool) -> list[str]:
        if self.name == "gauss_flow":
            particles, steps = (2000, 20) if tiny else (20000, 250)
            return [
                "run", "--scenario", "gaussian_pair", "--method", "I",
                "--particles", str(particles), "--steps", str(steps),
                "--snapshot-steps", f"0,{steps}", "--seed", str(seed), "--out", str(out),
            ]
        if self.name == "ring_flow_rev":
            particles, steps = (2000, 20) if tiny else (20000, 300)
            return [
                "run", "--scenario", "ring_to_mixture", "--method", "II",
                "--particles", str(particles), "--steps", str(steps),
                "--seed", str(seed), "--out", str(out),
            ]
        nodes, horizon = (12, 0.5) if tiny else (56, 2.5)
        return [
            "validate-response", "--scenario", "gaussian_pair",
            "--quad-nodes", str(nodes), "--ode-horizon", str(horizon),
            "--seed", str(seed), "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss_flow", "flow",
            "reference two-Gaussian run: forward drift, histogram fit and about 100k CSV rows",
        ),
        Workload(
            "ring_flow_rev", "flow",
            "reverse drift on multimodal occupancy with box clamping and slow analytic samplers",
        ),
        Workload(
            "response_ode", "response",
            "dense 3136x3136 quadrature kernel of the response layer; flow and density idle",
        ),
    )
}


def read_resolved_config(out: Path) -> dict[str, str]:
    values = {}
    for line in (out / "resolved_config.txt").read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    return values


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    """CSV columns by header name; True/False flags read as 1/0."""
    flags = {"True": "1", "False": "0"}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(flags.get(v, v)) for v in line.strip().split(",")] for line in fh]
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def optimal_cost(scenario: str) -> float:
    """c* for the growth bound: closed form for the Gaussian pair, otherwise
    the exact discrete surrogate the command line itself uses."""
    # Imported here: the parent process (run.py) never imports the package.
    from minmaxot import cli, model, oracle

    if scenario == "gaussian_pair":
        return oracle.gaussian_w2_squared(GAUSS_MEANS[0], GAUSS_COV, GAUSS_MEANS[1], GAUSS_COV)
    spec = cli.ExperimentSpec(
        scenario=scenario, method="I", flow=cli.resolve_flow_config(scenario, {}, {}),
        outputs=Path("unused"),
    )
    mu, nu = cli.scenario_marginals(spec)
    rng = np.random.default_rng(0)
    return oracle.discrete_ot(mu.sample(512, rng), nu.sample(512, rng), model.quadratic_cost()).cost


def closed_form_gaussian_z(m1, s1, m2, s2, lam: float) -> float:
    """E exp(-|x - y|^2 / lam) for independent x ~ N(m1, s1), y ~ N(m2, s2)."""
    delta = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    tot = np.asarray(s1, dtype=float) + np.asarray(s2, dtype=float)
    eye = np.eye(len(delta))
    det = np.linalg.det(eye + 2.0 * tot / lam)
    return float(det**-0.5 * np.exp(-delta @ np.linalg.solve(lam * eye + 2.0 * tot, delta)))


def flow_gates(name: str, out: Path, config: dict[str, str]) -> list[tuple[str, bool]]:
    traj = _read_columns(out / "trajectory.csv")
    t, lam = traj["t"], traj["lambda"]
    c_star = optimal_cost(config["scenario"])
    lambda0 = float(config["lambda0"])
    bound = np.sqrt(2.0 * (c_star * t + lambda0**2 / 2.0))
    gates = [
        ("trajectory_finite", all(np.isfinite(col).all() for col in traj.values())),
        ("trajectory_length", len(t) == int(config["steps"]) + 1),
        ("lambda_nondecreasing", bool(np.all(np.diff(lam) >= 0.0))),
        ("lambda_below_growth_bound", bool(np.all(lam <= bound))),
    ]
    if name == "gauss_flow":
        cost = traj["cost"][-1]
        gates += [
            ("final_cost_in_band", bool(COST_BAND[0] <= cost <= COST_BAND[1])),
            ("final_max_l2", bool(max(traj["l2_mu"][-1], traj["l2_nu"][-1]) <= MAX_L2)),
            ("final_kl_sum", bool(traj["kl1"][-1] + traj["kl2"][-1] <= MAX_KL_SUM)),
        ]
    return gates


def response_gates(out: Path) -> list[tuple[str, bool]]:
    report = _read_columns(out / "response_report.csv")
    z_closed = np.array([
        closed_form_gaussian_z(GAUSS_MEANS[0], GAUSS_COV, GAUSS_MEANS[1], GAUSS_COV, lam)
        for lam in report["lambda"]
    ])
    z_err = np.abs(report["Z"] - z_closed) / z_closed
    dv_fd = report["dV_dlambda_fd"]
    dv_err = np.abs(report["dV_dlambda"] - dv_fd) / np.abs(dv_fd)
    margin = _read_columns(out / "ode_trace.csv")["bound_margin"]
    return [
        ("report_rows", len(z_closed) > 0),
        ("z_matches_closed_form", bool(np.all(z_err <= Z_REL_TOL))),
        ("dv_matches_finite_difference", bool(np.all(dv_err <= DV_REL_TOL))),
        ("ode_bound_margin_nonnegative", bool(len(margin) > 0 and np.all(margin >= 0.0))),
    ]


def gates_for(workload: Workload, out: Path, config: dict[str, str]) -> list[tuple[str, bool]]:
    if workload.kind == "flow":
        return flow_gates(workload.name, out, config)
    return response_gates(out)
