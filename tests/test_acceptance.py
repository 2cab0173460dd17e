"""End-to-end acceptance suite.

Each test prints one pass/fail line per criterion through the terminal
summary hook in conftest. The heavy fixtures (full-size benchmark runs, the
long penalty-ODE trace, the method-comparison batch) are session scoped and
shared across criteria.
"""

import time

import numpy as np
import pytest

import minmaxot as m
from minmaxot.cli import marginal_error_table, scenario_marginals, ExperimentSpec

from conftest import gaussian_experiment_config, record_criterion
from oracles import brute_force_assignment, closed_form_gaussian_z

PAIR_SEEDS = (0, 1, 2, 3, 4)
C_STAR = 0.080
LAMBDA_GRID = (0.05, 0.1, 0.5, 1.0, 5.0)


@pytest.fixture(scope="module")
def benchmark_runs(gaussian_pair, cost):
    """The two-Gaussian benchmark at full size, over five seeds."""
    mu, nu = gaussian_pair
    out = {}
    for seed in PAIR_SEEDS:
        cfg = gaussian_experiment_config(seed)
        started = time.perf_counter()
        traj = m.run(mu, nu, cost, cfg)
        out[seed] = (traj, time.perf_counter() - started, cfg)
    return out


@pytest.fixture(scope="module")
def penalty_ode_trace(gaussian_pair, cost):
    mu, nu = gaussian_pair
    ev = m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=40)
    return ev.solve_penalty_ode(0.1, 100.0, 0.5)


@pytest.fixture(scope="module")
def ring_method_medians(cost):
    """Median final-state marginal errors per method on the ring scenario."""
    spec = ExperimentSpec(
        scenario="ring_to_mixture", method="I", flow=m.FlowConfig(), outputs="unused"
    )
    mu, nu = scenario_marginals(spec)
    medians = {}
    for method in ("I", "II", "III"):
        rows = []
        for seed in PAIR_SEEDS:
            cfg = m.FlowConfig(
                n_pairs=10_000, dt=5e-4, beta=0.005, steps=1500, lambda0=4.0,
                bins_per_dim=20, seed=seed, method=method,
            )
            recorder = m.TrajectoryRecorder(snapshot_steps=(cfg.steps,))
            traj = m.run(mu, nu, cost, cfg, recorder=recorder)
            rows.append(
                marginal_error_table(traj.snapshots[cfg.steps], mu, nu, cfg.bins_per_dim)
            )
        medians[method] = np.median(np.array(rows), axis=0)
    return medians


def test_criterion_1_benchmark_reproduction(benchmark_runs):
    costs, l2s, kls, walls = [], [], [], []
    for traj, wall, _ in benchmark_runs.values():
        costs.append(traj.cost[-1])
        l2s.append(max(traj.l2_mu[-1], traj.l2_nu[-1]))
        kls.append(traj.kl1[-1] + traj.kl2[-1])
        walls.append(wall)
    ok = (
        all(0.075 <= c <= 0.10 for c in costs)
        and all(v <= 0.012 for v in l2s)
        and all(v <= 0.2 for v in kls)
        and all(w <= 60.0 for w in walls)
    )
    record_criterion(
        1,
        "two-Gaussian benchmark: cost/L2/KL/runtime over 5 seeds",
        ok,
        f"cost {min(costs):.4f}..{max(costs):.4f}, l2<= {max(l2s):.4f}, "
        f"kl<= {max(kls):.3f}, wall<= {max(walls):.1f}s",
    )
    assert all(0.075 <= c <= 0.10 for c in costs), costs
    assert all(v <= 0.012 for v in l2s), l2s
    assert all(v <= 0.2 for v in kls), kls
    assert all(w <= 60.0 for w in walls), walls


def test_criterion_2_penalty_growth_bound(benchmark_runs, penalty_ode_trace):
    violations = 0
    for traj, _, cfg in benchmark_runs.values():
        bound = np.sqrt(2.0 * (C_STAR * traj.t + cfg.lambda0**2 / 2.0))
        violations += int(np.sum(traj.lam > bound))
    ode_bound = np.sqrt(2.0 * (C_STAR * penalty_ode_trace[:, 0] + 0.1**2 / 2.0))
    violations += int(np.sum(penalty_ode_trace[:, 1] > ode_bound))
    record_criterion(
        2,
        "sqrt growth bound along particle runs and the penalty ODE",
        violations == 0,
        f"{violations} violations",
    )
    assert violations == 0


def test_criterion_3_monotonicity_and_constraint_decay(benchmark_runs, penalty_ode_trace):
    monotone = all(
        np.all(np.diff(traj.lam) >= 0.0) for traj, _, _ in benchmark_runs.values()
    )
    v0, v_end = penalty_ode_trace[0, 2], penalty_ode_trace[-1, 2]
    decayed = v_end < 0.25 * v0
    record_criterion(
        3,
        "penalty weight non-decreasing; constraint gap decays along the ODE",
        monotone and decayed,
        f"V(0)={v0:.4f} -> V(100)={v_end:.6f}",
    )
    assert monotone
    assert decayed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: d(-lam log Z)/dlam exceeds the marginal KL "
        "sum by the mutual information of the tilted measure (20-45% of V on "
        "this grid); the defect is pinned exactly by "
        "test_energy_derivative_defect_is_tilted_information"
    ),
)
def test_criterion_4_danskin_identity(pair_evaluator):
    worst = 0.0
    for lam in LAMBDA_GRID:
        v = pair_evaluator.marginal_kl_sum(lam)
        h = 1e-4 * lam
        fd = (
            pair_evaluator.best_response_energy(lam + h)
            - pair_evaluator.best_response_energy(lam - h)
        ) / (2 * h)
        worst = max(worst, abs(fd - v) / v)
    record_criterion(
        4,
        "value-function derivative equals constraint gap (expected fail)",
        worst <= 1e-3,
        f"worst relative residual {worst:.3f}",
    )
    assert worst <= 1e-3


def test_criterion_5_derivative_covariance_formula(pair_evaluator):
    worst = 0.0
    for lam in LAMBDA_GRID:
        dv = pair_evaluator.marginal_kl_sum_derivative(lam)
        h = 1e-4 * lam
        fd = (
            pair_evaluator.marginal_kl_sum(lam + h)
            - pair_evaluator.marginal_kl_sum(lam - h)
        ) / (2 * h)
        worst = max(worst, abs(dv - fd) / abs(fd))
    tail = abs(pair_evaluator.marginal_kl_sum_derivative(1e6))
    ok = worst <= 1e-3 and tail <= 1e-6
    record_criterion(
        5,
        "tilted-covariance derivative matches finite differences; vanishes at huge weight",
        ok,
        f"worst rel {worst:.2e}, |dV(1e6)| = {tail:.2e}",
    )
    assert worst <= 1e-3
    assert tail <= 1e-6


def test_criterion_6_partition_function_bounds(pair_evaluator):
    cov = 0.02 * np.eye(2)
    upper_violations = 0
    closed_ok = True
    for lam in (0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 10.0, 1e3, 1e6):
        z = pair_evaluator.partition_function(lam)
        upper_violations += int(not (0.0 < z <= 1.0))
        zc = closed_form_gaussian_z([0.4, 0.4], cov, [0.6, 0.6], cov, lam)
        closed_ok &= abs(z - zc) / zc <= 1e-6
    lower_holds = all(
        np.exp(-C_STAR / lam) <= pair_evaluator.partition_function(lam)
        for lam in (0.01, 0.02, 0.03, 0.04, 0.05)
    )
    lower_fails = all(
        np.exp(-C_STAR / lam) > pair_evaluator.partition_function(lam)
        for lam in (0.06, 0.08, 0.1, 1.0)
    )
    ok = upper_violations == 0 and closed_ok and lower_holds and lower_fails
    record_criterion(
        6,
        "partition bounds: Z<=1 everywhere; lower bound holds to 0.05, breaks from 0.06",
        ok,
        f"upper violations {upper_violations}; lower bound verified then "
        f"broken as documented (diagnostic flag)",
    )
    assert upper_violations == 0
    assert closed_ok
    assert lower_holds
    assert lower_fails


def test_criterion_7_quadrature_calibration(cost):
    mu = m.make_gaussian([0.0], [[0.01]])
    nu = m.make_gaussian([0.15], [[0.01]])
    ev = m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=120)
    worst = 0.0
    for lam in (0.01, 0.1, 1.0, 10.0):
        z = ev.partition_function(lam)
        zc = closed_form_gaussian_z([0.0], [[0.01]], [0.15], [[0.01]], lam)
        worst = max(worst, abs(z - zc) / zc)

    xs = np.linspace(-0.7, 0.7, 4001)[:, None]
    ys = np.linspace(-0.55, 0.85, 4001)[:, None]
    norm_err = 0.0
    for lam in (0.01, 0.1, 1.0):
        ix = np.trapezoid(ev.best_response_marginal_x(lam, xs), xs[:, 0])
        iy = np.trapezoid(ev.best_response_marginal_y(lam, ys), ys[:, 0])
        norm_err = max(norm_err, abs(ix - 1.0), abs(iy - 1.0))

    ok = worst <= 1e-6 and norm_err <= 1e-4
    record_criterion(
        7,
        "partition quadrature matches the closed form; marginals normalize",
        ok,
        f"worst Z rel err {worst:.2e}, worst normalization err {norm_err:.2e}",
    )
    assert worst <= 1e-6
    assert norm_err <= 1e-4


def test_criterion_8_discrete_oracle_exactness(cost):
    rng = np.random.default_rng(2024)
    exact = 0
    for _ in range(50):
        xs = rng.normal(size=(8, 2))
        ys = rng.normal(size=(8, 2))
        plan = m.discrete_ot(xs, ys, cost)
        cmat = np.array([cost.evaluate(np.broadcast_to(x, ys.shape), ys) for x in xs])
        best, _ = brute_force_assignment(cmat)
        exact += int(plan.cost == best / 8)
    same = m.discrete_ot(xs, xs, cost).cost == 0.0
    record_criterion(
        8,
        "assignment solver equals factorial brute force on 50 instances",
        exact == 50 and same,
        f"{exact}/50 exact; identical-set cost zero: {same}",
    )
    assert exact == 50
    assert same


def test_criterion_9_method_comparison(ring_method_medians):
    med = ring_method_medians
    l2_order_a = med["III"][0] <= med["I"][0]
    l2_order_b = med["III"][0] < med["II"][0]
    kl_order = med["II"][3] > med["I"][3]
    ok = l2_order_a and l2_order_b and kl_order
    record_criterion(
        9,
        "ring-to-mixture method ordering (median of 5 seeds)",
        ok,
        f"l2: I={med['I'][0]:.4f} II={med['II'][0]:.4f} III={med['III'][0]:.4f}; "
        f"total KL: I={med['I'][3]:.3f} II={med['II'][3]:.3f}",
    )
    assert l2_order_a
    assert l2_order_b
    assert kl_order


def test_criterion_10_fixed_penalty_descent(gaussian_pair, cost):
    mu, nu = gaussian_pair
    cfg = gaussian_experiment_config(
        seed=0, steps=500, noise_std_coeff=0.0, lambda0=1.0, beta=0.0
    )
    traj = m.run(mu, nu, cost, cfg)
    assert np.all(traj.lam == cfg.lambda0)
    energies = traj.cost + traj.lam * (traj.kl1 + traj.kl2)
    final_ok = energies[-1] <= energies[0]
    tolerance = 0.05 * energies[0]
    worst_window = max(
        energies[s + 50] - energies[s] for s in range(len(energies) - 50)
    )
    window_ok = worst_window <= tolerance
    record_criterion(
        10,
        "frozen-penalty flow: discrete energy descends",
        final_ok and window_ok,
        f"E0={energies[0]:.4f} E500={energies[-1]:.4f}, "
        f"worst 50-step rise {worst_window:.4f} (tol {tolerance:.4f})",
    )
    assert final_ok
    assert window_ok


def test_criterion_11_byte_determinism(tmp_path):
    import minmaxot.cli as cli

    def run_into(out):
        return cli.main([
            "run", "--scenario", "gaussian_pair", "--out", str(out),
            "--particles", "2000", "--steps", "50", "--bins", "12", "--seed", "11",
            "--snapshot-steps", "50",
        ])

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_into(out_a) == 0
    assert run_into(out_b) == 0

    names = ("trajectory.csv", "particles_step50.csv", "interpolant_s0.5.csv")
    identical = all((out_b / n).read_bytes() == (out_a / n).read_bytes() for n in names)
    record_criterion(
        11,
        "byte-identical artifacts under a fixed seed",
        identical,
        f"compared {', '.join(names)} across 2 runs",
    )
    assert identical
