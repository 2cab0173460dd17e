import dataclasses

import numpy as np
import pytest

import minmaxot as m
from minmaxot.density import bin_points
from minmaxot.flow import (
    CSV_BLOCK_ROWS,
    csv_row_strings,
    frozen_rows,
    save_particles_csv,
    save_trajectory_csv,
    write_csv_rows,
)

from conftest import gaussian_experiment_config


def small_config(**overrides):
    base = dict(
        n_pairs=400, dt=5e-4, beta=0.01, steps=30, lambda0=1.0,
        bins_per_dim=10, seed=7,
    )
    base.update(overrides)
    return m.FlowConfig(**base)


def step_binned(ps, mu_ref, nu_ref, cost, cfg, rho1, rho2, rng):
    """``step_particles`` with the mobile families binned on the grids of
    ``rho1`` and ``rho2``."""
    x2_slots = bin_points(rho1.box, rho1.bins_per_dim, ps.x2)
    y1_slots = bin_points(rho2.box, rho2.bins_per_dim, ps.y1)
    return m.step_particles(ps, mu_ref, nu_ref, cost, cfg, rho1, rho2, rng, x2_slots, y1_slots)


def test_init_zero_eta_pairs_coincide(gaussian_pair):
    mu, nu = gaussian_pair
    cfg = small_config(eta_var=0.0)
    ps = m.init_particles(mu, nu, cfg, np.random.default_rng(0))
    assert np.array_equal(ps.x1, ps.y1)
    assert np.array_equal(ps.x2, ps.y2)
    assert ps.lam == cfg.lambda0
    assert ps.step_index == 0


def test_init_cost_matches_pairing_variance(gaussian_pair, cost):
    mu, nu = gaussian_pair
    eta = 1e-3
    cfg = small_config(n_pairs=20_000, eta_var=eta)
    ps = m.init_particles(mu, nu, cfg, np.random.default_rng(1))
    observed = m.empirical_coupling_cost(ps, cost)
    # ||xi||^2 has mean d*eta and variance 2*d*eta^2 per pair
    d = mu.dim
    sigma = eta * np.sqrt(2 * d / (2 * cfg.n_pairs))
    assert abs(observed - d * eta) <= 3 * sigma


def test_init_deterministic(gaussian_pair):
    mu, nu = gaussian_pair
    cfg = small_config()
    a = m.init_particles(mu, nu, cfg, np.random.default_rng(5))
    b = m.init_particles(mu, nu, cfg, np.random.default_rng(5))
    for fam in ("x1", "y1", "x2", "y2"):
        assert np.array_equal(getattr(a, fam), getattr(b, fam))


def test_init_rejects_dim_mismatch():
    mu = m.make_gaussian([0.0], [[1.0]])
    nu = m.make_gaussian([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        m.init_particles(mu, nu, small_config(), np.random.default_rng(0))


def test_step_particles_pure_cost_descent(gaussian_pair, cost):
    # no penalty, no noise: one explicit Euler step on the pair cost alone
    mu, nu = gaussian_pair
    cfg = small_config(noise_std_coeff=0.0)
    rng = np.random.default_rng(2)
    ps = m.init_particles(mu, nu, cfg, rng)
    ps = dataclasses.replace(ps, lam=0.0)
    box = m.Box(np.array([-2.0, -2.0]), np.array([3.0, 3.0]))
    rho1 = m.fit_histogram(ps.pooled_x(), box, cfg.bins_per_dim)
    rho2 = m.fit_histogram(ps.pooled_y(), box, cfg.bins_per_dim)
    mu_ref = m.fit_histogram(mu.sample(4000, rng), box, cfg.bins_per_dim)
    nu_ref = m.fit_histogram(nu.sample(4000, rng), box, cfg.bins_per_dim)
    before = ps.copy()
    stepped = step_binned(ps, mu_ref, nu_ref, cost, cfg, rho1, rho2, rng)
    expect_x2 = before.x2 - 2 * cfg.dt * (before.x2 - before.y2)
    expect_y1 = before.y1 - 2 * cfg.dt * (before.y1 - before.x1)
    assert np.allclose(stepped.x2, expect_x2, atol=1e-15)
    assert np.allclose(stepped.y1, expect_y1, atol=1e-15)
    # frozen families bit-identical
    assert np.array_equal(stepped.x1, before.x1)
    assert np.array_equal(stepped.y2, before.y2)
    assert stepped.step_index == before.step_index + 1


def test_step_particles_zero_drift_when_marginals_match(cost):
    # zero cost, matched marginals: residual drift is histogram noise only,
    # against references fitted from 80k independent samples of the same law
    # (over seeds 0-9 the mean move read at most half the bound)
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    cfg = small_config(n_pairs=10_000, noise_std_coeff=0.0, lambda0=1.0)
    rng = np.random.default_rng(3)
    ps = m.init_particles(marg, marg, cfg, rng)
    box = marg.support_box
    rho1 = m.fit_histogram(ps.pooled_x(), box, 20)
    rho2 = m.fit_histogram(ps.pooled_y(), box, 20)
    mu_ref = m.fit_histogram(marg.sample(80_000, rng), box, 20)
    nu_ref = m.fit_histogram(marg.sample(80_000, rng), box, 20)

    zero = lambda x, y: np.zeros(len(np.atleast_2d(x)))
    zgrad = lambda x, y: np.zeros_like(np.atleast_2d(x), dtype=float)
    no_cost = m.CostFunction(evaluate=zero, grad_x=zgrad, grad_y=zgrad, name="zero")

    stepped = step_binned(ps, mu_ref, nu_ref, no_cost, cfg, rho1, rho2, rng)
    mean_move = np.linalg.norm((stepped.x2 - ps.x2).mean(axis=0))
    assert mean_move <= cfg.dt * cfg.lambda0 * 0.5


def step_with_gradients(gaussian_pair, grad_x, grad_y):
    """One noiseless ``step_particles`` on a small system whose cost has the
    gradients ``grad_x`` and ``grad_y``."""
    mu, nu = gaussian_pair
    cfg = small_config(noise_std_coeff=0.0)
    rng = np.random.default_rng(4)
    ps = m.init_particles(mu, nu, cfg, rng)
    box = m.Box(np.array([-2.0, -2.0]), np.array([3.0, 3.0]))
    rho1 = m.fit_histogram(ps.pooled_x(), box, cfg.bins_per_dim)
    rho2 = m.fit_histogram(ps.pooled_y(), box, cfg.bins_per_dim)
    mu_ref = m.fit_histogram(mu.sample(4000, rng), box, cfg.bins_per_dim)
    nu_ref = m.fit_histogram(nu.sample(4000, rng), box, cfg.bins_per_dim)
    zero = lambda x, y: np.zeros(len(np.atleast_2d(x)))
    cost = m.CostFunction(evaluate=zero, grad_x=grad_x, grad_y=grad_y, name="bad")
    return step_binned(ps, mu_ref, nu_ref, cost, cfg, rho1, rho2, rng)


def nan_gradient(row, col):
    """A cost gradient that is zero except for a NaN at (row, col)."""

    def grad(x, y):
        g = np.zeros_like(np.atleast_2d(x), dtype=float)
        g[row, col] = np.nan
        return g

    return grad


def test_step_particles_aborts_on_non_finite(gaussian_pair):
    bad_grad = nan_gradient(3, 0)
    with pytest.raises(m.FlowDivergedError, match="particle 3"):
        step_with_gradients(gaussian_pair, bad_grad, bad_grad)


def test_step_particles_names_the_diverged_y1_particle(gaussian_pair):
    # only the mobile y family goes non-finite, on its second axis
    zero_grad = lambda x, y: np.zeros_like(x)
    with pytest.raises(m.FlowDivergedError, match=r"particle 5 of mobile family y1 at step 0$"):
        step_with_gradients(gaussian_pair, zero_grad, nan_gradient(5, 1))


def test_step_lambda_euler_update():
    ps = m.ParticleSystem(
        x1=np.zeros((2, 1)), y1=np.zeros((2, 1)),
        x2=np.zeros((2, 1)), y2=np.zeros((2, 1)), lam=0.1,
    )
    cfg = m.FlowConfig(n_pairs=2, dt=0.02, beta=0.5, steps=1, lambda0=0.1)
    assert m.step_lambda(ps, 0.0, 0.0, cfg).lam == 0.1
    stepped = m.step_lambda(ps, 0.3, 0.2, cfg)  # beta * dt = 0.01, kl sum = 0.5
    assert stepped.lam == pytest.approx(0.105)
    with pytest.raises(ValueError):
        m.step_lambda(ps, -0.1, 0.0, cfg)


def test_run_zero_steps_single_record(gaussian_pair, cost):
    mu, nu = gaussian_pair
    traj = m.run(mu, nu, cost, small_config(steps=0))
    assert len(traj) == 1
    assert traj.t[0] == 0.0
    assert traj.lam[0] == 1.0


def test_run_deterministic(gaussian_pair, cost):
    mu, nu = gaussian_pair
    cfg = small_config(steps=25)
    a = m.run(mu, nu, cost, cfg)
    b = m.run(mu, nu, cost, cfg)
    for field in ("t", "lam", "kl1", "kl2", "cost", "l2_mu", "l2_nu"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_run_frozen_families_conserved(gaussian_pair, cost):
    mu, nu = gaussian_pair
    cfg = small_config(steps=40)
    rec = m.TrajectoryRecorder(snapshot_steps=(0, 40))
    m.run(mu, nu, cost, cfg, recorder=rec)
    first = rec._snapshots[0]
    last = rec._snapshots[40]
    assert np.array_equal(first.x1, last.x1)
    assert np.array_equal(first.y2, last.y2)


def test_run_lambda_monotone(gaussian_pair, cost):
    mu, nu = gaussian_pair
    traj = m.run(mu, nu, cost, small_config(steps=50))
    assert np.all(np.diff(traj.lam) >= 0.0)


def test_run_identity_coupling_stays_cheap(cost):
    # mu = nu: optimal cost is zero; pairs stay within the noise floor
    marg = m.make_gaussian([0.0, 0.0], 0.02 * np.eye(2))
    eta = 1e-4
    cfg = m.FlowConfig(n_pairs=2000, steps=300, eta_var=eta, bins_per_dim=20, seed=0)
    traj = m.run(marg, marg, cost, cfg)
    assert traj.cost.max() <= 2 * marg.dim * eta + 0.004


def test_run_empirical_marginals(cost):
    rng = np.random.default_rng(8)
    mu = m.make_empirical(rng.normal(0.0, 0.2, (4000, 2)))
    nu = m.make_empirical(rng.normal(0.3, 0.2, (4000, 2)))
    cfg = small_config(n_pairs=1000, steps=20, bins_per_dim=12)
    traj = m.run(mu, nu, cost, cfg)
    assert len(traj) == 21
    assert np.all(np.isfinite(traj.cost))
    assert np.all(np.isfinite(traj.kl1))


def test_fixed_penalty_descent_window(gaussian_pair, cost):
    # frozen penalty, no noise: the discrete energy never rises materially
    mu, nu = gaussian_pair
    cfg = gaussian_experiment_config(
        seed=3, n_pairs=2000, steps=200, noise_std_coeff=0.0, lambda0=1.0, beta=0.0
    )
    traj = m.run(mu, nu, cost, cfg)
    assert np.all(traj.lam == cfg.lambda0)
    energies = traj.cost + traj.lam * (traj.kl1 + traj.kl2)
    assert energies[-1] <= energies[0]
    tolerance = 0.05 * energies[0]
    for start in range(0, len(energies) - 50):
        window = energies[start : start + 51]
        assert window[-1] - window[0] <= tolerance


def test_interpolant_endpoints_and_midpoint(gaussian_pair):
    mu, nu = gaussian_pair
    ps = m.init_particles(mu, nu, small_config(), np.random.default_rng(2))
    xs = np.vstack([ps.x1, ps.x2])
    ys = np.vstack([ps.y1, ps.y2])
    assert np.array_equal(m.interpolant(ps, 0.0), xs)
    assert np.array_equal(m.interpolant(ps, 1.0), ys)
    assert np.allclose(m.interpolant(ps, 0.5), 0.5 * (xs + ys))
    with pytest.raises(ValueError):
        m.interpolant(ps, 1.5)


def test_method_preset_mapping():
    assert m.method_preset("I") == ("forward", "forward")
    assert m.method_preset("II") == ("reverse", "reverse")
    assert m.method_preset("III") == ("reverse", "forward")
    with pytest.raises(ValueError):
        m.method_preset("IV")


def test_trajectory_csv_roundtrip(tmp_path, gaussian_pair, cost):
    mu, nu = gaussian_pair
    traj = m.run(mu, nu, cost, small_config(steps=5))
    path = tmp_path / "trajectory.csv"
    save_trajectory_csv(path, traj)
    text = path.read_text().splitlines()
    assert text[0] == "t,lambda,kl1,kl2,cost,l2_mu,l2_nu"
    loaded = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(loaded[:, 0], traj.t)
    assert np.array_equal(loaded[:, 1], traj.lam)
    assert np.array_equal(loaded[:, 4], traj.cost)


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 5])
def test_csv_rows_with_per_row_prefix_and_suffix(n_rows):
    """Per-row prefix and suffix strings join the row's floats with a comma;
    a single string is written as it is."""
    import io

    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, 2))
    before = [f"p{i}" for i in range(n_rows)]
    after = [f"s{i}%" for i in range(n_rows)]
    fh = io.StringIO()
    write_csv_rows(fh, rows, prefix=before, suffix=after)
    expected = "".join(
        f"{p}," + ",".join(map(repr, row)) + f",{s}\n"
        for p, row, s in zip(before, rows.tolist(), after)
    )
    assert fh.getvalue() == expected
    fh = io.StringIO()
    write_csv_rows(fh, rows, prefix=before, suffix=",%x")
    assert fh.getvalue() == "".join(
        f"{p}," + ",".join(map(repr, row)) + ",%x\n" for p, row in zip(before, rows.tolist())
    )
    assert csv_row_strings(rows, suffix=",3") == [
        ",".join(map(repr, row)) + ",3" for row in rows.tolist()
    ]


def test_particles_csv_with_frozen_rows_is_the_same(tmp_path, gaussian_pair, cost):
    """Snapshots written with the frozen rows of another snapshot of the same
    run match those that format their own."""
    mu, nu = gaussian_pair
    recorder = m.TrajectoryRecorder(snapshot_steps=(0, 4))
    traj = m.run(mu, nu, cost, small_config(n_pairs=50, steps=4), recorder=recorder)
    frozen = frozen_rows(traj.snapshots[0])
    for k in (0, 4):
        own, shared = tmp_path / f"own{k}.csv", tmp_path / f"shared{k}.csv"
        save_particles_csv(own, traj.snapshots[k])
        save_particles_csv(shared, traj.snapshots[k], frozen)
        assert own.read_bytes() == shared.read_bytes()
    lines = own.read_text().splitlines()[1:]
    expected = [
        ",".join(map(repr, row)) + f",{fam}"
        for fam, xs, ys in ((1, traj.snapshots[4].x1, traj.snapshots[4].y1),
                            (2, traj.snapshots[4].x2, traj.snapshots[4].y2))
        for row in np.hstack([xs, ys]).tolist()
    ]
    assert lines == expected


def test_particles_csv_schema(tmp_path, gaussian_pair):
    mu, nu = gaussian_pair
    ps = m.init_particles(mu, nu, small_config(n_pairs=3), np.random.default_rng(0))
    path = tmp_path / "particles.csv"
    save_particles_csv(path, ps)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_1,x_2,y_1,y_2,family"
    assert len(lines) == 1 + 6
    fams = [int(line.split(",")[-1]) for line in lines[1:]]
    assert fams == [1, 1, 1, 2, 2, 2]


def test_csv_rows_use_round_trip_repr():
    import io

    from minmaxot.flow import write_csv_rows

    rows = np.array([
        [0.1, -0.0, 1 / 3, 5e-324],
        [1.7976931348623157e308, np.nan, np.inf, -np.inf],
        [1e-300, -2.5, 0.0, 123456789.125],
    ])
    fh = io.StringIO()
    write_csv_rows(fh, rows, suffix=",2")
    expected = "".join(
        ",".join(repr(float(v)) for v in row) + ",2\n" for row in rows
    )
    assert fh.getvalue() == expected
    back = np.loadtxt(io.StringIO(fh.getvalue()), delimiter=",")[:, :4]
    assert back.tobytes() == rows.tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS + 17])
@pytest.mark.parametrize("suffix", ["", ",2", "%,{}"])
def test_csv_rows_match_per_row_repr(n_rows, suffix):
    """Block formatting writes the lines of the per-row ``repr`` form: no rows,
    one row, exactly one block, and several blocks plus a remainder."""
    import io

    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    rows[rng.random((n_rows, 3)) < 0.01] = -0.0
    fh = io.StringIO()
    write_csv_rows(fh, rows, suffix=suffix)
    expected = "".join(",".join(map(repr, row)) + suffix + "\n" for row in rows.tolist())
    assert fh.getvalue() == expected
