import numpy as np
import pytest

import minmaxot as m

# Collected acceptance results, printed as one line per criterion at the end.
ACCEPTANCE_RESULTS: dict[int, tuple[str, str, str]] = {}


def record_criterion(number: int, title: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS[number] = (title, "PASS" if passed else "FAIL", detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        title, status, detail = ACCEPTANCE_RESULTS[number]
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cost():
    return m.quadratic_cost()


@pytest.fixture(scope="session")
def gaussian_pair():
    cov = 0.02 * np.eye(2)
    return m.make_gaussian([0.4, 0.4], cov), m.make_gaussian([0.6, 0.6], cov)


@pytest.fixture(scope="session")
def pair_evaluator(gaussian_pair, cost):
    mu, nu = gaussian_pair
    return m.ResponseEvaluator(mu, nu, cost, quad_nodes_per_dim=48)


def gaussian_experiment_config(seed: int, **overrides) -> m.FlowConfig:
    """Shipped configuration of the two-Gaussian benchmark experiment."""
    base = dict(
        n_pairs=10_000,
        dt=5e-4,
        beta=0.005,
        steps=2000,
        noise_std_coeff=0.02,
        lambda0=4.0,
        eta_var=1e-4,
        method="I",
        bins_per_dim=22,
        seed=seed,
    )
    base.update(overrides)
    return m.FlowConfig(**base)
