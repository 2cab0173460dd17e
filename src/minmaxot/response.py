"""Semi-analytic layer: partition functions, best-response marginals, the
marginal-KL value function and its derivative, and the scalar penalty ODE.

Everything is evaluated by tensor-product Gauss-Legendre quadrature over the
marginals' support boxes. The cost must be a sum over axes,
c(x, y) = sum_a c(x_a, y_a), with ``cost.evaluate`` on single coordinates
giving the per-axis terms (the quadratic cost is one), so the joint kernel
exp(-c/lam) factors into one small matrix per axis. The evaluator holds no
mutable state: everything is computed at construction, so concurrent
evaluation at different penalty weights is safe. This module is a validation
lab for the particle flow, not a production path.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import Box, CostFunction, Marginal


def _tensor_gauss_legendre(
    box: Box, base_x: np.ndarray, base_w: np.ndarray
) -> tuple[list, np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule (base_x, base_w) on [-1, 1] mapped onto each
    axis of a box, plus the tensor-product nodes and weights in C order."""
    axes_x, axes_w = [], []
    for a in range(box.dim):
        lo, hi = box.low[a], box.high[a]
        axes_x.append(0.5 * (hi - lo) * base_x + 0.5 * (hi + lo))
        axes_w.append(0.5 * (hi - lo) * base_w)
    grids = np.meshgrid(*axes_x, indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    weights = axes_w[0]
    for a in range(1, box.dim):
        weights = np.multiply.outer(weights, axes_w[a])
    return axes_x, nodes, weights.ravel()


def penalty_ode_steps(t_end: float, dt_ode: float) -> int:
    """Number of RK4 steps of size ``dt_ode`` that end at ``t_end``.

    Raises ``ValueError`` unless ``dt_ode`` is positive and finite, ``t_end``
    is finite and >= 0, and t_end / dt_ode lies within 1e-9 (relative) of a
    whole number, so the trace ends at the requested horizon.
    """
    if not (dt_ode > 0 and np.isfinite(dt_ode)):
        raise ValueError("dt_ode must be positive and finite")
    if not (t_end >= 0 and np.isfinite(t_end)):
        raise ValueError("the ODE horizon must be finite and >= 0")
    ratio = t_end / dt_ode
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * ratio:
        raise ValueError(
            f"the ODE horizon {t_end!r} is not a whole number of steps of {dt_ode!r}"
        )
    return n_steps


def _floored_log(z: np.ndarray) -> np.ndarray:
    """log z with z floored at 1e-300, so z * _floored_log(z) is 0 where z is 0."""
    return np.log(np.maximum(z, 1e-300))


def _apply_factored(mats: list, weights: np.ndarray, paired: bool = False) -> np.ndarray:
    """Apply the kernel prod_a mats[a] (each (m, n), d <= 2) to the flat weight
    tensor of shape (n,) * d. On the grid out[i] = sum_j prod_a
    mats[a][i_a, j_a] w[j]; ``paired`` rows are query points, out[k] = sum_j
    prod_a mats[a][k, j_a] w[j]."""
    acc = mats[0] @ weights.reshape(mats[0].shape[1], -1)
    if len(mats) == 2:
        acc = (acc * mats[1]).sum(axis=1) if paired else acc @ mats[1].T
    return acc.ravel()


class ResponseEvaluator:
    """Quadrature-backed evaluator for a pair of analytic marginals and a cost.

    Integrals against each marginal use fixed Gauss-Legendre nodes weighted by
    the marginal density, so same-grid identities (e.g. the Fubini consistency
    of the partition function) hold to rounding. Both marginals must have the
    same dimension, at most 2, and the cost must be a sum over axes: the
    constructor checks it on 256 x 256 joint node pairs and raises
    ``ValueError`` otherwise.
    """

    def __init__(
        self,
        mu: Marginal,
        nu: Marginal,
        cost: CostFunction,
        quad_nodes_per_dim: int = 120,
    ):
        if mu.kind != "analytic" or nu.kind != "analytic":
            raise ValueError("the evaluator requires analytic marginals")
        if mu.dim != nu.dim:
            raise ValueError("the marginals must have the same dimension")
        if mu.dim > 2:
            raise ValueError("quadrature supports at most 2 dimensions per marginal")
        if quad_nodes_per_dim < 2:
            raise ValueError("need at least 2 quadrature nodes per dimension")
        self.mu = mu
        self.nu = nu
        self.cost = cost
        self.quad_nodes_per_dim = quad_nodes_per_dim
        self.quad_box_mu = mu.support_box
        self.quad_box_nu = nu.support_box

        rule = leggauss(quad_nodes_per_dim)
        self._axes_x, self.nodes_x, base_wx = _tensor_gauss_legendre(self.quad_box_mu, *rule)
        self._axes_y, self.nodes_y, base_wy = _tensor_gauss_legendre(self.quad_box_nu, *rule)
        # Weights absorb the densities: sum(w_mu * f(nodes_x)) ~ integral of f d(mu).
        self.w_mu = base_wx * mu.density_at(self.nodes_x)
        self.w_nu = base_wy * nu.density_at(self.nodes_y)
        # Per-axis cost matrices C_a[i, j] = c(x_a[i], y_a[j]).
        self._axis_costs = [self._axis_cost(u, v) for u, v in zip(self._axes_x, self._axes_y)]

        # sum_a C_a must reproduce the cost on evenly spaced joint node pairs.
        idx = np.linspace(0, len(self.nodes_x) - 1, 256).astype(np.int64)
        ii, jj = (g.ravel() for g in np.meshgrid(idx, idx, indexing="ij"))
        direct = self.cost.evaluate(self.nodes_x[ii], self.nodes_y[jj])
        shape = (quad_nodes_per_dim,) * mu.dim
        pairs = zip(self._axis_costs, np.unravel_index(ii, shape), np.unravel_index(jj, shape))
        summed = sum(c[i, j] for c, i, j in pairs)
        if not np.max(np.abs(summed - direct)) <= 1e-12 * np.max(np.abs(direct)):
            raise ValueError(f"cost {cost.name!r} is not a sum over axes of its 1-D terms")

    def _axis_cost(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Cost matrix between the 1-D coordinates u[i] and v[j]."""
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return self.cost.evaluate(uu.reshape(-1, 1), vv.reshape(-1, 1)).reshape(uu.shape)

    def _kernel_pass(self, lam: float, with_cost_moments: bool = False) -> dict:
        """One sweep over the joint kernel exp(-c/lam) = prod_a exp(-C_a/lam).

        Returns z1 (per x-node), z2 (per y-node), and optionally the
        sigma-weighted cost moments needed by the derivative formula: ec_row
        (per x-node: integral of c e^{-c/lam} d(nu)), ec_col and their total ec.
        """
        kerns = [np.exp(-c / lam) for c in self._axis_costs]
        kerns_t = [k.T for k in kerns]
        out = {"z1": _apply_factored(kerns, self.w_nu), "z2": _apply_factored(kerns_t, self.w_mu)}
        if with_cost_moments:
            # c e^{-c/lam} = sum_a (C_a K_a) prod_{b != a} K_b
            ec_row = ec_col = 0.0
            for a, c in enumerate(self._axis_costs):
                ck = c * kerns[a]
                ec_row = ec_row + _apply_factored(kerns[:a] + [ck] + kerns[a + 1:], self.w_nu)
                ec_col = ec_col + _apply_factored(kerns_t[:a] + [ck.T] + kerns_t[a + 1:], self.w_mu)
            out.update(ec=float(self.w_mu @ ec_row), ec_row=ec_row, ec_col=ec_col)
        return out

    # -- partition functions ---------------------------------------------------

    @staticmethod
    def _check_lam(lam: float) -> float:
        lam = float(lam)
        if not (lam > 0 and np.isfinite(lam)):
            raise ValueError(f"the penalty weight must be finite and positive, got {lam}")
        return lam

    def partition_function(self, lam: float) -> float:
        """Z(lam) = double integral of exp(-c/lam) d(mu) d(nu); lies in (0, 1]."""
        lam = self._check_lam(lam)
        pas = self._kernel_pass(lam)
        return float(self.w_mu @ pas["z1"])

    def _partition_at(self, lam: float, pts, given_x: bool):
        """Z1 (``given_x``) or Z2 at query points, from 1-D kernel rows."""
        lam = self._check_lam(lam)
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        rows = [
            np.exp(-(self._axis_cost(p, v) if given_x else self._axis_cost(u, p).T) / lam)
            for p, u, v in zip(pts.T, self._axes_x, self._axes_y)
        ]
        out = _apply_factored(rows, self.w_nu if given_x else self.w_mu, paired=True)
        return float(out[0]) if single else out

    def partition_given_x(self, lam: float, x) -> float | np.ndarray:
        """Z1(x) = integral of exp(-c(x, .)/lam) d(nu)."""
        return self._partition_at(lam, x, given_x=True)

    def partition_given_y(self, lam: float, y) -> float | np.ndarray:
        """Z2(y) = integral of exp(-c(., y)/lam) d(mu)."""
        return self._partition_at(lam, y, given_x=False)

    # -- best-response marginals -----------------------------------------------

    def best_response_marginal_x(self, lam: float, x) -> float | np.ndarray:
        """First marginal of the tilted measure: mu(x) Z1(x) / Z."""
        lam = self._check_lam(lam)
        z = self.partition_function(lam)
        return self.mu.density_at(x) * self.partition_given_x(lam, x) / z

    def best_response_marginal_y(self, lam: float, y) -> float | np.ndarray:
        """Second marginal of the tilted measure: nu(y) Z2(y) / Z."""
        lam = self._check_lam(lam)
        z = self.partition_function(lam)
        return self.nu.density_at(y) * self.partition_given_y(lam, y) / z

    # -- value function and derivative ------------------------------------------

    def marginal_kl_sum(self, lam: float) -> float:
        """Sum of the KLs of the best-response marginals against mu and nu.

        Evaluated as -2 log Z + (1/Z) int Z1 log Z1 d(mu)
                              + (1/Z) int Z2 log Z2 d(nu), clamped at 0.
        A node where Z1 or Z2 underflows to 0 contributes 0 to its integral.
        """
        lam = self._check_lam(lam)
        pas = self._kernel_pass(lam)
        z1, z2 = pas["z1"], pas["z2"]
        z = float(self.w_mu @ z1)
        t1 = float(self.w_mu @ (z1 * _floored_log(z1))) / z
        t2 = float(self.w_nu @ (z2 * _floored_log(z2))) / z
        return max(float(-2.0 * np.log(z)) + t1 + t2, 0.0)

    def marginal_kl_sum_derivative(self, lam: float) -> float:
        """d/d(lam) of ``marginal_kl_sum`` via the tilted-covariance formula.

        Equals Cov_sigma(c, log(Z1 Z2)) / lam^2 where sigma is the tilted
        measure exp(-c/lam) mu nu / Z; the identity holds at the discrete
        level on the shared quadrature grid.
        """
        lam = self._check_lam(lam)
        pas = self._kernel_pass(lam, with_cost_moments=True)
        z1, z2 = pas["z1"], pas["z2"]
        z = float(self.w_mu @ z1)
        log_z1 = _floored_log(z1)
        log_z2 = _floored_log(z2)
        e_c = pas["ec"] / z
        e_log = (float(self.w_mu @ (z1 * log_z1)) + float(self.w_nu @ (z2 * log_z2))) / z
        e_c_log = (float(pas["ec_row"] @ (self.w_mu * log_z1))
                   + float(pas["ec_col"] @ (self.w_nu * log_z2))) / z
        return (e_c_log - e_c * e_log) / lam**2

    def best_response_energy(self, lam: float) -> float:
        """Value -lam log Z(lam) of the penalized energy at the tilted measure."""
        lam = self._check_lam(lam)
        return -lam * float(np.log(self.partition_function(lam)))

    def tilted_cost_mean(self, lam: float) -> float:
        """Mean transport cost under the tilted measure sigma(lam)."""
        lam = self._check_lam(lam)
        pas = self._kernel_pass(lam, with_cost_moments=True)
        z = float(self.w_mu @ pas["z1"])
        return pas["ec"] / z

    # -- penalty ODE -------------------------------------------------------------

    def solve_penalty_ode(self, lambda0: float, t_end: float, dt_ode: float) -> np.ndarray:
        """Integrate d(lam)/dt = marginal_kl_sum(lam) by classical RK4.

        Returns rows (t, lam, marginal_kl_sum(lam)) at every step, including
        t = 0 and t = t_end; ``penalty_ode_steps`` says which (t_end, dt_ode)
        it accepts.
        """
        lam = self._check_lam(lambda0)
        n_steps = penalty_ode_steps(t_end, dt_ode)
        v = self.marginal_kl_sum
        rows = []
        t = 0.0
        for _ in range(n_steps):
            k1 = v(lam)
            rows.append((t, lam, k1))
            k2 = v(lam + 0.5 * dt_ode * k1)
            k3 = v(lam + 0.5 * dt_ode * k2)
            k4 = v(lam + dt_ode * k3)
            lam = lam + dt_ode * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            t += dt_ode
        rows.append((t, lam, v(lam)))
        return np.array(rows)
