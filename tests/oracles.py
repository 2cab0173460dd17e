"""Independent reference computations used by the tests.

Everything here is derived from first principles (closed-form Gaussian
integrals, exhaustive enumeration, elementary quadrature) and deliberately
avoids the code paths it is used to check.
"""

import itertools

import numpy as np


def closed_form_gaussian_z(m1, s1, m2, s2, lam):
    """Partition integral of exp(-|x-y|^2 / lam) against two Gaussians.

    With u = x - y ~ N(m1 - m2, S1 + S2):
    E[exp(-u.u/lam)] = det(I + 2T/lam)^(-1/2) exp(-d. (lam I + 2T)^(-1) d).
    """
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    s1 = np.atleast_2d(np.asarray(s1, dtype=float))
    s2 = np.atleast_2d(np.asarray(s2, dtype=float))
    d = m1.size
    t = s1 + s2
    delta = m1 - m2
    a = np.eye(d) + 2.0 * t / lam
    b = lam * np.eye(d) + 2.0 * t
    return float(np.linalg.det(a) ** -0.5 * np.exp(-delta @ np.linalg.solve(b, delta)))


def closed_form_1d_z(m1, var1, m2, var2, lam):
    """1-D specialization: (1 + 2 tau^2/lam)^(-1/2) exp(-delta^2/(lam + 2 tau^2))."""
    tau2 = var1 + var2
    delta = m1 - m2
    return (1.0 + 2.0 * tau2 / lam) ** -0.5 * np.exp(-(delta**2) / (lam + 2.0 * tau2))


def tilted_mutual_information(var, lam, dim):
    """Mutual information of exp(-|x-y|^2/lam) mu nu / Z for isotropic
    Gaussians with shared per-axis variance ``var``.

    Per axis the tilted joint is Gaussian with precision
    [[1/var + 2/lam, -2/lam], [-2/lam, 1/var + 2/lam]], hence correlation
    rho = 2 var / (lam + 2 var) and information -dim/2 log(1 - rho^2).
    """
    rho = 2.0 * var / (lam + 2.0 * var)
    return -0.5 * dim * np.log(1.0 - rho**2)


def brute_force_assignment(cost_matrix):
    """Exact minimum-cost assignment by enumerating all permutations."""
    n = cost_matrix.shape[0]
    best_cost = np.inf
    best_perm = None
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        perm = np.asarray(perm)
        c = cost_matrix[rows, perm].sum()
        if c < best_cost:
            best_cost = c
            best_perm = perm
    return best_cost, best_perm


def tensor_grid_integral(density, box, points_per_axis):
    """Midpoint tensor-grid quadrature of a density over a box."""
    axes = []
    widths = []
    for a in range(box.dim):
        lo, hi = box.low[a], box.high[a]
        w = (hi - lo) / points_per_axis
        axes.append(lo + (np.arange(points_per_axis) + 0.5) * w)
        widths.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    cell = float(np.prod(widths))
    total = 0.0
    chunk = 200_000
    for start in range(0, len(pts), chunk):
        total += float(np.sum(density(pts[start : start + chunk]))) * cell
    return total


def central_fd_gradient(f, x, h):
    """Central finite-difference gradient of a scalar field at a point."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for a in range(x.size):
        dx = np.zeros_like(x)
        dx[a] = h
        grad[a] = (f(x + dx) - f(x - dx)) / (2.0 * h)
    return grad


def dense_cost_matrix(cost, xs, ys):
    """Joint cost matrix c(xs[i], ys[j]), filled one row at a time."""
    return np.array([cost.evaluate(np.broadcast_to(x, ys.shape), ys) for x in xs])


def dense_kernel_pass(cost, nodes_x, nodes_y, w_mu, w_nu, lam):
    """Partition sums and cost moments from the full joint kernel exp(-c/lam)."""
    cmat = dense_cost_matrix(cost, nodes_x, nodes_y)
    kern = np.exp(-cmat / lam)
    ck = cmat * kern
    return {
        "z1": kern @ w_nu,
        "z2": w_mu @ kern,
        "ec": float(w_mu @ ck @ w_nu),
        "ec_row": ck @ w_nu,
        "ec_col": w_mu @ ck,
    }
