"""Independent reference computations used by the tests.

Everything here is derived from first principles (closed-form Gaussian
integrals, exhaustive enumeration, elementary quadrature) and deliberately
avoids the code paths it is used to check.
"""

import functools
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


@functools.cache
def _permutation_table(n):
    """All permutations of range(n), one per row, in lexicographic order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.setflags(write=False)
    return table


def brute_force_assignment(cost_matrix):
    """Exact minimum-cost assignment by enumerating all permutations.

    Each permutation's cost is the sum of its n picked entries, the same
    length-n sum whether taken one permutation at a time or as a row of the
    (n!, n) table; ties go to the first permutation in lexicographic order.
    """
    n = cost_matrix.shape[0]
    perms = _permutation_table(n)
    costs = cost_matrix[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(costs))
    return costs[best], perms[best]


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


def reference_ring_radial_constant(ring_radius, ring_width):
    """Normalizer of exp(-(|x|-r)^2 / (2 s^2)) over R^2 by a 400-node
    Gauss-Legendre rule in the radius on [max(0, r - 12 s), r + 12 s]."""
    from numpy.polynomial.legendre import leggauss

    lo = max(0.0, ring_radius - 12.0 * ring_width)
    hi = ring_radius + 12.0 * ring_width
    u, w = leggauss(400)
    u = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    radial = np.exp(-((u - ring_radius) ** 2) / (2.0 * ring_width**2)) * u
    return float(2.0 * np.pi * (w @ radial))


def reference_ring_peak_sample(n, rng, ring_radius=1.0, ring_width=0.15,
                               peak_weight=0.3, peak_std=0.2):
    """The ring-plus-peak sampler with boolean-mask placement: the same draws,
    in the same order, as ``make_ring_peak``'s sampler."""
    r, s_r, w_p, s_p = ring_radius, ring_width, peak_weight, peak_std
    u_hi = r + 12.0 * s_r
    from_peak = rng.random(n) < w_p
    out = np.empty((n, 2))
    k = int(from_peak.sum())
    if k:
        out[from_peak] = rng.standard_normal((k, 2)) * s_p
    m = n - k
    if m:
        radii = np.empty(m)
        filled = 0
        while filled < m:
            u = rng.normal(r, s_r, size=max(2 * (m - filled), 64))
            u = u[(u > 0.0) & (u < u_hi)]
            u = u[rng.random(u.size) < u / u_hi]
            take = min(u.size, m - filled)
            radii[filled : filled + take] = u[:take]
            filled += take
        theta = rng.random(m) * 2.0 * np.pi
        out[~from_peak] = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
    return out


def reference_mixture_sample(components, n, rng):
    """The mixture sampler with boolean-mask placement: the same draws, in the
    same order, as ``make_mixture``'s sampler."""
    weights = np.array([w for w, _ in components], dtype=float)
    choice = rng.choice(len(components), size=n, p=weights)
    out = np.empty((n, components[0][1].dim))
    for i, (_, marg) in enumerate(components):
        mask = choice == i
        k = int(mask.sum())
        if k:
            out[mask] = marg.sample(k, rng)
    return out


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


# --- Reference histogram pipeline -------------------------------------------
# The binning, fit and drift stencil written without shared cell indices:
# every query bins its points afresh, and the stencil walks each particle's
# neighbour cells one axis at a time.


def reference_flat_index(box, bins_per_dim, pts):
    """Flat C-order cell of each point and whether it lies in the box (upper
    face inside); out-of-box points get the index of the nearest edge cell."""
    b = bins_per_dim
    scaled = (pts - box.low) / (box.widths / b)
    inside = np.all((scaled >= 0.0) & (scaled <= b), axis=1)
    idx = scaled.astype(np.int64)
    np.clip(idx, 0, b - 1, out=idx)
    flat = idx[:, 0]
    for a in range(1, box.dim):
        flat = flat * b + idx[:, a]
    return flat, inside


def reference_counts(points, box, bins_per_dim):
    """Cell counts of the points that fall in the box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    flat, inside = reference_flat_index(box, bins_per_dim, pts)
    return np.bincount(flat[inside], minlength=bins_per_dim**box.dim)


def reference_density_at(h, pts):
    """Histogram value at each point, floor_eps outside the box."""
    flat, inside = reference_flat_index(h.box, h.bins_per_dim, pts)
    out = np.full(len(pts), h.floor_eps)
    out[inside] = h.values[flat[inside]]
    return out


def _reference_field(h, ref, variant):
    """log(h/ref) ("forward") or -ref/h ("reverse") on every cell of h's grid,
    in flat order, with the value of two floored densities appended for the
    outside of the box."""
    hv = np.append(h.values, h.floor_eps)
    rv = np.append(ref.values, ref.floor_eps)
    return np.log(hv / rv) if variant == "forward" else -rv / hv


def reference_drift(h, ref, x, rng, variant):
    """Random one-sided one-bin differences of the field, one particle and
    one axis at a time: the drawn bit picks the neighbour cell below (0) or
    above (1) the particle's own, a neighbour beyond the grid reads the
    outside value, and the estimate is (upper - lower) / w. A particle
    outside the box reads 0."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = pts.shape
    b = h.bins_per_dim
    outside = b**d
    widths = h.bin_widths
    up = rng.integers(0, 2, size=(n, d))
    f = _reference_field(h, ref, variant)
    flat, inside = reference_flat_index(h.box, b, pts)
    grad = np.zeros((n, d))
    for i in range(n):
        if not inside[i]:
            continue
        for a in range(d):
            stride = b ** (d - 1 - a)
            cell_a = (flat[i] // stride) % b
            if up[i, a]:
                lower = flat[i]
                upper = flat[i] + stride if cell_a < b - 1 else outside
            else:
                upper = flat[i]
                lower = flat[i] - stride if cell_a > 0 else outside
            grad[i, a] = (f[upper] - f[lower]) / widths[a]
    return grad


def reference_run(mu, nu, cost, cfg):
    """For analytic marginals, the particle flow loop written out with the reference binning and
    stencil: per step, fit the pooled marginals, record the diagnostics,
    take the Euler-Maruyama step and the penalty ascent step. Returns the
    trajectory columns (t, lambda, kl1, kl2, cost, l2_mu, l2_nu) as one
    (steps + 1, 7) array and the final (x1, y1, x2, y2, lambda)."""
    import minmaxot as m
    from minmaxot.density import grid_centers
    from minmaxot.flow import BOX_PAD_FRACTION, REF_SAMPLE_FACTOR

    root = np.random.SeedSequence(cfg.seed)
    init_ss, ref_ss, *step_ss = root.spawn(cfg.steps + 2)
    ps = m.init_particles(mu, nu, cfg, np.random.default_rng(init_ss))
    ref_rng = np.random.default_rng(ref_ss)
    mu_samples = mu.sample(REF_SAMPLE_FACTOR * cfg.n_pairs, ref_rng)
    nu_samples = nu.sample(REF_SAMPLE_FACTOR * cfg.n_pairs, ref_rng)
    b = cfg.bins_per_dim
    box_x = m.Box.hull([ps.x1, ps.x2], BOX_PAD_FRACTION)
    box_y = m.Box.hull([ps.y1, ps.y2], BOX_PAD_FRACTION)

    def fit(points, box):
        counts = reference_counts(points, box, b)
        return m.HistogramDensity(box=box, bins_per_dim=b, counts=counts, total=len(points))

    mu_ref, nu_ref = fit(mu_samples, box_x), fit(nu_samples, box_y)
    def center_values(marginal, box):
        floor = 1e-10 / float(np.prod(box.widths / b))
        return np.maximum(marginal.density_at(grid_centers(box, b)), floor)

    q_mu, q_nu = center_values(mu, box_x), center_values(nu, box_y)

    x1, y1, x2, y2, lam = ps.x1, ps.y1, ps.x2, ps.y2, ps.lam
    rows = []
    noise_std = cfg.noise_std_coeff * np.sqrt(cfg.dt)
    for k in range(cfg.steps + 1):
        rho1 = fit(np.vstack([x1, x2]), box_x)
        rho2 = fit(np.vstack([y1, y2]), box_y)
        kl1 = m.kl_estimate(rho1, q_mu)
        kl2 = m.kl_estimate(rho2, q_nu)
        l2_1 = m.l2_error(rho1, q_mu)
        l2_2 = m.l2_error(rho2, q_nu)
        c1, c2 = cost.evaluate(x1, y1), cost.evaluate(x2, y2)
        pair_cost = float((np.sum(c1) + np.sum(c2)) / (len(x1) + len(x2)))
        rows.append((k * cfg.dt, lam, kl1, kl2, pair_cost, l2_1, l2_2))
        if k == cfg.steps:
            break
        rng = np.random.default_rng(step_ss[k])
        g_x = reference_drift(rho1, mu_ref, x2, rng, cfg.kl_variant_x)
        g_y = reference_drift(rho2, nu_ref, y1, rng, cfg.kl_variant_y)
        move_x = cfg.dt * (-cost.grad_x(x2, y2) - lam * g_x)
        move_y = cfg.dt * (-cost.grad_y(x1, y1) - lam * g_y)
        np.clip(move_x, -rho1.bin_widths, rho1.bin_widths, out=move_x)
        np.clip(move_y, -rho2.bin_widths, rho2.bin_widths, out=move_y)
        x2 = x2 + move_x + noise_std * rng.standard_normal(x2.shape)
        y1 = y1 + move_y + noise_std * rng.standard_normal(y1.shape)
        np.clip(x2, box_x.low, box_x.high, out=x2)
        np.clip(y1, box_y.low, box_y.high, out=y1)
        lam = lam + cfg.beta * cfg.dt * (kl1 + kl2)
    return np.array(rows, dtype=float), (x1, y1, x2, y2, lam)
