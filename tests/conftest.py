"""Shared builders and independent reference implementations for the tests."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

import evtlite as ev
from evtlite.cev import CELL_WIDTH, CHAIN_STEPS, PROB_CLIP, Y_MAX, residual_law
from evtlite.decluster import ClusterSet
from evtlite.threshold import pinball


def series_of(values, k, run_id=1):
    """The summary series that fit reads from a run with these (n_days, n_sites)
    values: the run written by save_run, then reduced by read_series."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        ev.save_run(values, path)
        return ev.read_series(path, k, run_id=run_id)


def oracle_decluster(values, u, l):
    """Independent declustering reference: label segments split by maximal
    windows of at least l consecutive sub-threshold days, then group
    exceedances by segment. Returns a list of 1-based day-index lists."""
    values = np.asarray(values, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), values.shape)
    n = values.size
    segment = 0
    run_below = 0
    labels = np.empty(n, dtype=int)
    for i in range(n):
        if values[i] > u[i]:
            run_below = 0
        else:
            run_below += 1
            if run_below == l:
                segment += 1
        labels[i] = segment
    clusters = {}
    for i in range(n):
        if values[i] > u[i]:
            clusters.setdefault(labels[i], []).append(i + 1)
    return [clusters[key] for key in sorted(clusters)]


def ald_negloglik(params, series, tau):
    """Negative log-likelihood of the month-indexed asymmetric Laplace model, summed
    day by day. params holds the 12 locations, then the 12 log-scales; non-finite
    parameters or a scale that underflows to 0 read +inf."""
    params = np.asarray(params, dtype=np.float64)
    u, log_zeta = params[:12], params[12:]
    zeta = np.exp(log_zeta)
    if not np.all(np.isfinite(params)) or np.any(zeta == 0.0):
        return float("inf")
    idx = series.months - 1
    t = (series.values - u[idx]) / zeta[idx]
    return float(np.sum(log_zeta[idx] - np.log(tau * (1.0 - tau)) + pinball(t, tau)))


def constant_threshold_model(u, tau=0.95):
    return ev.ThresholdModel(
        tau=tau,
        u_by_month=np.full(12, float(u)),
        log_zeta_by_month=np.zeros(12),
        loglik=0.0,
    )


def make_cluster_set(maxima, maxima_months, n_days=10_000, n_exceedances=None,
                     run_length_l=3):
    """Hand-set cluster set: cluster i starts on day i + 1 and has its maximum
    there; the last cluster also holds any exceedances beyond one per cluster."""
    maxima = np.asarray(maxima, dtype=float)
    n = maxima.size
    n_exc = n if n_exceedances is None else n_exceedances
    return ClusterSet(
        run_length_l=run_length_l,
        exceedance_days=np.arange(1, n_exc + 1, dtype=np.int64),
        cluster_starts=np.arange(n, dtype=np.int64),
        maxima=maxima, maxima_days=np.arange(1, n + 1, dtype=np.int64),
        maxima_months=np.asarray(maxima_months, dtype=np.int64),
        theta_hat=(n / n_exc) if n_exc else None,
        pi_star_hat=n / n_days,
    )


def make_marginal_emulator(n_days=1000, u=1.0, sigma=1.0, xi=0.0, n_clusters=50,
                           pi_mixed=0.05, run_id=1, question="q1"):
    """Emulator with hand-set parameters, no fitting involved."""
    months = ev.Calendar().months_for(n_days)
    tm = constant_threshold_model(u)
    gp = ev.GPModel(
        log_sigma_by_month=np.full(12, np.log(sigma)), shape_mode="constant",
        xi_by_month=np.full(12, float(xi)), threshold_model=tm, loglik=0.0,
    )
    n_cl = min(n_clusters, n_days)
    cs = make_cluster_set(
        maxima=u + 0.5 + np.linspace(0.0, 1.0, n_cl),
        maxima_months=months[:n_cl].copy(),
        n_days=n_days,
    )
    series = ev.SummarySeries(run_id, 1, np.linspace(0.0, u, n_days), months)
    mixed = ev.build_mixed(series, gp, pi=pi_mixed)
    return ev.RunEmulator(
        run_id=run_id, question=question, order_k=1, months=months, series_values=series.values,
        threshold_model=tm, gp_model=gp, mixed=mixed, cluster_set=cs,
    )


def daily_marginal_count(emulator, pi_hat, target, rng, n_days=None):
    """Day-by-day reference for one synthetic run's exceedance count.

    Each simulated day hosts a threshold exceedance with probability
    pi_hat; each exceedance gets a GP excess by inversion in its month and
    counts when threshold plus excess passes the target.
    """
    months = emulator.months[:n_days]
    idx = months[rng.random(months.size) < pi_hat] - 1
    excess = ev.gp_quantile(rng.random(idx.size), emulator.gp_model.sigma_by_month[idx],
                            emulator.gp_model.xi_by_month[idx])
    return int(np.sum(emulator.threshold_model.u_by_month[idx] + excess > target))


def _nelder_mead(f, starts):
    """Smallest value of f found by Nelder-Mead from each finite start,
    restarted from its own solution until a restart gains less than 1e-12."""
    options = {"maxiter": 40_000, "maxfev": 40_000, "xatol": 1e-10, "fatol": 1e-12}
    best = np.inf
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        if not np.isfinite(f(x0)):
            continue
        res = minimize(f, x0, method="Nelder-Mead", options=options)
        for _ in range(20):
            again = minimize(f, res.x, method="Nelder-Mead", options=options)
            if again.fun > res.fun - 1e-12:
                break
            res = again
        best = min(best, float(res.fun))
    return best


def gp_group_negloglik(groups, log_sigma, xi):
    """GP negative log-likelihood of excess samples, one scale each and a shared shape."""
    z = np.concatenate(groups)
    ls = np.repeat(np.asarray(log_sigma, dtype=float), [g.size for g in groups])
    if abs(xi) < 1e-10:
        return float(np.sum(ls + z / np.exp(ls)))
    t = 1.0 + xi * z / np.exp(ls)
    if np.any(t <= 0.0):
        return np.inf
    return float(np.sum(ls) + (1.0 + 1.0 / xi) * np.sum(np.log(t)))


def oracle_gp_negloglik(groups):
    """Multi-start Nelder-Mead minimum of gp_group_negloglik over the log-scales
    and the shared shape in [-0.9, 2.0]; starts at three shapes with the
    scales that match each group's mean."""
    def f(p):
        if not np.all(np.isfinite(p)) or not -0.9 <= p[-1] <= 2.0:
            return np.inf
        return gp_group_negloglik(groups, p[:-1], p[-1])

    means = np.array([z.mean() for z in groups])
    maxima = np.array([z.max() for z in groups])
    starts = []
    for xi0 in (0.0, 0.5, -0.3):
        sigma0 = np.maximum(means * (1.0 - xi0), -xi0 * maxima * 1.05)
        starts.append(np.append(np.log(sigma0), xi0))
    return _nelder_mead(f, starts)


def working_negloglik(params, x, y):
    """Gaussian working negative log-likelihood of the conditional model,
    params = (beta0, beta1, mu, log sigma), +inf outside the parameter box."""
    b0, b1, mu, log_s = params
    if not np.all(np.isfinite(params)) or not (0.0 <= b0 <= 1.0 and -5.0 <= b1 <= 1.0 - 1e-6):
        return np.inf
    t = x ** b1
    sd = np.exp(log_s) * t
    r = (y - b0 * x - mu * t) / sd
    return float(np.sum(np.log(sd) + 0.5 * r * r) + 0.5 * x.size * np.log(2.0 * np.pi))


def oracle_working_negloglik(x, y, seed=424242):
    """Multi-start Nelder-Mead minimum of working_negloglik: four fixed
    starts around the least-squares slope and five random ones."""
    slope = float(np.clip(np.sum(x * y) / np.sum(x * x), 0.01, 0.99))
    resid = y - slope * x
    mu0, ls0 = float(np.mean(resid)), float(np.log(max(np.std(resid), 1e-8)))
    starts = [(slope, 0.2, mu0, ls0), (0.9, 0.0, mu0, ls0), (0.1, 0.8, mu0, ls0),
              (0.5, -0.5, mu0, ls0)]
    rng = np.random.default_rng(seed)
    for _ in range(5):
        starts.append((rng.uniform(0.05, 0.95), rng.uniform(-1.0, 0.9),
                       mu0 + rng.standard_normal(), ls0 + 0.5 * rng.standard_normal()))
    return _nelder_mead(lambda p: working_negloglik(p, x, y), starts)


# ---------------------------------------------------------------- chain oracle
# The persistence question's chains, drawn one by one: the sampler the library
# replaced by a quadrature (evtlite.cev.hit_probability), kept as its oracle.

@dataclass(frozen=True)
class StackedCEV:
    """Conditional tail models side by side: model j has parameters beta0[j], ...,
    kde_bandwidth[j] and residual pool residuals[offsets[j]:offsets[j] + sizes[j]]."""

    beta0: np.ndarray
    beta1: np.ndarray
    q_threshold: np.ndarray
    kde_bandwidth: np.ndarray
    residuals: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray


def stack_cev(models) -> StackedCEV:
    sizes = np.array([m.residuals.size for m in models], dtype=np.int64)
    return StackedCEV(
        *(np.array([getattr(m, f) for m in models], dtype=np.float64)
          for f in ("beta0", "beta1", "q_threshold", "kde_bandwidth")),
        residuals=np.concatenate([m.residuals for m in models]),
        offsets=np.cumsum(sizes) - sizes, sizes=sizes,
    )


def sample_residuals(models: StackedCEV, j, rng):
    """One draw from the kernel-smoothed residual distribution of model j[i], for each i."""
    pick = models.offsets[j] + (rng.random(j.size) * models.sizes[j]).astype(np.int64)
    return models.residuals[pick] + models.kde_bandwidth[j] * rng.standard_normal(j.size)


def count_chains(models: StackedCEV, j, y0, target, rng, steps=30):
    """Whether each chain exceeds its target on two consecutive steps (step 0 included).

    Chain i follows model j[i] from y0[i] by Y_{k+1} = beta0 Y_k + Y_k**beta1 Z.
    A chain starting at or below its conditioning threshold never counts. A
    chain ends at a non-positive or non-finite value, which is still compared
    with the target (the power term is undefined there). A step whose exact
    value is positive (beta0 Y > 0 or Z > 0, and Z >= 0) but rounds to 0
    continues at the smallest positive double instead of ending the chain.
    """
    tiny = np.nextafter(0.0, 1.0)
    counted = np.zeros(y0.size, dtype=bool)
    live = np.flatnonzero((y0 > models.q_threshold[j]) & (y0 > 0.0))
    y, j, t = y0[live], j[live], target[live]
    prev = y > t
    for _ in range(steps):
        if live.size == 0:
            break
        z = sample_residuals(models, j, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            y = models.beta0[j] * y + y ** models.beta1[j] * z
        y[(y == 0.0) & (z >= 0.0) & ((models.beta0[j] > 0.0) | (z > 0.0))] = tiny
        cur = y > t  # NaN compares False
        hit = prev & cur
        counted[live[hit]] = True
        keep = np.flatnonzero(~hit & (y > 0.0) & np.isfinite(y))
        live, y, j, t, prev = live[keep], y[keep], j[keep], t[keep], cur[keep]
    return counted


def chain_starts(v, pi):
    """Laplace-scale image of the chain start x0 = u + gp_quantile(v): x0 lies in the
    tail branch 1 - pi (1 - H) of the mixed distribution and H(x0 - u) = v."""
    return ev.laplace_quantile(np.clip(1.0 - pi * (1.0 - v), PROB_CLIP, 1.0 - PROB_CLIP))


def oracle_hit_fraction(model, pi, target, n, seed=0):
    """Fraction of n chains of one model, started by chain_starts, that count."""
    rng = np.random.default_rng(seed)
    y0 = chain_starts(rng.random(n), pi)
    return float(np.mean(count_chains(stack_cev([model]), np.zeros(n, dtype=np.int64), y0,
                                      np.full(n, float(target)), rng)))


# ------------------------------------------------------------ dense quadrature
# The chain quadrature as it was before it skipped the kernel's blocks that are
# always zero or always discarded: every step multiplies all mass rows, above and
# not above each target, by the full (cells, cells) kernel. Kept as the oracle of
# evtlite.cev.hit_probability's block products.

def dense_hit_probability(model, start_floor, targets, width=CELL_WIDTH):
    """(P, lost) of hit_probability, from one product of 2n mass rows and the dense kernel per step."""
    targets = np.asarray(targets, dtype=np.float64)
    n, (cdf, excess), b0, b1 = targets.size, residual_law(model), model.beta0, model.beta1
    cuts = [v for v in (model.q_threshold, start_floor, *targets) if 0.0 < v < Y_MAX]
    if model.kde_bandwidth == 0.0:
        cuts += list(width * 0.5 ** np.arange(1, 41))
    edges = np.unique(np.concatenate([np.linspace(0.0, Y_MAX, int(round(Y_MAX / width)) + 1), cuts]))
    points, cells = np.concatenate([edges, targets]), edges.size - 1

    def arg(y, c):
        return np.subtract.outer(c, b0 * y).T * np.minimum(y ** -b1, np.finfo(np.float64).max)[:, None]

    def exceed(first, last, c):
        lower, upper = edges[first:last], edges[first + 1:last + 1]
        mid = 0.5 * (lower + upper)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            up = 1.0 - cdf(arg(mid, c))
            narrow = np.flatnonzero(~(model.kde_bandwidth * mid ** b1 >= width) & (lower > 0.0))
            zl, zu = arg(lower[narrow], c), arg(upper[narrow], c)
            mean = (excess(zl) - excess(zu)) / (zu - zl)
        up[narrow] = np.where((np.abs(zu - zl) > 1e-6 * (1.0 + np.abs(zu))) & np.isfinite(mean), mean, up[narrow])
        return up

    top = min(int(np.searchsorted(edges, targets.max())), cells)
    up, cols = np.zeros((cells, points.size)), np.r_[:top + 1, cells + 1:points.size]
    up[:top], up[top:, cols] = exceed(0, top, points), exceed(top, cells, points[cols])
    overflow, counts, kernel = up[:, cells].copy(), up[:, cells + 1:].T.copy(), up[:, :cells] - up[:, 1:cells + 1]
    surv = np.exp(np.minimum(0.0, start_floor - edges))
    above = edges[:-1] >= targets[:, None]
    split = np.vstack([above, ~above])  # mass rows: above each target, then not above it
    mass = np.where(split, np.where(edges[:-1] >= model.q_threshold, surv[:-1] - surv[1:], 0.0), 0.0)
    p, lost = np.zeros(n), np.full(n, surv[-1])
    for _ in range(CHAIN_STEPS):
        p += np.einsum("mj,mj->m", mass[:n], counts)
        lost += mass[n:] @ overflow
        moved = mass @ kernel
        mass = np.where(split, np.tile(np.where(above, 0.0, moved[:n]) + moved[n:], (2, 1)), 0.0)
    return p, lost
