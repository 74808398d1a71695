"""The package's solvers against scipy's: the lockstep bounded Brent bit for bit, and the
batched GP scale roots within brentq's tolerance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from evtlite.cev import BETA1_MAX, BETA1_MIN, _working_fit
from evtlite.gpd import XI_MAX, XI_MIN, _Profile
from evtlite.optimise import minimise_1d


def scipy_minimise_1d(f, lo, hi, n_grid):
    """minimise_1d as it was written on scipy's bounded minimize_scalar."""
    grid = np.linspace(lo, hi, n_grid)
    values = np.array([f(x) for x in grid])
    i = int(np.argmin(values))
    if not np.isfinite(values[i]):
        raise RuntimeError("the profile likelihood is not finite anywhere on its search grid")
    with np.errstate(invalid="ignore"):  # inf - inf in a parabola through +inf points
        res = minimize_scalar(f, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]),
                              method="bounded", options={"xatol": 1e-10})
    if res.fun < values[i]:
        return float(res.x), float(res.fun)
    return float(grid[i]), float(values[i])


def outcome(solver, *args):
    """A solver's value, or the type of the error it raised."""
    try:
        return solver(*args)
    except (ValueError, RuntimeError) as err:
        return type(err)


def same_outcome(a, b):
    """Equal values bit for bit, or the same error type."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array(a, dtype=np.float64).tobytes() == np.array(b, dtype=np.float64).tobytes()


def columns(*fs):
    """The (r, k) array function of minimise_1d whose column j applies the scalar fs[j] to each point."""
    return lambda b: np.array([[f(v) for f, v in zip(fs, row)] for row in b.tolist()])


def minimise_one(f, lo, hi, n_grid):
    """minimise_1d on the one scalar function f, as (x, f(x))."""
    x, fx = minimise_1d(columns(f), lo, hi, n_grid)
    return x[0], fx[0]


def gp_profile(z):
    """The GP profile of one excess sample as a scalar function of its shape."""
    negloglik = _Profile([z], shared=True).negloglik
    return lambda xi: negloglik(np.array([[xi]]))[0, 0]


PROFILES = [
    lambda x, m, c: (x - m) ** 2 + c * (x - m) ** 4,
    lambda x, m, c: abs(x - m) + c * x,  # a kink; for c > 1 the minimum is the lower edge
    lambda x, m, c: -x * c,  # monotone: the grid keeps the upper edge
    lambda x, m, c: x * c,  # and here the lower edge
    lambda x, m, c: math.inf if x < m - 0.05 else math.cosh(c * (x - m)),  # +inf on part of the box, or all of it
    lambda x, m, c: math.cos(c * 10.0 * x) + 0.1 * (x - m) ** 2,  # several local minima
]
problems = st.tuples(st.sampled_from(range(len(PROFILES))), st.floats(-1.5, 2.5), st.floats(1e-3, 3.0))


def profile(k, m, c):
    return lambda x: PROFILES[k](x, m, c)


@settings(max_examples=300, deadline=None)
@given(problems, st.sampled_from([2, 3, 30, 61]))
def test_minimise_1d_equals_the_scipy_version(problem, n_grid):
    f = profile(*problem)
    assert same_outcome(outcome(minimise_one, f, -1.0, 2.0, n_grid), outcome(scipy_minimise_1d, f, -1.0, 2.0, n_grid))


@settings(max_examples=200, deadline=None)
@given(st.lists(problems, min_size=1, max_size=8), st.sampled_from([2, 3, 30, 61]))
@example([(4, 0.5, 1.0), (0, 0.3, 2.0), (5, 1.0, 0.7)], 30)  # +inf on part of a box
@example([(0, 0.3, 2.0), (4, 2.4, 1.0)], 30)  # +inf on all of a box
def test_lockstep_problems_equal_one_problem_runs(batch, n_grid):
    fs = [profile(*problem) for problem in batch]
    alone = [outcome(minimise_one, f, -1.0, 2.0, n_grid) for f in fs]
    together = outcome(minimise_1d, columns(*fs), -1.0, 2.0, n_grid, len(fs))
    if any(result is RuntimeError for result in alone):  # a grid with no finite value refuses the batch
        assert together is RuntimeError
    else:
        assert same_outcome(together, np.array(alone).T)


excesses = st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=60).map(np.array)
shapes = st.one_of(st.sampled_from([XI_MIN, XI_MAX, 0.0, 1e-11, -1e-11]), st.floats(XI_MIN, XI_MAX))


@settings(max_examples=100, deadline=None)
@given(excesses.filter(lambda z: np.ptp(z) > 1e-12 * z.max()))
def test_minimise_1d_equals_the_scipy_version_on_the_gp_profile(z):
    f = gp_profile(z)
    assert same_outcome(minimise_one(f, XI_MIN, XI_MAX, 30), scipy_minimise_1d(f, XI_MIN, XI_MAX, 30))


@settings(max_examples=300, deadline=None)
@given(st.lists(excesses, min_size=1, max_size=4), shapes)
def test_gp_scales_solve_the_score_equation_as_brentq_does(groups, xi):
    scales = _Profile(groups, shared=True).scales(np.array([[xi]]))[0]
    for z, s in zip(groups, scales):
        lo, hi = float(z.min()), float(z.max())
        if lo == hi:  # one value, or equal values: the score vanishes at it
            assert s == lo
            continue
        xz = xi * z
        root = brentq(lambda s: ((s - z) / (s + xz)).sum(), max(lo, -xi * hi * (1.0 + 1e-12)), hi)
        assert abs(s - root) <= 2e-12 + 4 * np.finfo(float).eps * abs(root)


@pytest.mark.parametrize("shared", [True, False])
def test_gp_profile_rows_are_independent_of_their_batch(shared):
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 600, 12)  # 12 groups of 1-600: the 30-row grid spans several slabs
    groups = [rng.pareto(4.0, n) + 1e-3 for n in sizes]
    profile = _Profile(groups, shared)
    k = 1 if shared else 12
    grid = np.column_stack([rng.permutation(np.linspace(XI_MIN, XI_MAX, 30)) for _ in range(k)])
    rows = np.concatenate([profile.negloglik(grid[i:i + 1]) for i in range(30)])
    assert profile.negloglik(grid).tobytes() == rows.tobytes()
    rows = np.concatenate([profile.scales(grid[i:i + 1]) for i in range(30)])
    assert profile.scales(grid).tobytes() == rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.floats(-1.0, 0.9))
def test_minimise_1d_equals_the_scipy_version_on_the_conditional_profile(seed, beta0, beta1):
    rng = np.random.default_rng(seed)
    x = 1.5 + rng.exponential(1.0, 200)
    y = beta0 * x + x ** beta1 * rng.normal(0.0, 1.0, x.size)
    log_x = np.log(x)

    def profile(b):
        return _working_fit(b, x, y, log_x)[1]

    assert same_outcome(minimise_one(profile, BETA1_MIN, BETA1_MAX, 61),
                        scipy_minimise_1d(profile, BETA1_MIN, BETA1_MAX, 61))
