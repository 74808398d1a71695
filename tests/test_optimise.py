"""The package's Brent solvers against scipy's, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from evtlite.cev import BETA1_MAX, BETA1_MIN, _working_fit
from evtlite.gpd import XI_MAX, XI_MIN, _gp_negloglik, _scale_mle
from evtlite.optimise import minimise_1d, root_1d


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


excesses = st.lists(st.floats(1e-3, 50.0), min_size=2, max_size=60).map(np.array)
shapes = st.floats(XI_MIN, XI_MAX).filter(lambda xi: abs(xi) > 1e-10)


@settings(max_examples=300, deadline=None)
@given(excesses, shapes)
def test_root_1d_equals_brentq_on_the_scale_score(z, xi):
    lo, hi = float(z.min()), float(z.max())
    if lo == hi:
        return
    xz = xi * z

    def score(s):
        return ((s - z) / (s + xz)).sum()

    a = max(lo, -xi * hi * (1.0 + 1e-12))
    root = brentq(score, a, hi)
    assert same_outcome(outcome(root_1d, score, a, hi), root)
    assert same_outcome(_scale_mle(z, xi), root)


FUNCTIONS = [
    lambda x, r, c: (x - r) ** 3 + c * (x - r),
    lambda x, r, c: math.tanh(c * (x - r)),
    lambda x, r, c: math.expm1(x - r) * (1.0 + c),
    lambda x, r, c: math.copysign(1.0 + c, x - r),  # a step: bisection only
    lambda x, r, c: (x - r) * (c + math.sin(7.0 * x) ** 2),
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(FUNCTIONS))), st.floats(-100.0, 100.0), st.floats(1e-3, 10.0),
       st.floats(1e-9, 50.0), st.floats(1e-9, 50.0))
def test_root_1d_equals_brentq_on_random_brackets(k, r, c, left, right):
    def f(x):
        return FUNCTIONS[k](x, r, c)

    a, b = r - left, r + right
    assert same_outcome(outcome(root_1d, f, a, b), outcome(brentq, f, a, b))
    assert same_outcome(outcome(root_1d, f, b, a), outcome(brentq, f, b, a))  # a reversed bracket


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: x - 1.0, 1.0, 2.0, None),  # the root at the left end
    (lambda x: x - 2.0, 1.0, 2.0, None),  # and at the right end
    (lambda x: -0.0 * x, 1.0, 2.0, None),  # a negative zero counts as a root
    (lambda x: x * x + 1.0, -1.0, 2.0, ValueError),  # no sign change
    (lambda x: -x * x - 1.0, -1.0, 2.0, ValueError),
    (lambda x: math.nan, 0.0, 1.0, ValueError),
    (lambda x: x - 0.5 if x < 0.4 or x > 0.6 else math.nan, 0.0, 1.0, ValueError),  # NaN after the first step
    (lambda x: 1.0 if x > 0.5 else -1.0, 0.0, 1e300, RuntimeError),  # out of iterations
])
def test_root_1d_edges_and_errors_match_brentq(f, a, b, error):
    if error is None:
        assert same_outcome(root_1d(f, a, b), brentq(f, a, b))
    else:
        with pytest.raises(error):
            brentq(f, a, b)
        with pytest.raises(error):
            root_1d(f, a, b)


PROFILES = [
    lambda x, m, c: (x - m) ** 2 + c * (x - m) ** 4,
    lambda x, m, c: abs(x - m) + c * x,  # a kink; for c > 1 the minimum is the lower edge
    lambda x, m, c: -x * c,  # monotone: the grid keeps the upper edge
    lambda x, m, c: x * c,  # and here the lower edge
    lambda x, m, c: math.inf if x < m - 0.05 else math.cosh(c * (x - m)),  # +inf on part of the box
    lambda x, m, c: math.cos(c * 10.0 * x) + 0.1 * (x - m) ** 2,  # several local minima
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(PROFILES))), st.floats(-1.5, 2.5), st.floats(1e-3, 3.0),
       st.sampled_from([2, 3, 30, 61]))
def test_minimise_1d_equals_the_scipy_version(k, m, c, n_grid):
    def f(x):
        return PROFILES[k](x, m, c)

    assert same_outcome(outcome(minimise_1d, f, -1.0, 2.0, n_grid), outcome(scipy_minimise_1d, f, -1.0, 2.0, n_grid))


@settings(max_examples=100, deadline=None)
@given(excesses)
def test_minimise_1d_equals_the_scipy_version_on_the_gp_profile(z):
    if np.ptp(z) <= 1e-12 * z.max():
        return

    def profile(xi):
        return _gp_negloglik(z, _scale_mle(z, xi), xi)

    assert same_outcome(minimise_1d(profile, XI_MIN, XI_MAX, 30), scipy_minimise_1d(profile, XI_MIN, XI_MAX, 30))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.floats(-1.0, 0.9))
def test_minimise_1d_equals_the_scipy_version_on_the_conditional_profile(seed, beta0, beta1):
    rng = np.random.default_rng(seed)
    x = 1.5 + rng.exponential(1.0, 200)
    y = beta0 * x + x ** beta1 * rng.normal(0.0, 1.0, x.size)
    log_x = np.log(x)

    def profile(b):
        return _working_fit(b, x, y, log_x)[1]

    assert same_outcome(minimise_1d(profile, BETA1_MIN, BETA1_MAX, 61),
                        scipy_minimise_1d(profile, BETA1_MIN, BETA1_MAX, 61))
