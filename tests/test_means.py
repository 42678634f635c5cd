"""Mean evaluation, derivative identities, axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvkit import (ARITHMETIC, GEOMETRIC, LOGARITHMIC, DomainError,
                     NegativeInput, check_mean_axioms, custom_mean, d1_mean,
                     eval_mean)

POS = st.floats(min_value=1e-6, max_value=1e6)


def test_arithmetic_values():
    assert eval_mean(ARITHMETIC, 3.0, 5.0) == 4.0
    assert d1_mean(ARITHMETIC, 17.0, 0.3) == 0.5
    assert d1_mean(ARITHMETIC, 0.0, 1.0) == 0.5     # closed domain


def test_logarithmic_values():
    # independent high-precision evaluation of (r-s)/(ln r - ln s)
    assert eval_mean(LOGARITHMIC, 1.0, 2.0) == pytest.approx(
        1.4426950408889634, rel=1e-14)
    assert eval_mean(LOGARITHMIC, 2.0, 2.0) == 2.0
    assert eval_mean(LOGARITHMIC, 0.0, 3.0) == 0.0


def test_geometric_values():
    assert eval_mean(GEOMETRIC, 4.0, 9.0) == pytest.approx(6.0, rel=1e-15)
    assert eval_mean(GEOMETRIC, 0.0, 9.0) == 0.0


def test_negative_input_rejected():
    with pytest.raises(NegativeInput):
        eval_mean(LOGARITHMIC, -1.0, 2.0)
    with pytest.raises(NegativeInput):
        d1_mean(ARITHMETIC, 1.0, -2.0)
    # Mean.value, d1 and d11 convert once: a negative entry anywhere is
    # refused, a scalar broadcasts against an array, scalars give a scalar
    geo = custom_mean(lambda r, s: np.sqrt(r * s),
                      lambda r, s: 0.5 * np.sqrt(s / r), "open")
    arr = np.array([[0.5, 2.0, 3.0]])
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC, geo):
        for fn in (mean.value, mean.d1, mean.d11):
            for bad in (-1.0, np.array([1.0, -2.0, 3.0])):
                with pytest.raises(NegativeInput):
                    fn(bad, arr)
                with pytest.raises(NegativeInput):
                    fn(arr, bad)
            assert np.shape(fn(1.5, arr)) == arr.shape
            assert np.shape(fn(arr, 1.5)) == arr.shape
            assert np.isscalar(fn(1.5, 2.0))


def test_open_domain_derivative_guard():
    for mean in (LOGARITHMIC, GEOMETRIC):
        with pytest.raises(DomainError):
            d1_mean(mean, 0.0, 1.0)


def test_diagonal_derivative_half():
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        for r in (1e-5, 0.3, 1.0, 7.0, 1e5):
            assert d1_mean(mean, r, r) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("mean", [LOGARITHMIC, GEOMETRIC])
def test_d1_matches_finite_difference(mean):
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = float(np.exp(rng.uniform(-3, 3)))
        s = float(np.exp(rng.uniform(-3, 3)))
        h = 1e-6 * r
        fd = (eval_mean(mean, r + h, s) - eval_mean(mean, r - h, s)) / (2 * h)
        assert d1_mean(mean, r, s) == pytest.approx(fd, abs=1e-8 * max(1.0, abs(fd)))


def test_log_mean_diagonal_stability():
    # series path: |theta(r, r(1+eps)) - r| <= 1e-12 r down to eps = 1e-14
    for r in (1e-4, 1.0, 3.7, 1e4):
        for eps in (1e-14, 1e-13, 1e-12):
            v = eval_mean(LOGARITHMIC, r, r * (1 + eps))
            assert abs(v - r) <= 1e-12 * r


def test_log_mean_series_seam_continuity():
    # both sides of the series/closed-form switch match a high-precision oracle
    import mpmath as mp
    mp.mp.dps = 40
    r = 1.0
    for s in (1 + 0.9e-6, 1 + 1.1e-6):
        v = eval_mean(LOGARITHMIC, r, s)
        exact = float((mp.mpf(r) - mp.mpf(s)) / (mp.log(mp.mpf(r)) - mp.log(mp.mpf(s))))
        assert v == pytest.approx(exact, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(r=POS, s=POS)
def test_symmetry_and_euler_property(r, s):
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        th = eval_mean(mean, r, s)
        assert th == pytest.approx(eval_mean(mean, s, r), rel=1e-12)
        euler = r * d1_mean(mean, r, s) + s * d1_mean(mean, s, r)
        assert euler == pytest.approx(th, rel=1e-10, abs=1e-10 * max(r, s))


@settings(max_examples=200, deadline=None)
@given(r=POS, s=POS, lam=st.sampled_from([1e-3, 1.0, 1e3]))
def test_homogeneity_property(r, s, lam):
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        assert eval_mean(mean, lam * r, lam * s) == pytest.approx(
            lam * eval_mean(mean, r, s), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(r=POS, s=POS)
def test_mean_ordering_property(r, s):
    g = eval_mean(GEOMETRIC, r, s)
    lo = eval_mean(LOGARITHMIC, r, s)
    a = eval_mean(ARITHMETIC, r, s)
    scale = max(r, s)
    assert min(r, s) <= g + 1e-12 * scale
    assert g <= lo + 1e-12 * scale
    assert lo <= a + 1e-12 * scale
    assert a <= max(r, s) + 1e-12 * scale


def test_axiom_report_builtins():
    rep = check_mean_axioms(ARITHMETIC, 10_000, seed=0)
    assert rep.passes_core(1e-10)
    assert not rep.passes_vanishing()           # theta_a(0, s) = s/2 > 0
    assert rep.domain_class == "closed"

    rep = check_mean_axioms(LOGARITHMIC, 10_000, seed=0)
    assert rep.passes_core(1e-10)
    assert rep.passes_vanishing()
    assert rep.domain_class == "open"
    assert rep.euler_identity <= 1e-10
    assert rep.ordering <= 1e-12

    rep = check_mean_axioms(GEOMETRIC, 10_000, seed=0)
    assert rep.passes_core(1e-10)
    assert rep.passes_vanishing()


def test_custom_mean_checked_statistically():
    # power mean of exponent 2 is a legitimate mean (above the arithmetic one)
    quad = custom_mean(
        lambda r, s: np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2),
        lambda r, s: np.asarray(r, float) / (2 * np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2)),
        domain_class="closed", kind="quadratic")
    rep = check_mean_axioms(quad, 2000, seed=1)
    assert rep.passes_core(1e-9)
    assert not rep.passes_vanishing()


def test_custom_mean_refuses_an_unknown_domain_class():
    with pytest.raises(DomainError, match="^domain_class must be 'open' or 'closed'$"):
        custom_mean(lambda r, s: r, lambda r, s: 1.0, domain_class="half-open")


def _d11_samples(seed: int, count: int = 200):
    """Log-uniform (r, s) pairs; half of them in the near-diagonal band
    |r - s| / max(r, s) in [1e-12, 1e-1]."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), count))
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), count))
    band = np.exp(rng.uniform(np.log(1e-12), np.log(1e-1), count // 2))
    sign = rng.choice([-1.0, 1.0], count // 2)
    s[: count // 2] = r[: count // 2] * (1.0 + sign * band)
    return r, s


def _mp_theta(mean, mp):
    if mean is ARITHMETIC:
        return lambda x, y: (x + y) / 2
    if mean is GEOMETRIC:
        return lambda x, y: mp.sqrt(x * y)
    return lambda x, y: x if x == y else (x - y) / (mp.log(x) - mp.log(y))


@pytest.mark.parametrize("mean", [ARITHMETIC, LOGARITHMIC, GEOMETRIC])
def test_d11_matches_mpmath(mean):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    theta = _mp_theta(mean, mp)
    r, s = _d11_samples(21)
    got = np.asarray(mean.d11(r, s))
    for ri, si, gi in zip(r, s, got):
        exact = mp.diff(lambda x: theta(x, mp.mpf(si)), mp.mpf(ri), 2)
        scale = abs(exact) if exact != 0 else 1.0 / ri
        assert abs(gi - float(exact)) <= 1e-9 * float(scale)


def test_d11_log_band_seam():
    # the Taylor band (|u| <= 1e-2) and the closed form both match mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    theta = _mp_theta(LOGARITHMIC, mp)
    r = 1.0
    for u in (0.99e-2, 1.01e-2, -0.99e-2, -1.01e-2):
        s = r * (1 + u) / (1 - u)
        exact = float(mp.diff(lambda x: theta(x, mp.mpf(s)), mp.mpf(r), 2))
        assert float(LOGARITHMIC.d11(r, s)) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("mean", [ARITHMETIC, LOGARITHMIC, GEOMETRIC])
def test_d11_homogeneity_identity(mean):
    # d1 is 0-homogeneous, so r d11 + s d12 = 0, with d12 from mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    theta = _mp_theta(mean, mp)
    r, s = _d11_samples(22, count=60)
    d11 = np.asarray(mean.d11(r, s))
    for ri, si, di in zip(r, s, d11):
        d12 = float(mp.diff(theta, (mp.mpf(ri), mp.mpf(si)), (1, 1)))
        scale = abs(ri * di) + abs(si * d12)
        assert abs(ri * di + si * d12) <= 1e-9 * max(scale, 1e-300)


def test_d11_diagonal_and_zero_limits():
    for r in (1e-4, 1.0, 7.0):
        assert float(LOGARITHMIC.d11(r, r)) == pytest.approx(-1 / (6 * r), rel=1e-14)
        assert float(GEOMETRIC.d11(r, r)) == pytest.approx(-1 / (4 * r), rel=1e-14)
        assert float(LOGARITHMIC.d11(r, 0.0)) == 0.0
    assert float(ARITHMETIC.d11(0.0, 3.0)) == 0.0
    for mean in (LOGARITHMIC, GEOMETRIC):
        with pytest.raises(DomainError):
            mean.d11(0.0, 1.0)
    with pytest.raises(NegativeInput):
        LOGARITHMIC.d11(1.0, -1.0)


def test_custom_mean_d11_is_central_difference():
    quad = custom_mean(
        lambda r, s: np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2),
        lambda r, s: np.asarray(r, float) / (2 * np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2)),
        domain_class="closed", kind="quadratic")
    r = np.array([0.3, 1.0, 4.0, 0.0])
    s = np.array([2.0, 1.0, 0.5, 1.0])
    q = np.sqrt((r ** 2 + s ** 2) / 2)
    exact = s ** 2 / (4 * q ** 3)          # d/dr of r / (2 q)
    assert np.asarray(quad.d11(r, s)) == pytest.approx(exact, rel=1e-8)
