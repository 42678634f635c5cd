"""Heat semigroup: spectra, kernels, mixing time, inequality verifiers."""

import math

import numpy as np
import pytest

from curvkit import (DomainError, EpsTooLarge, HeatSystem, InvalidParameters,
                     NegativeTime, NumericalFailure, PreconditionHeuristic,
                     ShapeMismatch, avg_mixing_time, check_heat_kernel_bound,
                     check_linf_gradient_bound, complete, custom_mean, cycle,
                     equilibrium,
                     func_inner, heat_apply, heat_kernel, heat_operator,
                     hypercube,
                     l1_distance_from_equilibrium, path, sharpness_probe,
                     spectral_decompose, verify_gradient_estimate,
                     verify_reverse_poincare)
from curvkit.heat import (_grad_coeff, _rp_coeff1, _rp_coeff2,
                          gradient_estimate_residual,
                          reverse_poincare_residual)

from conftest import positive_density, random_reversible_chain

INF = np.inf


# -- spectral decomposition ---------------------------------------------------

def test_two_state_spectrum(two_state):
    sys = spectral_decompose(two_state)
    assert sys.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


def test_hypercube_spectrum_tensor_oracle():
    for n_dim in (1, 2, 3, 4):
        sys = spectral_decompose(hypercube(n_dim))
        expected = sorted(2 * k / n_dim for k in range(n_dim + 1)
                          for _ in range(math.comb(n_dim, k)))
        assert sys.eigenvalues == pytest.approx(expected, abs=1e-10)


def test_cycle_spectrum_circulant_oracle():
    for n in (5, 8):
        sys = spectral_decompose(cycle(n))
        expected = sorted(1 - math.cos(2 * math.pi * k / n) for k in range(n))
        assert sys.eigenvalues == pytest.approx(expected, abs=1e-10)


def test_eigenbasis_orthonormal_and_eigen():
    for ch in (cycle(6), random_reversible_chain(7, 3)):
        sys = spectral_decompose(ch)
        phi = sys.basis
        gram = phi.T @ (phi * ch.pi[:, None])
        assert gram == pytest.approx(np.eye(ch.n_states), abs=1e-10)
        from curvkit import laplacian
        for k in range(ch.n_states):
            lhs = -laplacian(ch, phi[:, k])
            assert lhs == pytest.approx(sys.eigenvalues[k] * phi[:, k], abs=1e-10)
        assert phi[:, 0] == pytest.approx(np.full(ch.n_states, phi[0, 0]), abs=1e-10)
        assert phi[0, 0] > 0


# -- semigroup ---------------------------------------------------------------

def test_time_zero_is_identity(hyp3):
    f = np.random.default_rng(0).standard_normal(8)
    assert heat_apply(hyp3, 0.0, f) == pytest.approx(f, abs=1e-12)


def test_heat_apply_takes_one_function(hyp2):
    # an n x n matrix would broadcast pi along its rows without error
    f = np.zeros((3, 3))
    f[:, 0] = 1.0
    with pytest.raises(ShapeMismatch):
        heat_apply(path(3), 1.0, f)
    with pytest.raises(ShapeMismatch):
        heat_apply(path(3), 1.0, f[:, :2])
    with pytest.raises(ShapeMismatch):
        heat_apply(hyp2, 1.0, np.ones(3))
    assert heat_apply(path(3), 1.0, np.ones(3)) == pytest.approx(np.ones(3),
                                                                 abs=1e-12)


def test_negative_time_rejected(hyp2):
    with pytest.raises(NegativeTime):
        heat_apply(hyp2, -0.1, np.zeros(4))
    with pytest.raises(NegativeTime):
        heat_kernel(hyp2, -1.0)
    with pytest.raises(NegativeTime):
        heat_operator(hyp2, -0.5)
    with pytest.raises(NegativeTime):
        l1_distance_from_equilibrium(hyp2, -2.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_time_rejected(hyp2, t):
    # exp(-0 * inf) is nan on the constant mode, and nan passes `t < 0`
    with pytest.raises(InvalidParameters, match="finite t"):
        heat_kernel(hyp2, t)
    with pytest.raises(InvalidParameters):
        heat_apply(hyp2, t, np.zeros(4))
    with pytest.raises(InvalidParameters):
        check_heat_kernel_bound(hyp2, (0.1, t))


def test_semigroup_takes_the_chain_not_its_spectrum():
    # spectral data is memoized on the chain, so no public function takes it
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import curvkit

    modules = [curvkit] + [importlib.import_module(f"curvkit.{m.name}")
                           for m in pkgutil.iter_modules(curvkit.__path__)]
    for mod in modules:
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            for param in inspect.signature(fn).parameters.values():
                assert "HeatSystem" not in str(param.annotation), \
                    f"{mod.__name__}.{name}({param.name})"
    assert [f.name for f in dataclasses.fields(HeatSystem)] == ["eigenvalues",
                                                                 "basis"]


def test_two_state_kernel_closed_form(two_state):
    for t in (0.05, 0.3, 1.0, 4.0):
        p = heat_kernel(two_state, t)
        assert p[0, 1] == pytest.approx(1 - math.exp(-2 * t), abs=1e-12)
        assert p[0, 0] == pytest.approx(1 + math.exp(-2 * t), abs=1e-12)


def test_semigroup_property():
    ch = random_reversible_chain(6, 9)
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.standard_normal(6)
        s, t = rng.uniform(0.01, 3.0, 2)
        lhs = heat_apply(ch, s, heat_apply(ch, t, f))
        assert lhs == pytest.approx(heat_apply(ch, s + t, f), abs=1e-11)


def test_kernel_stochastic_symmetric_positive():
    ch = random_reversible_chain(7, 10)
    for t in (0.1, 1.0, 5.0):
        p = heat_kernel(ch, t)
        assert p @ ch.pi == pytest.approx(np.ones(7), abs=1e-12)
        assert p == pytest.approx(p.T, abs=1e-11)
        assert p.min() >= -1e-12
        # matrix detailed balance of the operator P_t
        pt = heat_operator(ch, t)
        assert pt * ch.pi[:, None] == pytest.approx(pt.T * ch.pi[None, :],
                                                    abs=1e-12)


def test_zero_mode_never_grows_at_large_time():
    # eigh may return the zero mode as a tiny negative eigenvalue; its
    # damping is clamped at 1, so the kernel tends to 1, not past it
    ch = cycle(6)
    for t in (1e17, 1e300):
        assert heat_kernel(ch, t) == pytest.approx(np.ones((6, 6)), abs=1e-12)
        assert heat_apply(ch, t, np.arange(6.0)) == pytest.approx(
            np.full(6, 2.5), abs=1e-12)


def test_semigroup_preserves_density_mass():
    ch = cycle(6)
    rho = positive_density(ch, 4)
    for t in (0.2, 2.0):
        rho_t = heat_apply(ch, t, rho)
        assert func_inner(ch, rho_t, np.ones(6)) == pytest.approx(1.0, abs=1e-12)
        assert rho_t.min() > 0


# -- mixing time --------------------------------------------------------------

def test_l1_distance_is_the_kernel_sum_and_finite_at_a_subnormal_pi():
    # the distance read from the orthonormal eigenvectors agrees with the
    # sum over p_t to rounding; at pi_c of about 5e-310, where p_t(c, c)
    # overflows, it stays finite and the chain mixes at ln 2
    from curvkit import chain_from_edgelist, generate
    for spec in ("hypercube:3", "cycle:7", "random-regular:3:10:1"):
        ch = generate(spec, seed=0)
        for t in (0.0, 0.1, 1.0, 5.0):
            p, pi = heat_kernel(ch, t), ch.pi
            kernel_sum = float(np.sum(np.abs(p - 1.0) * pi[:, None] * pi[None, :]))
            assert l1_distance_from_equilibrium(ch, t) == pytest.approx(kernel_sum, abs=1e-15)
    over = chain_from_edgelist("a\tb\t1\nb\tc\t1e-309\n")
    assert l1_distance_from_equilibrium(over, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert avg_mixing_time(over, 0.25) == pytest.approx(math.log(2.0), abs=1e-9)


def test_two_state_mixing_closed_form(two_state):
    # distance from equilibrium is exactly exp(-2t)
    for t in (0.1, 0.7):
        assert l1_distance_from_equilibrium(two_state, t) == pytest.approx(
            math.exp(-2 * t), abs=1e-12)
    tau = avg_mixing_time(two_state, 0.25)
    assert tau == pytest.approx(math.log(4) / 2, abs=1e-9)


def test_mixing_monotone_in_eps(hyp3):
    assert avg_mixing_time(hyp3, 1 / 8) >= avg_mixing_time(hyp3, 1 / 4)


def test_mixing_grid_scan_cross_check(hyp3):
    tau = avg_mixing_time(hyp3, 0.25)
    # zooming grid scan as an independent root locator
    lo, hi = 0.0, 2 * tau + 1.0
    for _ in range(8):
        grid = np.linspace(lo, hi, 100)
        vals = np.array([l1_distance_from_equilibrium(hyp3, t) for t in grid])
        idx = int(np.argmax(vals <= 0.25))
        lo, hi = grid[idx - 1], grid[idx]
    assert tau == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_mixing_eps_too_large(two_state):
    with pytest.raises(EpsTooLarge):
        avg_mixing_time(two_state, 1.5)       # distance at 0 is 1 <= 1.5


@pytest.mark.parametrize("eps", [0.0, -0.25, math.nan])
def test_mixing_eps_not_positive(two_state, eps):
    # every `> nan` test is false, so a nan threshold would bisect down to 0
    with pytest.raises(EpsTooLarge, match="eps must be positive"):
        avg_mixing_time(two_state, eps)


def test_mixing_non_monotone_trace_is_numerical_failure(two_state, monkeypatch):
    import curvkit.heat as heat_mod

    monkeypatch.setattr(heat_mod, "l1_distance_from_equilibrium",
                        lambda ch, t: np.exp(-t) + (0.5 if 2 <= t < 4 else 0.0))
    with pytest.raises(NumericalFailure, match="not monotone"):
        avg_mixing_time(two_state, 0.25)


def test_mixing_time_past_float_resolution_of_the_bisection(monkeypatch):
    # tau ~ 1.4e6 > 2^19, where adjacent floats are more than 1e-10 apart
    import curvkit.heat as heat_mod
    from curvkit import chain_from_edgelist

    ch = chain_from_edgelist("a\tb\t1\nb\tc\t1e-6\nc\td\t1\n")
    real = heat_mod.l1_distance_from_equilibrium
    calls = []

    def bounded(chain, t):
        calls.append(t)
        if len(calls) > 500:
            raise AssertionError("bisection does not terminate")
        return real(chain, t)

    monkeypatch.setattr(heat_mod, "l1_distance_from_equilibrium", bounded)
    tau = avg_mixing_time(ch, 0.25)
    assert tau > 2.0 ** 19
    assert real(ch, tau) <= 0.25 < real(ch, np.nextafter(tau, 0.0))


def test_l1_contraction(hyp2):
    ts = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
    vals = [l1_distance_from_equilibrium(hyp2, t) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# -- gradient estimate --------------------------------------------------------

def test_grad_coeff_limits():
    assert _grad_coeff(0.0, 5.0, 1.3) == pytest.approx(2 * 1.3 / 5)
    assert _grad_coeff(1e-12, 5.0, 1.3) == pytest.approx(2 * 1.3 / 5, rel=1e-9)
    assert _grad_coeff(2.0, INF, 1.3) == 0.0
    assert _grad_coeff(1.0, 2.0, 1.0) == pytest.approx(
        (1 - math.exp(-2.0)) / 2.0, rel=1e-14)


def test_gradient_estimate_holds_at_valid_curvature():
    # arithmetic-mean exact curvature from the solver
    from curvkit import bakry_emery_global
    for ch in (cycle(5), hypercube(2), path(4)):
        k, _ = bakry_emery_global(ch, INF)
        rep = verify_gradient_estimate(ch, "arithmetic", k - 1e-8, INF,
                                       trials=40, seed=2)
        assert rep.violations == 0
        assert rep.worst_residual >= -1e-9


def test_gradient_estimate_t_zero_trivial(hyp2):
    rho = positive_density(hyp2, 1)
    f = np.random.default_rng(2).standard_normal(4)
    rho_0 = heat_apply(hyp2, 0.0, rho)
    from curvkit import a_form
    lhs = a_form(hyp2, "logarithmic", rho_0, f) - a_form(hyp2, "logarithmic", rho, f)
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_gradient_estimate_finite_dimension():
    ch = hypercube(2)
    from curvkit import bakry_emery_global
    dim = 8.0
    k, _ = bakry_emery_global(ch, dim)
    assert k > 0
    rep = verify_gradient_estimate(ch, "arithmetic", k - 1e-8, dim,
                                   trials=30, seed=5)
    assert rep.violations == 0


def test_gradient_estimate_counts_violations_above_true_curvature(hyp2):
    # the arithmetic K of Q^2 is 1; K + 0.05 fails on random triples, and
    # every triple scored reads a residual in [-1, 1]
    rep = verify_gradient_estimate(hyp2, "arithmetic", 1.05, INF, trials=30,
                                   seed=5)
    assert rep.violations > 0
    assert -1.0 <= rep.worst_residual < -1e-9


def test_sharpness_probe_finds_violation_above_true_curvature(hyp2):
    probe = sharpness_probe(hyp2, "logarithmic", 1.0 + 0.05, INF, seed=0)
    assert probe.violations > 0
    assert probe.worst_residual < -1e-9
    # and the probe confirms the violating triple explicitly
    r = gradient_estimate_residual(hyp2, "logarithmic", 1.05, INF,
                                   probe.witness["rho"], probe.witness["f"],
                                   probe.witness["t"])
    assert r < -1e-9


def test_sharpness_probe_quiet_at_valid_curvature(hyp2):
    probe = sharpness_probe(hyp2, "logarithmic", 1.0 - 1e-8, INF, seed=0)
    assert probe.violations == 0
    assert probe.worst_residual >= -1e-9


def test_sharpness_probe_arithmetic_exact_curvature():
    # with the exactly-known arithmetic curvature the estimate is sharp:
    # it holds at K and fails once K is bumped by 0.05
    from curvkit import bakry_emery_global
    for ch in (cycle(5), hypercube(2)):
        k, _ = bakry_emery_global(ch, INF)
        quiet = sharpness_probe(ch, "arithmetic", k - 1e-8, INF, seed=1)
        assert quiet.violations == 0
        loud = sharpness_probe(ch, "arithmetic", k + 0.05, INF, seed=1)
        assert loud.violations > 0


# -- reverse Poincare ---------------------------------------------------------

def test_rp_coeff_limits():
    assert _rp_coeff1(0.0, 0.8) == pytest.approx(1.6)
    assert _rp_coeff1(1e-9, 0.8) == pytest.approx(1.6, rel=1e-8)
    assert _rp_coeff2(0.0, 4.0, 0.8) == pytest.approx(2 * 0.64 / 4)
    # smooth across the series switch
    a = _rp_coeff2(1e-6 / 0.8 * 0.9, 4.0, 0.8)
    b = _rp_coeff2(1e-6 / 0.8 * 1.1, 4.0, 0.8)
    assert a == pytest.approx(b, rel=1e-5)
    assert _rp_coeff2(2.0, INF, 0.8) == 0.0


def test_reverse_poincare_two_state_closed_form(two_state):
    # rho = 1, f = (0,1): lhs = (1 - e^{-4t})/4 and A(P_t f) = e^{-4t}/2,
    # equality at K = 2, infinite dimension
    t = 1.0
    rho = equilibrium(two_state)
    f = np.array([0.0, 1.0])
    f_t = heat_apply(two_state, t, f)
    lhs = func_inner(two_state, f * f, heat_apply(two_state, t, rho)) \
        - func_inner(two_state, f_t * f_t, rho)
    assert lhs == pytest.approx((1 - math.exp(-4 * t)) / 4, abs=1e-12)
    from curvkit import a_form
    a_val = a_form(two_state, "logarithmic", rho, f_t)
    assert a_val == pytest.approx(math.exp(-4 * t) / 2, abs=1e-12)
    rhs = _rp_coeff1(2.0, t) * a_val
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_reverse_poincare_holds_on_hypercubes():
    for n_dim in (1, 2):
        ch = hypercube(n_dim)
        rep = verify_reverse_poincare(ch, "logarithmic", 2.0 / n_dim - 1e-8,
                                      INF, trials=40, seed=3)
        assert rep.violations == 0
        assert rep.worst_residual >= -1e-9


def _quadratic(r, s):
    return np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2)


@pytest.mark.parametrize("mean, below", [
    (custom_mean(lambda r, s: (np.asarray(r, float) + s) / 2, lambda r, s: 0.5,
                 domain_class="closed", kind="my-arithmetic"), True),
    (custom_mean(_quadratic, lambda r, s: np.asarray(r, float) / (2 * _quadratic(r, s)),
                 domain_class="closed", kind="quadratic"), False),
], ids=["arithmetic", "quadratic"])
def test_reverse_poincare_samples_a_custom_mean(mean, below):
    # a custom mean is checked below the arithmetic one on samples only: a
    # heuristic precondition when it holds, a DomainError when it fails
    ch = cycle(4)
    if not below:
        with pytest.raises(DomainError, match="needs a mean below the arithmetic one"):
            verify_reverse_poincare(ch, mean, 0.0, INF, trials=2)
        return
    with pytest.warns(PreconditionHeuristic) as caught:
        rep = verify_reverse_poincare(ch, mean, 0.0, INF, trials=2)
    assert [str(w.message) for w in caught] == ["mean <= arithmetic verified only on samples"]
    assert rep.violations == 0


def test_reverse_poincare_zero_curvature_limit():
    # the K -> 0 coefficients agree with evaluation at K = 1e-8
    ch = cycle(5)
    rng = np.random.default_rng(4)
    rho = positive_density(ch, 5)
    f = rng.standard_normal(5)
    r0 = reverse_poincare_residual(ch, "logarithmic", 0.0, INF, rho, f, 0.7)
    r1 = reverse_poincare_residual(ch, "logarithmic", 1e-8, INF, rho, f, 0.7)
    assert r0 == pytest.approx(r1, abs=1e-6)


# -- sup-norm gradient bound --------------------------------------------------

def test_linf_gradient_bound_on_hypercube(hyp3):
    rep = check_linf_gradient_bound(hyp3, trials=25, seed=1,
                                    curvature_status="exact")
    assert rep.violations == 0


def test_linf_gradient_bound_heuristic_warns(hyp2):
    from curvkit import PreconditionHeuristic
    with pytest.warns(PreconditionHeuristic):
        check_linf_gradient_bound(hyp2, trials=5, seed=1,
                                  curvature_status="heuristic")


def test_linf_constant_function_trivial(hyp2):
    f_t = heat_apply(hyp2, 1.0, np.full(4, 3.0))
    ex, ey, _ = hyp2.edges
    assert np.abs(f_t[ey] - f_t[ex]).max() == pytest.approx(0.0, abs=1e-13)


def test_linf_large_time_spectral_decay(hyp2):
    f = np.random.default_rng(3).standard_normal(4)
    t = 20.0
    f_t = heat_apply(hyp2, t, f)
    ex, ey, _ = hyp2.edges
    lhs = np.abs(f_t[ey] - f_t[ex]).max()
    assert lhs <= 10 * np.abs(f).max() * math.exp(-t)       # lambda1 = 1
    assert lhs <= np.abs(f).max() / math.sqrt(t * 0.5) + 1e-9


# -- heat kernel bound --------------------------------------------------------

def test_heat_kernel_bound_two_state(two_state):
    t = 0.1
    p_ab = heat_kernel(two_state, t)[0, 1]
    assert p_ab == pytest.approx(1 - math.exp(-0.2), abs=1e-12)
    assert p_ab <= 2 * t                  # (1/pi(a)) t^1 / 1!
    rep = check_heat_kernel_bound(two_state, (0.1, 1.0))
    assert rep.violations == 0


def test_heat_kernel_bound_cycle8_antipodal():
    ch = cycle(8)
    t = 0.5
    p = heat_kernel(ch, t)[0, 4]        # distance 4
    assert p <= (1 / ch.pi[0]) * t ** 4 / math.factorial(4) + 1e-12
    rep = check_heat_kernel_bound(ch, (0.25, 0.5, 1.0, 3.0))
    assert rep.violations == 0


def test_heat_kernel_bound_various_chains():
    for ch in (hypercube(3), complete(4), path(5),
               random_reversible_chain(6, 77)):
        rep = check_heat_kernel_bound(ch, (0.1, 0.6, 2.0))
        assert rep.violations == 0


def test_heat_kernel_bound_holds_where_it_overflows(recwarn):
    # t^d overflows at t = 1e300 for d >= 2: such a bound holds, residual 1
    rep = check_heat_kernel_bound(cycle(6), (1e17, 1e300))
    assert rep.violations == 0
    assert math.isfinite(rep.worst_residual) and 0 < rep.worst_residual < 1
    assert set(rep.witness) == {"x", "y", "t"}
    rep = check_heat_kernel_bound(path(5), (1e300,))
    assert rep.violations == 0 and math.isfinite(rep.worst_residual)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("n", [20, 40])
def test_heat_kernel_bound_residual_ignores_rounding_noise(n):
    # far from the source p_t is rounding noise (~1e-14) against a bound of
    # ~1e-31: the bound holds there as far as the kernel can tell, so the
    # worst residual is a pair whose kernel value is resolved
    ch = path(n)
    p = heat_kernel(ch, 0.5)
    rep = check_heat_kernel_bound(ch, (0.5,))
    assert rep.violations == 0
    assert rep.worst_residual > 0
    x, y = ch.index(rep.witness["x"]), ch.index(rep.witness["y"])
    assert abs(p[x, y]) > 1e-12 * p.max()
