"""Metamorphic invariants: exact relations between the outputs of related
chains, used as oracles that need no closed form."""

import math

import numpy as np
import pytest

from curvkit import (ARITHMETIC, GEOMETRIC, LOGARITHMIC, avg_mixing_time,
                     bakry_emery_global, bakry_emery_vertex, build_chain,
                     cheeger, curvature_grad_rho, curvature_of_measure,
                     d_gamma, diam_gamma, generate, lambda1, pair_orbits)

from conftest import positive_density, small_chain_pool

SPECS = ("hypercube:3", "cycle:7", "path:5", "complete:5")


def lazify(chain, a):
    """(1 - a) I + a Q: the same pi and states, every off-diagonal rate times a."""
    n = chain.n_states
    return build_chain((1.0 - a) * np.eye(n) + a * chain.q, pi=chain.pi,
                       states=list(chain.states))


def approx(ref):
    return pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("a", (0.3, 0.7))
def test_lazification_scales_derived_quantities(spec, a):
    """Delta, Gamma and Gamma2 scale by a, a and a^2, so the spectral gap,
    the Cheeger constant and K at every dimension scale by a, tau(1/4) by
    1/a and the intrinsic metric by 1/sqrt(a)."""
    ch = generate(spec)
    lazy = lazify(ch, a)
    assert lambda1(lazy) == approx(a * lambda1(ch))
    assert cheeger(lazy).h == approx(a * cheeger(ch).h)
    tau = avg_mixing_time(ch, 0.25)
    assert avg_mixing_time(lazy, 0.25) == approx(tau / a)
    assert diam_gamma(lazy) == approx(diam_gamma(ch) / math.sqrt(a))
    for dim in (math.inf, 4.0):
        k, _ = bakry_emery_global(ch, dim)
        k_lazy, _ = bakry_emery_global(lazy, dim)
        assert k_lazy == approx(a * k)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("a", (0.3, 0.7))
def test_lazification_scales_measure_curvature(spec, a):
    """At a fixed non-constant density the a-form scales by a and the b-form
    by a^2 under every mean, so K(rho) scales by a; pi, and with it the
    density, is unchanged."""
    ch = generate(spec)
    lazy = lazify(ch, a)
    rho = positive_density(ch, 3)
    for mean in (LOGARITHMIC, GEOMETRIC):
        for dim in (math.inf, 4.0):
            k = curvature_of_measure(ch, mean, rho, dim).value
            assert curvature_of_measure(lazy, mean, rho, dim).value == approx(a * k)


def relabel(chain, perm):
    """The same chain with its states listed in the order perm."""
    return build_chain(chain.q[np.ix_(perm, perm)], pi=chain.pi[perm],
                       states=[chain.states[i] for i in perm])


@pytest.mark.parametrize("spec", SPECS)
def test_relabeling_leaves_derived_quantities_unchanged(spec):
    """Listing the states in another order changes no derived quantity:
    scalars agree, per-state values follow their labels, and the curvature
    gradient is permutation-equivariant."""
    ch = generate(spec)
    perm = np.random.default_rng(5).permutation(ch.n_states)
    pc = relabel(ch, perm)
    close = lambda ref: pytest.approx(ref, rel=1e-10, abs=1e-10)
    assert lambda1(pc) == close(lambda1(ch))
    assert cheeger(pc).h == close(cheeger(ch).h)
    for dim in (math.inf, 4.0):
        for state in ch.states:
            assert bakry_emery_vertex(pc, state, dim).value == close(
                bakry_emery_vertex(ch, state, dim).value)
    tau = avg_mixing_time(ch, 0.25)
    assert avg_mixing_time(pc, 0.25) == pytest.approx(
        tau, rel=1e-9, abs=1e-9)
    assert diam_gamma(pc) == pytest.approx(diam_gamma(ch), rel=1e-9, abs=1e-9)
    for rho in (np.ones(ch.n_states), positive_density(ch, 7)):
        for mean, dim in ((ARITHMETIC, 4.0), (LOGARITHMIC, math.inf)):
            assert curvature_of_measure(pc, mean, rho[perm], dim).value == close(
                curvature_of_measure(ch, mean, rho, dim).value)
        k, grad = curvature_grad_rho(ch, LOGARITHMIC, rho, math.inf)
        k_p, grad_p = curvature_grad_rho(pc, LOGARITHMIC, rho[perm], math.inf)
        assert k_p == close(k)
        assert np.abs(grad_p - grad[perm]).max() <= 1e-12


def test_automorphisms_preserve_d_gamma():
    """A checked automorphism sigma leaves Q, and so Gamma, unchanged: f is
    feasible iff f o sigma^-1 is, and d_Gamma(x, y) = d_Gamma(sigma x,
    sigma y), which is what lets diam_Gamma solve one pair per orbit."""
    rng = np.random.default_rng(11)
    pool = small_chain_pool() + [generate(s) for s in
                                 ("hypercube:4", "cycle:9", "complete:6", "path:7")]
    checked = 0
    for ch in pool:
        for sigma in pair_orbits(ch).group:
            for _ in range(3):
                x, y = rng.choice(ch.n_states, size=2, replace=False)
                assert d_gamma(ch, int(sigma[x]), int(sigma[y])) == pytest.approx(
                    d_gamma(ch, int(x), int(y)), rel=1e-12, abs=0)
                checked += 1
    assert checked >= 60
