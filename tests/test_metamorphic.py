"""Metamorphic invariants: exact relations between the outputs of related
chains, used as oracles that need no closed form."""

import math

import numpy as np
import pytest

from curvkit import (avg_mixing_time, bakry_emery_global, build_chain,
                     cheeger, diam_gamma, generate, lambda1,
                     spectral_decompose)

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
    tau = avg_mixing_time(spectral_decompose(ch), 0.25)
    assert avg_mixing_time(spectral_decompose(lazy), 0.25) == approx(tau / a)
    assert diam_gamma(lazy) == approx(diam_gamma(ch) / math.sqrt(a))
    for dim in (math.inf, 4.0):
        k, _ = bakry_emery_global(ch, dim)
        k_lazy, _ = bakry_emery_global(lazy, dim)
        assert k_lazy == approx(a * k)
