"""Gamma calculus: operators, identities, quadratic-form assembly."""

import re

import numpy as np
import pytest

from curvkit import (ARITHMETIC, GEOMETRIC, LOGARITHMIC, DomainError,
                     ShapeMismatch, a_form, assemble_forms, b_form,
                     check_geometric_green, custom_mean, cycle, dirac,
                     divergence, equilibrium, func_inner, gamma, gamma2,
                     gamma2_rho, gamma_rho, gradient_field, hypercube,
                     laplacian, rho_laplacian, validate_density, vf_inner,
                     vf_inner_rho)
from curvkit.gamma import _edge_laplacian, cd_quadratic, cd_quadratic_grad
from curvkit.heat import _gradient_estimate_f_matrix

from conftest import positive_density, random_reversible_chain


def random_vector_field(chain, rng):
    v = rng.standard_normal((chain.n_states, chain.n_states))
    v = np.where(chain.adjacency, v, 0.0)
    return 0.5 * (v - v.T)


def test_laplacian_constant_zero(cycle6):
    assert laplacian(cycle6, np.full(6, 3.3)) == pytest.approx(np.zeros(6), abs=1e-14)


def test_two_state_laplacian(two_state):
    assert laplacian(two_state, np.array([0.0, 1.0])) == pytest.approx([1.0, -1.0])


def test_laplacian_is_div_grad():
    for seed, ch in enumerate((cycle(7), hypercube(3))):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(ch.n_states)
        lhs = divergence(ch, gradient_field(ch, f))
        assert lhs == pytest.approx(laplacian(ch, f), abs=1e-14)


def test_adjointness_div_grad():
    # <f, div V>_pi = -<grad f, V>_pi via the explicit double sum
    ch = cycle(7)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = rng.standard_normal(7)
        v = random_vector_field(ch, rng)
        lhs = func_inner(ch, f, divergence(ch, v))
        # independent double-sum oracle
        rhs = -0.5 * sum(
            (f[y] - f[x]) * v[x, y] * ch.q[x, y] * ch.pi[x]
            for x in range(7) for y in range(7))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(-vf_inner(ch, gradient_field(ch, f), v),
                                    abs=1e-12)


@pytest.mark.parametrize("refused, error, message", [
    (lambda ch: validate_density(ch, ARITHMETIC, np.ones(5)), ShapeMismatch,
     "expected density of shape (6,), got (5,)"),
    (lambda ch: validate_density(ch, ARITHMETIC, [1, np.nan, 1, 1, 1, 1]),
     DomainError, "density has non-finite entries"),
    (lambda ch: validate_density(ch, ARITHMETIC, [1, -1, 1, 1, 1, 1]),
     DomainError, "density has negative entries"),
    (lambda ch: validate_density(ch, ARITHMETIC, np.zeros(6)), DomainError,
     "density has no positive entry"),
    (lambda ch: divergence(ch, np.zeros((6, 5))), ShapeMismatch,
     "expected field of shape (6,6), got (6, 5)"),
], ids=["density-shape", "density-nan", "density-negative", "density-zero",
        "field-shape"])
def test_refusals_name_their_input(cycle6, refused, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        refused(cycle6)


def test_shape_guard(cycle6):
    with pytest.raises(ShapeMismatch):
        laplacian(cycle6, np.zeros(5))


def test_rho_laplacian_reductions(cycle6):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(6)
    rho = positive_density(cycle6, 2)
    # arithmetic mean: any density gives the plain Laplacian, bitwise
    assert (rho_laplacian(cycle6, ARITHMETIC, rho, f)
            == rho_laplacian(cycle6, ARITHMETIC, equilibrium(cycle6), f)).all()
    assert rho_laplacian(cycle6, ARITHMETIC, rho, f) == pytest.approx(
        laplacian(cycle6, f), abs=1e-13)
    # equilibrium density: any mean gives the plain Laplacian
    for mean in (LOGARITHMIC, GEOMETRIC):
        assert rho_laplacian(cycle6, mean, equilibrium(cycle6), f) == pytest.approx(
            laplacian(cycle6, f), abs=1e-13)


def test_rho_laplacian_two_state_log_mean(two_state):
    from curvkit import d1_mean
    rho = np.array([1.0, 2.0])
    f = np.array([0.0, 1.0])
    out = rho_laplacian(two_state, LOGARITHMIC, rho, f)
    assert out[0] == pytest.approx(2 * d1_mean(LOGARITHMIC, 1.0, 2.0), rel=1e-13)
    assert out[1] == pytest.approx(-2 * d1_mean(LOGARITHMIC, 2.0, 1.0), rel=1e-13)


def test_rho_laplacian_domain_guard(cycle6):
    rho = np.ones(6)
    rho[2] = 0.0
    with pytest.raises(DomainError):
        rho_laplacian(cycle6, LOGARITHMIC, rho, np.zeros(6))
    # the arithmetic mean admits zeros
    rho_laplacian(cycle6, ARITHMETIC, rho, np.zeros(6))


def test_gamma_rho_nonnegative_and_zero_on_constants():
    ch = random_reversible_chain(7, 21)
    rng = np.random.default_rng(4)
    rho = positive_density(ch, 5)
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        assert gamma_rho(ch, mean, rho, np.full(7, 2.2)) == pytest.approx(
            np.zeros(7), abs=1e-14)
        for _ in range(5):
            f = rng.standard_normal(7)
            assert (gamma_rho(ch, mean, rho, f) >= 0).all()


def test_gamma_product_rule_agrees_with_sum_form():
    # 2 Gamma_rho(f,g) = Delta_rho(fg) - f Delta_rho g - g Delta_rho f
    ch = random_reversible_chain(6, 8)
    rng = np.random.default_rng(9)
    rho = positive_density(ch, 3)
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        for _ in range(5):
            f = rng.standard_normal(6)
            g = rng.standard_normal(6)
            via_product = 0.5 * (rho_laplacian(ch, mean, rho, f * g)
                                 - f * rho_laplacian(ch, mean, rho, g)
                                 - g * rho_laplacian(ch, mean, rho, f))
            assert gamma_rho(ch, mean, rho, f, g) == pytest.approx(
                via_product, abs=1e-12)


def test_cycle_closed_forms():
    # increments a_i = f(x+i) - f(x+i-1) around a cycle vertex
    for n in (5, 6, 7, 8):
        ch = cycle(n)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n)
        g1 = gamma(ch, f)
        g2 = gamma2(ch, f)
        for x in range(n):
            a = {i: f[(x + i) % n] - f[(x + i - 1) % n] for i in (-1, 0, 1, 2)}
            assert g1[x] == pytest.approx((a[1] ** 2 + a[0] ** 2) / 4, abs=1e-12)
            expected = ((a[2] - a[1]) ** 2 + 2 * (a[1] - a[0]) ** 2
                        + (a[0] - a[-1]) ** 2) / 16
            assert g2[x] == pytest.approx(expected, abs=1e-12)


def test_two_state_gamma2_hand_expansion(two_state):
    s = 2.9
    f = np.array([0.0, s])
    assert gamma(two_state, f) == pytest.approx([s * s / 2, s * s / 2], rel=1e-14)
    assert gamma2(two_state, f) == pytest.approx([s * s, s * s], rel=1e-14)


def test_gamma_arithmetic_is_rho_independent():
    ch = hypercube(2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(4)
    g = rng.standard_normal(4)
    base1 = gamma_rho(ch, ARITHMETIC, equilibrium(ch), f, g)
    base2 = gamma2_rho(ch, ARITHMETIC, equilibrium(ch), f, g)
    for seed in range(5):
        rho = positive_density(ch, seed)
        assert (gamma_rho(ch, ARITHMETIC, rho, f, g) == base1).all()
        assert (gamma2_rho(ch, ARITHMETIC, rho, f, g) == base2).all()


def test_laplacian_square_dominated_by_degree():
    # (Delta f(x))^2 <= 2 D(x) Gamma f(x)
    for ch in (cycle(6), hypercube(3), random_reversible_chain(7, 33)):
        rng = np.random.default_rng(2)
        d = ch.stats().deg_weighted
        for _ in range(20):
            f = rng.standard_normal(ch.n_states)
            lf = laplacian(ch, f)
            gf = gamma(ch, f)
            assert (lf ** 2 <= 2 * d * gf + 1e-12).all()


def test_a_form_identity():
    # A_rho(f) = <rho, Gamma_rho f>_pi, computed by independent routes
    for seed in range(8):
        ch = random_reversible_chain(6, 40 + seed)
        rho = positive_density(ch, seed)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(6)
        for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
            av = a_form(ch, mean, rho, f)
            direct = func_inner(ch, rho, gamma_rho(ch, mean, rho, f))
            assert av == pytest.approx(direct, abs=1e-11 * max(1, abs(direct)))


def test_b_form_identity():
    # B_rho(f) = <rho, Gamma2_rho f>_pi
    for seed in range(8):
        ch = random_reversible_chain(6, 60 + seed)
        rho = positive_density(ch, seed + 1)
        rng = np.random.default_rng(seed + 100)
        f = rng.standard_normal(6)
        for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
            bv = b_form(ch, mean, rho, f)
            direct = func_inner(ch, rho, gamma2_rho(ch, mean, rho, f))
            assert bv == pytest.approx(direct, abs=1e-11 * max(1, abs(direct)))


def test_a_form_below_plain_energy_for_small_means():
    # theta <= arithmetic gives A_rho(f) <= <rho, Gamma f>_pi
    ch = cycle(6)
    rng = np.random.default_rng(11)
    for seed in range(5):
        rho = positive_density(ch, seed)
        f = rng.standard_normal(6)
        plain = func_inner(ch, rho, gamma(ch, f))
        for mean in (LOGARITHMIC, GEOMETRIC):
            assert a_form(ch, mean, rho, f) <= plain + 1e-12 * max(1, plain)


def test_vf_inner_rho_matches_gamma_route():
    ch = random_reversible_chain(6, 77)
    rng = np.random.default_rng(7)
    rho = positive_density(ch, 7)
    f1 = rng.standard_normal(6)
    f2 = rng.standard_normal(6)
    for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC):
        lhs = vf_inner_rho(ch, mean, rho, gradient_field(ch, f1),
                           gradient_field(ch, f2))
        rhs = func_inner(ch, rho, gamma_rho(ch, mean, rho, f1, f2))
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1, abs(rhs)))


def test_assemble_forms_against_scalar_route():
    for seed in range(6):
        ch = random_reversible_chain(6, 90 + seed)
        rho = positive_density(ch, seed)
        rng = np.random.default_rng(seed)
        for mean in (ARITHMETIC, LOGARITHMIC):
            for dim in (np.inf, 3.0):
                fp = assemble_forms(ch, mean, rho, dim)
                for _ in range(5):
                    f = rng.standard_normal(6)
                    m_val, n_val = cd_quadratic(ch, mean, rho, dim, f)
                    assert f @ fp.m @ f == pytest.approx(
                        m_val, abs=1e-10 * max(1, abs(m_val)))
                    assert f @ fp.n @ f == pytest.approx(
                        n_val, abs=1e-10 * max(1, abs(n_val)))


def test_scalar_partial_custom_mean_matches_arithmetic():
    # a custom mean whose d1 returns the scalar 0.5 is broadcast on the edges
    flat = custom_mean(lambda r, s: 0.5 * (r + s), lambda r, s: 0.5, "closed")
    for seed in range(2):
        ch = random_reversible_chain(7, 90 + seed)
        rho = positive_density(ch, seed)
        f, g = np.random.default_rng(seed).standard_normal((2, 7))

        def evaluate(mean):
            out = [gamma_rho(ch, mean, rho, f, g), gamma2_rho(ch, mean, rho, f, g),
                   b_form(ch, mean, rho, f),
                   _gradient_estimate_f_matrix(ch, mean, 0.1, 4.0, rho, 0.3)]
            for dim in (np.inf, 4.0):
                fp = assemble_forms(ch, mean, rho, dim)
                out += [fp.m, fp.n, *cd_quadratic_grad(ch, mean, rho, dim, f)]
            return out

        for got, want in zip(evaluate(flat), evaluate(ARITHMETIC)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_cd_quadratic_grad_matches_scalar_route():
    # values equal cd_quadratic; gradients equal its central differences
    quad = custom_mean(
        lambda r, s: np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2),
        lambda r, s: np.asarray(r, float) / (2 * np.sqrt((np.asarray(r, float) ** 2 + np.asarray(s, float) ** 2) / 2)),
        domain_class="closed", kind="quadratic")
    for seed in range(4):
        ch = random_reversible_chain(6, 70 + seed)
        rho = positive_density(ch, seed)
        f = np.random.default_rng(seed).standard_normal(6)
        for mean in (ARITHMETIC, LOGARITHMIC, GEOMETRIC, quad):
            for dim in (np.inf, 5.0):
                m_val, n_val, dm, dn = cd_quadratic_grad(ch, mean, rho, dim, f)
                m0, n0 = cd_quadratic(ch, mean, rho, dim, f)
                assert m_val == pytest.approx(m0, abs=1e-12 * max(1, abs(m0)))
                assert n_val == pytest.approx(n0, abs=1e-12 * max(1, abs(n0)))
                fm, fn = np.zeros(6), np.zeros(6)
                for i in range(6):
                    h = 1e-5 * rho[i]
                    rp = rho.copy(); rp[i] += h
                    rm = rho.copy(); rm[i] -= h
                    (mp_, np_), (mm_, nm_) = (cd_quadratic(ch, mean, rp, dim, f),
                                              cd_quadratic(ch, mean, rm, dim, f))
                    fm[i] = (mp_ - mm_) / (2 * h)
                    fn[i] = (np_ - nm_) / (2 * h)
                assert np.abs(dm - fm).max() <= 1e-7 * max(1, np.abs(fm).max())
                assert np.abs(dn - fn).max() <= 1e-7 * max(1, np.abs(fn).max())


def test_cd_quadratic_grad_needs_positive_density(cycle5):
    rho = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        cd_quadratic_grad(cycle5, ARITHMETIC, rho, np.inf, np.arange(5.0))


def test_form_pair_invariants():
    ch = hypercube(2)
    rho = positive_density(ch, 5)
    fp = assemble_forms(ch, LOGARITHMIC, rho, np.inf)
    ones = np.ones(4)
    assert fp.m @ ones == pytest.approx(np.zeros(4), abs=1e-13)
    assert fp.n @ ones == pytest.approx(np.zeros(4), abs=1e-13)
    evals = np.linalg.eigvalsh(fp.n)
    assert evals.min() >= -1e-12 * max(1.0, evals.max())
    assert fp.m == pytest.approx(fp.m.T, abs=0)     # exactly symmetrized
    assert fp.n == pytest.approx(fp.n.T, abs=0)


def test_edge_laplacian_is_the_edge_sum():
    ch = random_reversible_chain(7, seed=21)
    ex, ey, _ = ch.edges
    rng = np.random.default_rng(4)
    w = rng.uniform(-1.0, 2.0, ex.size)
    lap = _edge_laplacian(7, ex, ey, w)
    for _ in range(5):
        f, g = rng.standard_normal(7), rng.standard_normal(7)
        edge_sum = float(np.sum(w * (f[ey] - f[ex]) * (g[ey] - g[ex])))
        assert f @ lap @ g == pytest.approx(edge_sum, rel=1e-12, abs=1e-12)
    assert np.array_equal(lap, lap.T)
    assert lap @ np.ones(7) == pytest.approx(np.zeros(7), abs=1e-12)


def test_dirac_forms_are_pointwise_operators():
    # the Dirac density turns the integrated forms into values at the vertex
    ch = hypercube(3)
    rng = np.random.default_rng(13)
    x = 5
    fp = assemble_forms(ch, ARITHMETIC, dirac(ch, x), np.inf)
    for _ in range(5):
        f = rng.standard_normal(8)
        assert f @ fp.m @ f == pytest.approx(gamma2(ch, f)[x], abs=1e-11)
        assert f @ fp.n @ f == pytest.approx(gamma(ch, f)[x], abs=1e-11)
    fp4 = assemble_forms(ch, ARITHMETIC, dirac(ch, x), 4.0)
    f = rng.standard_normal(8)
    lf = laplacian(ch, f)
    assert f @ fp4.m @ f == pytest.approx(
        gamma2(ch, f)[x] - lf[x] ** 2 / 4.0, abs=1e-11)


def test_geometric_green_formula():
    ch = cycle(5)
    rho = positive_density(ch, 3)
    out = check_geometric_green(ch, rho, trials=12, seed=0)
    assert out["geometric"] <= 1e-11
    assert out["arithmetic"] > 1e-3
    assert out["logarithmic"] > 1e-3


def test_geometric_green_constants_trivial():
    ch = cycle(5)
    rho = positive_density(ch, 4)
    f = np.full(5, 1.7)
    lhs = float(np.sum(rho_laplacian(ch, GEOMETRIC, rho, f) * f * rho * ch.pi))
    assert lhs == pytest.approx(0.0, abs=1e-14)
