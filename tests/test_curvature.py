"""Curvature solvers: hand values, dual-route agreement, optimizer."""

import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from curvkit import (ARITHMETIC, GEOMETRIC, LOGARITHMIC, DomainError,
                     InvalidParameters, NumericalFailure,
                     bakry_emery_global, bakry_emery_vertex, build_chain,
                     chain_from_edgelist,
                     complete, curvature_grad_rho, curvature_of_measure,
                     curvature_profile, custom_mean, cycle, dirac,
                     entropic_curvature_estimate, equilibrium, generate,
                     hypercube, lambda1, lichnerowicz_check, path,
                     random_regular, srw_from_graph)
from curvkit.curvature import _reduce
from curvkit.gamma import assemble_forms
from curvkit.gamma import cd_quadratic_grad

from conftest import (exact_ball_pencil, exact_measure_pencil, exact_psd,
                      positive_density, random_reversible_chain,
                      small_chain_pool)

INF = np.inf


# -- hand-derived exact values ----------------------------------------------

def test_two_state_dirac_curvature(two_state):
    # Gamma2 f(a) = s^2 and Gamma f(a) = s^2/2 give K = 2
    res = bakry_emery_vertex(two_state, 0, INF)
    assert res.value == pytest.approx(2.0, abs=1e-10)
    for n in (2.0, 3.0, 10.0):
        res = bakry_emery_vertex(two_state, 0, n)
        assert res.value == pytest.approx(2.0 * (1 - 1 / n), abs=1e-10)


def test_cycle_vertex_curvature_zero():
    for n in (5, 6, 7, 8):
        ch = cycle(n)
        for x in range(n):
            res = bakry_emery_vertex(ch, x, INF)
            assert res.value == pytest.approx(0.0, abs=1e-9)


def test_hypercube_vertex_curvature():
    for n_dim in (1, 2, 3, 4):
        ch = hypercube(n_dim)
        res = bakry_emery_vertex(ch, 0, INF)
        assert res.value == pytest.approx(2.0 / n_dim, abs=1e-10)


def test_witness_certificate(two_state):
    res = bakry_emery_vertex(two_state, 0, INF)
    f = res.witness
    fp = assemble_forms(two_state, ARITHMETIC, dirac(two_state, 0), INF)
    assert f @ (fp.m - res.value * fp.n) @ f == pytest.approx(0.0, abs=1e-8)
    assert f @ fp.n @ f > 0


def test_complete_graph_vertex_matches_rayleigh_search():
    # independent oracle: numerically minimize the Rayleigh quotient
    ch = complete(3)
    res = bakry_emery_vertex(ch, 0, INF)
    fp = assemble_forms(ch, ARITHMETIC, dirac(ch, 0), INF)
    rng = np.random.default_rng(0)

    def quotient(f):
        denom = f @ fp.n @ f
        return (f @ fp.m @ f) / denom if denom > 1e-12 else np.inf

    best = math.inf
    for _ in range(60):
        f0 = rng.standard_normal(3)
        out = scipy.optimize.minimize(quotient, f0, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14,
                                               "maxiter": 2000})
        best = min(best, out.fun)
    assert res.value <= best + 1e-9
    assert res.value == pytest.approx(best, abs=1e-7)


def test_path3_global_matches_rayleigh_search():
    ch = path(3)
    k_glob, argmin = bakry_emery_global(ch, INF)
    rng = np.random.default_rng(1)
    best = math.inf
    for x in range(3):
        fp = assemble_forms(ch, ARITHMETIC, dirac(ch, x), INF)

        def quotient(f):
            denom = f @ fp.n @ f
            return (f @ fp.m @ f) / denom if denom > 1e-12 else np.inf

        for _ in range(40):
            out = scipy.optimize.minimize(quotient, rng.standard_normal(3),
                                          method="Nelder-Mead",
                                          options={"xatol": 1e-12, "fatol": 1e-14,
                                                   "maxiter": 2000})
            best = min(best, out.fun)
    assert k_glob <= best + 1e-9
    assert k_glob == pytest.approx(best, abs=1e-7)


def test_hypercube_global(hyp3):
    k, _ = bakry_emery_global(hyp3, INF)
    assert k == pytest.approx(2 / 3, abs=1e-10)


def test_elworthy_dimension_two_bound():
    # simple random walks satisfy the curvature-dimension condition at (-1, 2)
    for ch in (cycle(5), hypercube(3), complete(4), path(5),
               random_regular(3, 8, seed=2)):
        for x in range(ch.n_states):
            assert bakry_emery_vertex(ch, x, 2.0).value >= -1 - 1e-9


def test_dimension_tradeoff_bounds():
    # 0 <= K_n(x) - K_n'(x) <= 2 D(x) (1/n' - 1/n) for n' <= n
    ch = random_reversible_chain(6, 5)
    d = ch.stats().deg_weighted
    for x in range(6):
        k_inf = bakry_emery_vertex(ch, x, INF).value
        k2 = bakry_emery_vertex(ch, x, 2.0).value
        k5 = bakry_emery_vertex(ch, x, 5.0).value
        assert k2 <= k5 + 1e-10 <= k_inf + 2e-10
        assert k_inf - k2 <= 2 * d[x] * 0.5 + 1e-9
        assert k5 - k2 <= 2 * d[x] * (1 / 2 - 1 / 5) + 1e-9


# -- solver mechanics --------------------------------------------------------

def test_scale_invariance():
    ch = cycle(5)
    rho = positive_density(ch, 3)
    base = curvature_of_measure(ch, LOGARITHMIC, rho, INF, confirm=False).value
    for c in (1e-3, 0.7, 42.0):
        v = curvature_of_measure(ch, LOGARITHMIC, c * rho, INF, confirm=False).value
        assert v == pytest.approx(base, abs=1e-10 * max(1, abs(base)))


@pytest.mark.parametrize("mean", [ARITHMETIC, GEOMETRIC, LOGARITHMIC])
def test_confirmed_value_is_scale_free(mean):
    # m and n are linear in the density, so K(c rho) = K(rho), and the
    # bracket's rounding bounds are relative to the terms of the forms:
    # every scale whose form entries are normal floats confirms the value
    # at scale 1
    pool_chain = random_reversible_chain(7, 14)
    for ch, rho in ((cycle(5), np.ones(5)), (pool_chain, positive_density(pool_chain, 5))):
        for dim in (INF, 4.0):
            base = curvature_of_measure(ch, mean, rho, dim).value
            for e in (-300, -100, -10, -5, 0, 5, 100):
                res = curvature_of_measure(ch, mean, 10.0**e * rho, dim)
                assert res.value == pytest.approx(base, rel=1e-12), (e, dim)
                assert res.bracket[0] < base < res.bracket[1], (e, dim)


def test_support_superadditivity():
    # K_n(rho) >= min over the support of the vertex curvatures (arithmetic)
    rng = np.random.default_rng(8)
    for ch in (cycle(6), path(5), hypercube(2)):
        vertex = [bakry_emery_vertex(ch, x, INF).value
                  for x in range(ch.n_states)]
        for _ in range(5):
            rho = rng.random(ch.n_states)
            rho[rng.integers(0, ch.n_states)] = 0.0     # some zero entries
            if rho.sum() == 0:
                continue
            k = curvature_of_measure(ch, ARITHMETIC, rho, INF,
                                     confirm=False).value
            lower = min(vertex[x] for x in np.flatnonzero(rho > 0))
            assert k >= lower - 1e-9


def test_monotone_in_dimension():
    ch = random_reversible_chain(5, 17)
    rho = positive_density(ch, 2)
    dims = [1.5, 2.0, 4.0, 16.0, INF]
    vals = [curvature_of_measure(ch, LOGARITHMIC, rho, d, confirm=False).value
            for d in dims]
    assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))


def test_pencil_vs_bisection_on_pool():
    rng = np.random.default_rng(123)
    count = 0
    for ch in small_chain_pool():
        for _ in range(3):
            rho = positive_density(ch, int(rng.integers(1 << 30)))
            dim = rng.choice([2.0, 7.0, np.inf])
            mean = rng.choice(["arithmetic", "logarithmic", "geometric"])
            res = curvature_of_measure(ch, mean, rho, dim, confirm=True)
            assert np.isfinite(res.value)
            assert abs(res.value - res.bracket[0]) <= 1e-8 * max(1, abs(res.value))
            count += 1
    assert count >= 50


def _laplacian(weights):
    w = np.array(weights, dtype=float)
    return np.diag(w.sum(axis=1)) - w


def test_neg_infinity_pencil_detection():
    # the forms of a density of positive mass have a finite K, so a pencil
    # whose zero pattern breaks their structure is a NumericalFailure of
    # the reduction, before any bracket: m not a positive diagonal where n vanishes
    # (negative there, or coupling two such states), m negative on the
    # indicator of a second component of n, n vanishing, a grounded n with
    # a zero diagonal entry, and a reduced pencil that overflows
    from curvkit.curvature import solve_pencil
    edge = _laplacian([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    two = _laplacian([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    split = np.array([1.0, 1.0, -1.0, -1.0])
    zero_d = edge.copy()
    zero_d[1, 1] = 0.0
    for m, n, reason in (
            (np.diag([1.0, 1.0, -1.0]) - 1.0 / 3, edge, "sphere block"),
            (np.ones((4, 4)) - np.eye(4), np.pad(edge, ((0, 1), (0, 1))),
             "sphere block"),
            (-np.outer(split, split), two,
             "m on the null space of n is not positive definite"),
            (np.eye(2), np.zeros((2, 2)), "n vanishes"),
            (np.eye(3) - 1.0 / 3, zero_d, "grounded n is not positive definite"),
            ((np.eye(3) - 1.0 / 3) * 1e10, edge * 1e-300, "not finite")):
        with (pytest.raises(NumericalFailure, match=reason),
              np.errstate(over="ignore")):
            solve_pencil(m, n)


# -- 2-ball assembly and the PSD bracket -------------------------------------

def _ball_pool():
    """The randomized pool plus a lazy chain and a sparse chain with
    non-uniform pi, both with 2-balls smaller than the chain."""
    c8 = cycle(8)
    lazy_c8 = build_chain(0.6 * np.eye(8) + 0.4 * c8.q, pi=c8.pi)
    return small_chain_pool() + [lazy_c8,
                                 random_reversible_chain(10, 3, edge_prob=0.2)]


def test_ball_forms_equal_sliced_dense_forms():
    from curvkit.gamma import _dirac_ball_forms
    smaller = 0
    for ch in _ball_pool():
        for x in range(ch.n_states):
            for dim in (INF, 4.0, 14.0):
                ball, m, n = _dirac_ball_forms(ch, x, dim)
                fp = assemble_forms(ch, ARITHMETIC, dirac(ch, x), dim)
                scale = max(1.0, np.abs(fp.m).max(), np.abs(fp.n).max())
                block = np.ix_(ball, ball)
                assert np.abs(m - fp.m[block]).max() <= 1e-12 * scale
                assert np.abs(n - fp.n[block]).max() <= 1e-12 * scale
                # nothing of the dense forms lies outside the ball
                rest = np.ones(ch.n_states, dtype=bool)
                rest[ball] = False
                assert not fp.m[rest].any() and not fp.n[rest].any()
                smaller += len(ball) < ch.n_states
    assert smaller > 0


def _pool_cases():
    """(args, m, n, mean) of every Dirac density of the pool at dim inf
    under the arithmetic mean and of one positive density per chain at
    dim 4 under the logarithmic mean: the arrays that curvature_of_measure
    assembles and certifies from."""
    from curvkit.gamma import _density_d1, _form_matrices
    rng = np.random.default_rng(7)
    for ch in small_chain_pool():
        cases = [(ARITHMETIC, dirac(ch, x), INF) for x in range(ch.n_states)]
        cases.append((LOGARITHMIC, positive_density(ch, int(rng.integers(1 << 30))), 4.0))
        for mean, rho, dim in cases:
            rho, d1 = _density_d1(ch, mean, rho)
            args = (ch.q, ch.pi, ch.edges, d1, rho, dim)
            yield (args, *_form_matrices(*args), mean)


def _pool_pencils():
    for _, m, n, _ in _pool_cases():
        yield m, n


def test_scratch_search_on_the_float_forms_lands_inside_each_bracket():
    # a from-scratch search with no floor, the least eigenvalue of the
    # float forms m - K n grounded as the bracket grounds them, doubling
    # out from [-4, 4] and bisected to 1e-9, lands inside each bracket
    from curvkit.curvature import _psd_bracket, _split, solve_pencil
    bracketed = 0
    for args, m, n, mean in _pool_cases():
        res = solve_pencil(m, n)
        tests, (lo, hi) = _psd_bracket(args, m, n, res.value, res.witness,
                                       _split(m, n)[3], mean)
        blocks = [np.arange(len(n))[b] for b in _split(m, n)[3]]
        test = np.setdiff1d(np.concatenate(blocks),
                            [b[np.argmax(n.diagonal()[b])] for b in blocks])

        def psd_at(kk):
            return np.linalg.eigvalsh((m - kk * n)[np.ix_(test, test)]).min() >= 0

        below, above = -4.0, 4.0
        while psd_at(above):
            below, above = above, 2.0 * above
        while not psd_at(below):
            below, above = 2.0 * below, below
        while above - below > 1e-9:
            mid = 0.5 * (below + above)
            below, above = (mid, above) if psd_at(mid) else (below, mid)
        assert lo < res.value < hi
        assert lo - 1e-9 <= below <= hi + 1e-9
        bracketed += tests == 2
    assert bracketed > 50


def _spy(monkeypatch, *names):
    """Record the name of every np.linalg call among `names`."""
    calls = []

    def spy(name, fn):
        return lambda a, *args, **kwargs: calls.append(name) or fn(a, *args, **kwargs)

    for name in names:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


def test_lower_end_is_one_cholesky_per_test(monkeypatch):
    # each test of the lower end is one Cholesky factorization and no
    # eigenvalue call; a pair is at most one test of each end, so a
    # bracket of t tests made between t/2 and t factorizations.  The Dirac
    # balls of three regular chains are bracketed by the first pair: two
    # tests, one factorization, width 1e-8
    import curvkit.curvature as cmod
    from curvkit.gamma import _dirac_ball, _form_matrices
    balls = []
    for ch in (hypercube(3), cycle(5), complete(4)):
        args = _dirac_ball(ch, 0, INF)[1]
        balls.append((args, *_form_matrices(*args), ARITHMETIC))
    cases = balls + list(_pool_cases())
    calls = _spy(monkeypatch, "cholesky", "eigvalsh", "eigh", "eig", "eigvals")
    for i, (args, m, n, mean) in enumerate(cases):
        res = cmod.solve_pencil(m, n)
        calls.clear()
        tests, (lo, hi) = cmod._psd_bracket(args, m, n, res.value, res.witness,
                                            cmod._split(m, n)[3], mean)
        assert set(calls) == {"cholesky"}
        assert tests / 2 <= len(calls) <= tests
        assert lo < res.value < hi
        if i < len(balls):
            assert tests == 2 and len(calls) == 1 and hi - lo <= 1e-8


def test_confirmation_makes_no_eigvalsh_call(monkeypatch):
    # a confirmed value costs the reduction's eigh and the bracket's
    # Cholesky factorizations: no eigvalsh on either route
    calls = _spy(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(3)
    for ch in small_chain_pool():
        rho = positive_density(ch, int(rng.integers(99)))
        res = curvature_of_measure(ch, LOGARITHMIC, rho, 4.0)
        assert res.iterations >= 2
        for x in range(ch.n_states):
            assert bakry_emery_vertex(ch, x, INF).iterations >= 2
    assert calls == []


@pytest.mark.parametrize("solve", [
    lambda: curvature_of_measure(cycle(5), ARITHMETIC, dirac(cycle(5), 0), INF),
    lambda: curvature_of_measure(path(6), LOGARITHMIC, np.arange(1.0, 7.0), 4.0),
    lambda: bakry_emery_vertex(hypercube(3), 0, INF),
    lambda: bakry_emery_vertex(cycle(6), 0, 1e-6)],
    ids=["measure-dirac", "measure-logarithmic", "vertex", "vertex-dim-1e-6"])
def test_wrong_value_is_refused_at_the_end_it_breaks(monkeypatch, solve):
    # on both routes, a reduction that returns K too high by
    # 1e-6 max(1, |K|) fails the lower end at every pair; one too low
    # passes the lower end and fails the upper one, the witness's Rayleigh
    # quotient.  Either is refused within three Cholesky factorizations
    import curvkit.curvature as cmod
    true_reduce, true_bracket, sign = cmod._reduce, cmod._psd_bracket, [1.0]

    def shifted(m, n, split=None):
        k, *rest = true_reduce(m, n, split)
        return (k + sign[0] * 1e-6 * max(1.0, abs(k)), *rest)

    def bracket(*args):
        calls.clear()
        return true_bracket(*args)

    monkeypatch.setattr(cmod, "_reduce", shifted)
    monkeypatch.setattr(cmod, "_psd_bracket", bracket)
    calls = _spy(monkeypatch, "cholesky")
    for sign[0], end in ((1.0, r"the lower end: m - \(K - h\) n is not PSD"),
                         (-1.0, r"the upper end: K \+ h is not above the Rayleigh quotient")):
        with pytest.raises(NumericalFailure, match="disagree beyond 1e-08; .*" + end):
            solve()
        assert 1 <= len(calls) <= 3


def test_witness_is_fixed_by_the_span_of_its_cluster():
    # a random orthogonal rotation of the solver's basis of the least
    # eigenvalue's eigenspace leaves the reported witness unchanged, and
    # every witness is n-normalized and certifies K
    import curvkit.curvature as cmod
    true_reduce = cmod._reduce
    rng = np.random.default_rng(11)
    rotated = 0
    for m, n in _pool_pencils():
        res = cmod.solve_pencil(m, n)
        if res.witness is None:
            continue
        f, k = res.witness, res.value
        assert f @ n @ f == pytest.approx(1.0, rel=1e-12)
        m_norm, n_norm = (np.abs(np.linalg.eigvalsh(a)).max() for a in (m, n))
        assert f @ (m - k * n) @ f >= -1e-9 * (m_norm + abs(k) * n_norm + 1.0)
        value, cluster, null_dim, norm = true_reduce(m, n)
        turn, _ = np.linalg.qr(rng.standard_normal((len(cluster), len(cluster))))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cmod, "_reduce",
                       lambda m, n: (value, turn @ cluster, null_dim, norm))
            turned = cmod.solve_pencil(m, n).witness
        assert np.abs(turned - f).max() <= 1e-12 * np.abs(f).max()
        rotated += len(cluster) > 1
    assert rotated >= 10


def test_unconfirmed_solve_makes_no_eigvalsh_call(monkeypatch):
    # an unconfirmed solve decomposes neither form: no eigendecomposition
    # of n decides its null directions, which the reduction reads from the
    # zeros of the forms, and nothing computes a norm for a bracket
    import curvkit.curvature as cmod
    from curvkit.gamma import _dirac_ball_forms
    _, m, n = _dirac_ball_forms(hypercube(3), 0, INF)
    true_eigh, true_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    seen = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            seen.append((name, a is n or a is m))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", true_eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", true_eigvalsh))
    cmod.solve_pencil(m, n)
    assert seen and not any(name == "eigvalsh" or on_form for name, on_form in seen)


def test_vertex_solve_operation_counts(monkeypatch):
    import importlib

    import curvkit.curvature as cmod
    from curvkit.optimal import _pointwise_forms

    gmod = importlib.import_module("curvkit.gamma")   # curvkit.gamma is also a function

    def forbidden(*args, **kwargs):
        raise AssertionError("vertex curvature assembled the dense forms")

    monkeypatch.setattr(gmod, "assemble_forms", forbidden)
    small = 0
    for ch in _ball_pool():
        bakry_emery_global(ch, 4.0)
        _pointwise_forms(ch, INF)
        for x in range(ch.n_states):
            res = bakry_emery_vertex(ch, x, INF)
            if abs(res.value) <= 1.0:
                assert res.iterations == 2
                small += 1
    assert small > 50


# -- vertex curvature in degree coordinates ----------------------------------

def test_degree_coordinates_match_the_ball_pencil():
    # one |S1|-sized eigenproblem gives the value and the witness of
    # solve_pencil on the unreduced 2-ball pair, and the PSD test count of
    # their bracket; a K of 0 agrees to rounding
    from curvkit.curvature import _psd_bracket, solve_pencil
    from curvkit.gamma import _dirac_ball, _form_matrices
    for ch in _ball_pool():
        for x in range(ch.n_states):
            sphere = np.flatnonzero(ch.adjacency[x])
            sphere = sphere[sphere != x]
            for dim in (INF, 4.0, 14.0):
                ball, args = _dirac_ball(ch, x, dim)
                m, n = _form_matrices(*args)
                old = solve_pencil(m, n)
                new = bakry_emery_vertex(ch, x, dim)
                assert new.value == pytest.approx(old.value, rel=1e-12, abs=1e-15)
                assert np.abs(new.witness[ball] - old.witness).max() <= 1e-12
                assert not np.delete(new.witness, ball).any()
                assert new.null_dim == old.null_dim == len(ball) - len(sphere)
                assert new.iterations == _psd_bracket(args, m, n, old.value, old.witness,
                                                      [slice(None)])[0]


def test_ball_lists_the_vertex_then_its_spheres_in_state_order():
    # x, then S1, then S2, each in state order, on the pool, a lazy chain
    # and complete:5, whose 2-spheres are empty
    from curvkit import distance_matrix
    from curvkit.gamma import _dirac_ball_forms
    empty = 0
    for ch in _ball_pool() + [complete(5)]:
        dist = distance_matrix(ch)
        for x in range(ch.n_states):
            ball = _dirac_ball_forms(ch, x, INF)[0]
            spheres = [np.flatnonzero(dist[x] == r) for r in (1, 2)]
            assert ball.tolist() == [x, *spheres[0], *spheres[1]]
            empty += len(spheres[1]) == 0
    assert empty >= 5


def _broken(kind):
    """A _form_matrices whose forms of the C8 ball of state 0 (0, then
    S1 = 1 7, then S2 = 2 6) lose one feature of their Dirac structure."""
    from curvkit.gamma import _form_matrices

    def forms(*args):
        m, n = _form_matrices(*args)
        if kind == "coupled S2":
            m[3, 4] = m[4, 3] = 0.1 * m[3, 3]
        elif kind == "coupled n":   # n reaches into S2
            n[1, 3] = n[3, 1] = 0.1 * n[1, 1]
        elif kind == "zero D":      # an S1 degree underflows
            n[2, 2] = 0.0
        else:                       # an S2 diagonal entry of m underflows
            m[4, 4] = 0.0
        return m, n
    return forms


@pytest.mark.parametrize("kind", ["coupled S2", "coupled n", "zero D", "zero E"])
def test_degree_coordinates_refuse_broken_structure(monkeypatch, kind):
    # forms that break the split x, S1, S2 that the vertex route hands the
    # reduction are a NumericalFailure, with no second solver behind it
    import curvkit.curvature as cmod
    from curvkit.gamma import _dirac_ball

    reason = ("grounded n is not positive definite" if kind == "zero D"
              else "sphere block")
    ch = cycle(8)
    ball, args = _dirac_ball(ch, 0, INF)
    m, n = _broken(kind)(*args)
    assert ball.tolist() == [0, 1, 7, 2, 6]
    with pytest.raises(NumericalFailure, match=reason):
        cmod._reduce(m, n, (slice(1, 3), slice(3, None), [], [slice(None)]))

    def forbidden(*args, **kwargs):
        raise AssertionError("vertex curvature reached solve_pencil")

    monkeypatch.setattr(cmod, "_form_matrices", _broken(kind))
    monkeypatch.setattr(cmod, "solve_pencil", forbidden)
    with pytest.raises(NumericalFailure, match=reason):
        bakry_emery_vertex(ch, 0, INF)


def test_vertex_split_solves_a_coupled_grounded_n():
    # an n that couples two states of S1 and keeps the constants in its
    # kernel is grounded, not broken: the vertex route solves it through
    # the Cholesky factor, to the value that solve_pencil reads from the
    # zeros of the same forms
    import curvkit.curvature as cmod
    from curvkit.gamma import _dirac_ball_forms
    ball, m, n = _dirac_ball_forms(hypercube(3), 0, INF)
    c = 0.1 * n[1, 1]
    n[1, 2] = n[2, 1] = -c
    n[1, 1] += c
    n[2, 2] += c
    k = cmod._reduce(m, n, (slice(1, 4), slice(4, None), [], [slice(None)]))[0]
    assert k == pytest.approx(cmod.solve_pencil(m, n).value, rel=1e-13)
    assert k == pytest.approx(5 / 9, rel=1e-13)     # 2/3 before the coupling


def test_underflowing_edge_weight_is_numerical_failure(tmp_path):
    # a middle weight of 5e-324 halves to 0 in the forms: at b and c the
    # assembly refuses the n-weight of b-c, and at a and d the S2 entry of
    # m underflows; curv-vertex exits 3.  At 4e-323 the forms keep their
    # structure, but the witness at b has an n-norm that underflows to 0: a
    # NumericalFailure, not a witness of infinities.  At c the reduction
    # still reads -1, but the forms' b row is subnormal (4e-323 q_cb), whose
    # rounding no relative bound covers, so the bracket refuses it
    from curvkit.cli import main
    sphere, weight0 = "sphere block", "edge weight of n underflowed to 0"
    for weight, refused in (("5e-324", {"a": sphere, "b": weight0, "c": weight0,
                                        "d": sphere}),
                            ("4e-323", {"b": "cannot be normalized"})):
        edges = tmp_path / "edges.tsv"
        edges.write_text(f"a\tb\t1\nb\tc\t{weight}\nc\td\t1\n")
        ch = chain_from_edgelist(edges.read_text())
        for state, reason in refused.items():
            with pytest.raises(NumericalFailure, match=reason):
                bakry_emery_vertex(ch, state, INF)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curv-vertex", "--in", str(edges), "--out", str(out)]) == 3
        assert not out.exists()
    import curvkit.curvature as cmod
    from curvkit.gamma import _dirac_ball_forms
    ball, m, n = _dirac_ball_forms(ch, "c", INF)
    assert ball.tolist() == [2, 1, 3, 0]
    assert cmod._reduce(m, n, (slice(1, 3), slice(3, None), [], [slice(None)]))[0] \
        == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(NumericalFailure, match="the lower end"):
        bakry_emery_vertex(ch, "c", INF)


def _mp_pencil(m, n):
    """sup{K : m - K n >= 0} over the vectors with zero sum, bisected on
    the 50-digit eigenvalues of m - K n in a Helmert basis; m and n are
    matrices of Fractions with the constants in their kernels."""
    import mpmath as mp
    with mp.workdps(50):
        size = len(m)
        h = mp.matrix(size, size - 1)
        for j in range(1, size):
            c = 1 / mp.sqrt(j * (j + 1))
            for i in range(j):
                h[i, j - 1] = c
            h[j, j - 1] = -j * c
        mm, nn = (h.T * mp.matrix([[mp.mpf(v.numerator) / v.denominator for v in row]
                                   for row in a]) * h for a in (m, n))
        lo, hi = mp.mpf(-4), mp.mpf(4)
        for _ in range(64):
            mid = (lo + hi) / 2
            evals = mp.eigsy(mm - mid * nn, eigvals_only=True)
            if min(evals[i] for i in range(evals.rows)) >= 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.mark.parametrize("weight", ["1e-10", "1e-6"])
def test_near_degenerate_edge_lists_match_mpmath(tmp_path, weight):
    # a-b-c-d with a small middle weight, which sits on S1 of b and c:
    # every vertex brackets in two tests and reads the 50-digit value of
    # its exact 2-ball pencil
    from curvkit.cli import main
    from curvkit.gamma import _dirac_ball_forms
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"a\tb\t1\nb\tc\t{weight}\nc\td\t1\n")
    out = tmp_path / "report.json"
    assert main(["curv-vertex", "--in", str(edges), "--out", str(out)]) == 0
    per_vertex = json.loads(out.read_text())["results"]["per_vertex"]
    w = Fraction(weight)
    weights = [[0, 1, 0, 0], [1, 0, w, 0], [0, w, 0, 1], [0, 0, 1, 0]]
    ch = chain_from_edgelist(edges.read_text())
    for x, state in enumerate("abcd"):
        ball = _dirac_ball_forms(ch, state, INF)[0]
        exact = _mp_pencil(*exact_ball_pencil(weights, x, ball))
        assert per_vertex[state]["iterations"] == 2
        assert per_vertex[state]["value"] == pytest.approx(exact, rel=1e-12)


def _power_weighted_graphs(seed: int, count: int, exponents=(-6, 3)):
    """Connected graphs of 4-6 states whose edge weights are 10^e, e an
    integer in the closed range `exponents`: a random spanning tree, then
    each other pair with probability 0.4.  Yields the weights as Fractions
    and as floats."""
    low, high = exponents
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(4, 7))
        order = rng.permutation(size)
        pairs = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
                 for i in range(1, size)}
        pairs |= {(a, b) for a in range(size) for b in range(a + 1, size)
                  if (a, b) not in pairs and rng.random() < 0.4}
        exact = [[Fraction(0)] * size for _ in range(size)]
        for a, b in sorted(pairs):
            exact[a][b] = exact[b][a] = Fraction(10) ** int(rng.integers(low, high + 1))
        yield exact, np.array(exact, dtype=float)


def test_vertex_brackets_pass_the_exact_psd_test():
    # the exact oracle: at every vertex of 150 derandomized power-weighted
    # graphs, bakry_emery_vertex either refuses (NumericalFailure) or its
    # bracket holds in rational arithmetic on the exact 2-ball pencil, m - K n
    # PSD at the lower end and not PSD at the upper end
    from curvkit.gamma import _dirac_ball_forms
    vertices = confirmed = 0
    for exact, weights in _power_weighted_graphs(seed=29, count=150):
        ch = srw_from_graph(weights)
        for x in range(ch.n_states):
            vertices += 1
            try:
                lo, hi = map(Fraction, bakry_emery_vertex(ch, x, INF).bracket)
            except NumericalFailure:
                continue
            m, n = exact_ball_pencil(exact, x, _dirac_ball_forms(ch, x, INF)[0])
            assert exact_psd(m, n, lo) and not exact_psd(m, n, hi), (exact, x)
            confirmed += 1
    assert confirmed >= vertices / 2


def test_moderate_weights_confirm_every_vertex():
    # at weights 10^e, e in [-3, 3], no vertex is refused: the bracket's
    # shift is set by the terms of the unreduced forms, not by a reduced
    # matrix of norm up to 3e4 max(1, |K|), and every bracket holds in
    # rational arithmetic
    from curvkit.gamma import _dirac_ball_forms
    graphs = 0
    for exact, weights in _power_weighted_graphs(seed=34, count=100, exponents=(-3, 3)):
        ch = srw_from_graph(weights)
        for x in range(ch.n_states):
            lo, hi = map(Fraction, bakry_emery_vertex(ch, x, INF).bracket)
            m, n = exact_ball_pencil(exact, x, _dirac_ball_forms(ch, x, INF)[0])
            assert exact_psd(m, n, lo) and not exact_psd(m, n, hi), (exact, x)
        graphs += 1
    assert graphs == 100


def test_bracket_does_not_trust_the_reduction(monkeypatch):
    # a reduction that reads m (1 - 1e-6) returns K 1e-6 too low at these
    # vertices (all K > 0); the PSD test at k - h still passes, but the
    # witness's Rayleigh quotient, evaluated through the operators, lies
    # above k + h, so every vertex is refused
    import curvkit.curvature as cmod
    true_reduce = cmod._reduce
    monkeypatch.setattr(cmod, "_reduce",
                        lambda m, n, split=None: true_reduce(m * (1 - 1e-6), n, split))
    vertices = 0
    for ch in (hypercube(3), hypercube(4), complete(4), complete(5)):
        for x in range(ch.n_states):
            with pytest.raises(NumericalFailure, match="disagree beyond 1e-08; .*the upper "
                               "end: K \\+ h is not above the Rayleigh quotient"):
                bakry_emery_vertex(ch, x, INF)
            vertices += 1
    assert vertices == 33


def test_lopsided_weights_confirm_every_vertex(tmp_path):
    # weights 100, 10, 1 and 0.001 on a triangle with a pendant vertex:
    # a reduced matrix of norm about 1.2e3 max(1, |K|) once swamped the
    # bracket at a; each vertex now brackets in two tests, and each
    # bracket holds in rational arithmetic
    from curvkit.cli import main
    from curvkit.gamma import _dirac_ball_forms
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t100\na\tc\t0.001\nb\tc\t10\nb\td\t1\n")
    out = tmp_path / "report.json"
    assert main(["curv-vertex", "--in", str(edges), "--out", str(out)]) == 0
    per_vertex = json.loads(out.read_text())["results"]["per_vertex"]
    w = Fraction("0.001")
    exact = [[0, 100, w, 0], [100, 0, 10, 1], [w, 10, 0, 0], [0, 1, 0, 0]]
    ch = chain_from_edgelist(edges.read_text())
    for x, state in enumerate("abcd"):
        lo, hi = map(Fraction, per_vertex[state]["bracket"])
        m, n = exact_ball_pencil(exact, x, _dirac_ball_forms(ch, state, INF)[0])
        assert per_vertex[state]["iterations"] == 2
        assert exact_psd(m, n, lo) and not exact_psd(m, n, hi), state


def _path_chord_graphs(seed: int, count: int):
    """Connected graphs of 4-6 states whose edge weights are 10^e, e an
    integer in [-12, 3]: a path, then each other pair with probability
    0.3.  Yields the weights as Fractions and as floats."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(4, 7))
        pairs = [(a, a + 1) for a in range(size - 1)]
        pairs += [(a, b) for a in range(size) for b in range(a + 2, size)
                  if rng.random() < 0.3]
        exact = [[Fraction(0)] * size for _ in range(size)]
        for a, b in pairs:
            exact[a][b] = exact[b][a] = Fraction(10) ** int(rng.integers(-12, 4))
        yield exact, np.array(exact, dtype=float)


def _sweep_densities(ch):
    """Every Dirac density, a two-point, a three-point and a positive one."""
    last = ch.n_states - 1
    return [dirac(ch, x) for x in range(ch.n_states)] + [
        dirac(ch, 0) + 2 * dirac(ch, last),
        dirac(ch, 0) + dirac(ch, 1) + 3 * dirac(ch, last),
        1.0 + np.arange(ch.n_states) % 3 / 2]


def test_measure_brackets_pass_the_exact_psd_test():
    # the exact oracle for measures: on derandomized power-weighted graphs,
    # for every Dirac density, a two-point and a three-point density and a
    # positive one, at dims inf and 4, curvature_of_measure either refuses
    # or its bracket holds in rational arithmetic on the exact forms of the
    # density it was given (m - K n PSD at the lower end, not at the upper)
    solves = confirmed = 0
    for exact, weights in _path_chord_graphs(seed=5, count=40):
        ch = srw_from_graph(weights)
        for rho in _sweep_densities(ch):
            for dim in (None, Fraction(4)):
                solves += 1
                try:
                    res = curvature_of_measure(ch, ARITHMETIC, rho,
                                               INF if dim is None else float(dim))
                except NumericalFailure:
                    continue
                lo, hi = map(Fraction, res.bracket)
                m, n = exact_measure_pencil(exact, [Fraction(r) for r in rho], dim)
                assert exact_psd(m, n, lo) and not exact_psd(m, n, hi), (exact, rho, dim)
                confirmed += 1
    assert confirmed >= solves / 2


def test_measure_sweep_needs_the_cholesky_shift(monkeypatch):
    # the 68th graph of the measure sweep's generator, a-b-c-d with weights
    # 10, 1e-12, 10: with the lower end's shift every density there is
    # refused or its bracket holds exactly; with the shift set to 0, a
    # Cholesky factorization that completes no longer proves m - K n PSD,
    # and a bracket fails the exact test
    import curvkit.curvature as cmod
    exact, weights = list(_path_chord_graphs(seed=5, count=68))[-1]
    assert weights[1, 2] == 1e-12
    ch = srw_from_graph(weights)

    def wrong():
        count = 0
        for rho in _sweep_densities(ch):
            for dim in (None, Fraction(4)):
                try:
                    res = curvature_of_measure(ch, ARITHMETIC, rho,
                                               INF if dim is None else float(dim))
                except NumericalFailure:
                    continue
                lo, hi = map(Fraction, res.bracket)
                m, n = exact_measure_pencil(exact, [Fraction(r) for r in rho], dim)
                count += not (exact_psd(m, n, lo) and not exact_psd(m, n, hi))
        return count

    assert wrong() == 0
    monkeypatch.setattr(cmod, "_shift", lambda b, rows: np.zeros(len(b)))
    assert wrong() >= 1


def test_thin_weight_general_value_exits_3_or_holds_exactly(tmp_path):
    # a-b-c-d with weights 10, 1e-12, 10 at dim 4 and the density
    # {a: 4, b: 4, d: 12}, the 68th graph of the measure sweep's
    # generator: the reduced K is 4e-7 above the exact 1.4999995718255186,
    # and a bracket around it failed the exact test at both ends.  The
    # command exits 3, or its bracket holds in rational arithmetic
    from curvkit.cli import main
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t10\nb\tc\t1e-12\nc\td\t10\n")
    out = tmp_path / "report.json"
    code = main(["curv-measure", "--in", str(edges), "--n", "4",
                 "--rho", '{"a": 4, "b": 4, "d": 12}', "--out", str(out)])
    assert code in (0, 3)
    if code == 0:
        lo, hi = map(Fraction, json.loads(out.read_text())["results"]["curvature"]["bracket"])
        ten, thin = Fraction(10), Fraction(10) ** -12
        weights = [[0, ten, 0, 0], [ten, 0, thin, 0], [0, thin, 0, ten], [0, 0, ten, 0]]
        m, n = exact_measure_pencil(weights, [4, 4, 0, 12], Fraction(4))
        assert exact_psd(m, n, lo) and not exact_psd(m, n, hi)


def test_large_curvature_confirmed_by_the_wider_pair():
    # K is about -2/dim: at dim 1e-6 the rounding of m - t n at |t| = 2e6
    # exceeds what a 5e-9 step moves, so the first pair fails its lower
    # end, and the pair at AGREE_TOL/4 |K| certifies the value in two more
    # tests
    res = bakry_emery_vertex(cycle(6), 0, 1e-6)
    assert res.value == pytest.approx(-1999999.0, rel=1e-12)
    assert res.iterations == 3
    assert res.bracket[0] < res.value < res.bracket[1]


def test_zero_density_sentinel(cycle5):
    # the zero density is refused where it enters, under every mean.  A
    # positive density whose n-weights underflow to 0 is refused where the
    # forms are assembled: a NumericalFailure, not the vacuous +inf, since
    # K = lambda_1 there.  At 1e-320 the weights are subnormal but not 0,
    # and the reduction, scale-free, still reads lambda_1; the unreduced
    # PSD bracket refuses it, because subnormal entries carry too few
    # digits for its relative rounding bounds, and the descent's rank stop
    # refuses the gradient
    zero, tiny, small = np.zeros(5), np.full(5, 1e-323), np.full(5, 1e-320)
    for mean in (ARITHMETIC, GEOMETRIC, LOGARITHMIC):
        solvers = (lambda rho: curvature_of_measure(cycle5, mean, rho, INF),
                   lambda rho: curvature_of_measure(cycle5, mean, rho, INF,
                                                    confirm=False),
                   lambda rho: curvature_grad_rho(cycle5, mean, rho, INF),
                   lambda rho: assemble_forms(cycle5, mean, rho, INF))
        for solve in solvers:
            with pytest.raises(DomainError, match="no positive entry"):
                solve(zero)
            with pytest.raises(NumericalFailure, match="underflowed to 0"):
                solve(tiny)
        assert solvers[1](small).value == pytest.approx(lambda1(cycle5), rel=1e-12)
        with pytest.raises(NumericalFailure, match="disagree"):
            solvers[0](small)
        with pytest.raises(NumericalFailure, match="lost rank"):
            solvers[2](small)


# -- spectral gap ------------------------------------------------------------

def test_lambda1_values(two_state):
    assert lambda1(two_state) == pytest.approx(2.0, abs=1e-12)
    for n in (4, 5, 8):
        assert lambda1(cycle(n)) == pytest.approx(1 - math.cos(2 * math.pi / n),
                                                  abs=1e-12)
    for n_dim in (1, 2, 3, 4):
        assert lambda1(hypercube(n_dim)) == pytest.approx(2 / n_dim, abs=1e-12)


def test_lambda1_is_equilibrium_curvature():
    for ch in (cycle(6), hypercube(2), path(4), complete(4)):
        lam = lambda1(ch)
        for mean in ("arithmetic", "logarithmic", "geometric"):
            res = curvature_of_measure(ch, mean, equilibrium(ch), INF,
                                       confirm=False)
            assert res.value == pytest.approx(lam, abs=1e-9)


def test_lichnerowicz_inequality_always():
    for ch in small_chain_pool():
        rep = lichnerowicz_check(ch, ARITHMETIC)
        assert rep.lambda1 >= rep.k_lower - 1e-9
        assert not rep.heuristic


def test_lichnerowicz_sharpness_cases(hyp3, cycle5):
    assert lichnerowicz_check(hyp3, ARITHMETIC).sharp
    rep = lichnerowicz_check(cycle5, ARITHMETIC)
    assert not rep.sharp
    assert rep.lambda1 == pytest.approx(1 - math.cos(2 * math.pi / 5), abs=1e-12)
    assert rep.k_lower == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(TypeError):     # a misspelt option is not ignored
        lichnerowicz_check(cycle5, ARITHMETIC, strats=8)


def test_lichnerowicz_logarithmic_mean(hyp2):
    # entropic route: the estimate is heuristic but hits 2/N on hypercubes
    rep = lichnerowicz_check(hyp2, LOGARITHMIC, starts=8, seed=2)
    assert rep.heuristic
    assert rep.k_lower == pytest.approx(1.0, abs=1e-6)
    assert rep.sharp


# -- profiles ----------------------------------------------------------------

def test_two_state_profile_affine(two_state):
    prof = curvature_profile(two_state, ARITHMETIC, dirac(two_state, 0),
                             [INF, 4.0, 2.0, 1.0])
    for s, k in prof.points:
        assert k == pytest.approx(2 * (1 - s), abs=1e-9)
    assert prof.midpoint_concave


def test_profile_midpoint_concavity():
    ch = random_reversible_chain(6, 44)
    rho = positive_density(ch, 9)
    prof = curvature_profile(ch, LOGARITHMIC, rho,
                             [INF, 16.0, 8.0, 4.0, 2.0, 1.0])
    assert prof.midpoint_concave


def test_hypercube_profile_endpoint(hyp2):
    prof = curvature_profile(hyp2, ARITHMETIC, dirac(hyp2, 0), [INF])
    assert prof.points[0] == (0.0, pytest.approx(1.0, abs=1e-10))


@pytest.mark.parametrize("dim", [0.0, -0.0, -2.0, float("nan")])
def test_profile_rejects_a_non_positive_dimension(dim):
    # each point is solved, and its dimension checked, before 1/dim is taken
    with pytest.raises(DomainError, match="dimension must be positive"):
        curvature_profile(cycle(5), ARITHMETIC, np.ones(5), [INF, dim])


def test_entropic_estimate_checks_the_dimension_before_importing_scipy(monkeypatch):
    # and every other argument: with scipy.optimize made unimportable, a bad
    # call still raises its own error
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    for kwargs, error, message in [
            ({"dim": 0}, DomainError, "dimension must be positive, got 0.0"),
            ({"starts": 0}, InvalidParameters, "needs starts >= 1, got 0"),
            ({"mean": "harmonic"}, DomainError, "unknown mean 'harmonic'"),
            ({"mean": ARITHMETIC}, DomainError, "needs an open-domain mean")]:
        with pytest.raises(error, match=message):
            entropic_curvature_estimate(cycle(5), **{"dim": INF, **kwargs})


# -- gradient and optimizer --------------------------------------------------

def test_gradient_matches_finite_differences():
    checked = 0
    for seed in range(40):
        ch = small_chain_pool()[seed % 8]
        rho = positive_density(ch, 1000 + seed)
        dim = [INF, 7.0][seed % 2]
        k, grad = curvature_grad_rho(ch, LOGARITHMIC, rho, dim)
        fd = np.zeros(ch.n_states)
        for i in range(ch.n_states):
            h = 1e-5 * max(1.0, rho[i])
            rp = rho.copy(); rp[i] += h
            rm = rho.copy(); rm[i] -= h
            fd[i] = (curvature_of_measure(ch, LOGARITHMIC, rp, dim, confirm=False).value
                     - curvature_of_measure(ch, LOGARITHMIC, rm, dim, confirm=False).value) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() <= 1e-5 * scale
        checked += 1
    assert checked == 40


AG_BLEND = custom_mean(
    lambda r, s: 0.5 * np.sqrt(np.asarray(r, float) * np.asarray(s, float))
    + 0.25 * (np.asarray(r, float) + np.asarray(s, float)),
    lambda r, s: 0.25 * np.sqrt(np.asarray(s, float) / np.asarray(r, float)) + 0.25,
    domain_class="open", kind="ag-blend")


@pytest.mark.parametrize("mean", [GEOMETRIC, ARITHMETIC, AG_BLEND],
                         ids=lambda m: m.kind)
def test_gradient_matches_finite_differences_other_means(mean):
    # Same oracle as above for the other built-ins and a custom mean (whose
    # d11 is a central difference of its d1).  Where the minimal pencil
    # eigenvalue is degenerate (the arithmetic mean on Q^2 at dim inf, five
    # densities) K has a kink and central differences are no oracle, so
    # those densities are skipped.  The absolute 1e-9 covers the rounding of
    # the difference quotient, about eps |K| / h, where K does not depend on
    # rho (the two-state chains under the arithmetic mean).
    checked = 0
    for seed in range(40):
        ch = small_chain_pool()[seed % 8]
        rho = positive_density(ch, 1000 + seed)
        dim = [INF, 7.0][seed % 2]
        fp = assemble_forms(ch, mean, rho, dim)
        if len(_reduce(fp.m, fp.n)[1]) > 1:    # a multiple least eigenvalue
            continue
        k, grad = curvature_grad_rho(ch, mean, rho, dim)
        fd = np.zeros(ch.n_states)
        for i in range(ch.n_states):
            h = 1e-5 * max(1.0, rho[i])
            rp = rho.copy(); rp[i] += h
            rm = rho.copy(); rm[i] -= h
            fd[i] = (curvature_of_measure(ch, mean, rp, dim, confirm=False).value
                     - curvature_of_measure(ch, mean, rm, dim, confirm=False).value) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() <= 1e-5 * scale + 1e-9
        checked += 1
    assert checked >= 35


SYMMETRIC = ("hypercube:3", "cycle:7", "complete:5")


def test_gradient_makes_one_pencil_solve(monkeypatch):
    # one pencil solve per evaluation, also where the least eigenvalue is
    # multiple (triple at the constant density of Q^3)
    import curvkit.curvature as cmod
    true_reduce = cmod._reduce
    calls = []

    def counted(*args):
        calls.append(1)
        return true_reduce(*args)

    monkeypatch.setattr(cmod, "_reduce", counted)
    ch = hypercube(3)
    for rho in (np.ones(8), positive_density(ch, 21)):
        calls.clear()
        curvature_grad_rho(ch, LOGARITHMIC, rho, INF)
        assert len(calls) == 1


def _grad_by_public_route(ch, mean, rho, dim):
    """curvature_grad_rho rebuilt from the public forms and gradient:
    (K, gradient, number of witnesses averaged)."""
    import curvkit.curvature as cmod
    fp = assemble_forms(ch, mean, rho, dim)
    k, cluster, _, _ = cmod._reduce(fp.m, fp.n)
    parts = [cd_quadratic_grad(ch, mean, rho, dim, w) for w in cluster]
    grad = np.mean([(dm - k * dn) / nm for _, nm, dm, dn in parts], axis=0)
    return k, grad, len(parts)


def test_gradient_equals_public_route_bitwise():
    # the descent shares one validated density and one d1theta between the
    # forms and every witness's gradient; the public operators, each
    # validating and evaluating on its own, give the same bits
    cases = [(ch, mean, positive_density(ch, 500 + i), dim)
             for i, ch in enumerate(small_chain_pool())
             for mean in (LOGARITHMIC, GEOMETRIC, ARITHMETIC)
             for dim in (INF, 4.0)]
    cases.append((hypercube(3), LOGARITHMIC, np.ones(8), INF))
    for ch, mean, rho, dim in cases:
        k, grad = curvature_grad_rho(ch, mean, rho, dim)
        k_ref, grad_ref, n_witnesses = _grad_by_public_route(ch, mean, rho, dim)
        assert np.array_equal(k, k_ref) and np.array_equal(grad, grad_ref)
    assert n_witnesses == 3      # the constant density on hypercube:3


@pytest.mark.parametrize("ch, rho", [
    (path(4), np.array([0.5, 1.5, 0.8, 1.2])),
    (hypercube(3), np.ones(8)),
], ids=["simple", "triple"])
def test_gradient_evaluates_d1_once(monkeypatch, ch, rho):
    # one density validation and one d1theta evaluation on the edges per
    # gradient, also where three witnesses are averaged
    import importlib

    from curvkit.means import Mean

    gmod = importlib.import_module("curvkit.gamma")   # curvkit.gamma is also a function
    calls = {"d1": 0, "validate": 0}
    true_d1, true_validate = Mean.d1, gmod.validate_density

    def d1(self, r, s):
        calls["d1"] += 1
        return true_d1(self, r, s)

    def validate(*args):
        calls["validate"] += 1
        return true_validate(*args)

    monkeypatch.setattr(Mean, "d1", d1)
    monkeypatch.setattr(gmod, "validate_density", validate)
    curvature_grad_rho(ch, LOGARITHMIC, rho, INF)
    assert calls == {"d1": 1, "validate": 1}


@pytest.mark.parametrize("spec", SYMMETRIC)
def test_gradient_vanishes_at_symmetric_constant_density(spec):
    # the constant density is a critical point of K on vertex-transitive
    # chains; the cluster-averaged gradient shows it to rounding, in the
    # u-coordinates of the descent (rho = exp(u) / <exp(u), 1>_pi)
    ch = generate(spec)
    rho = np.ones(ch.n_states)
    _, g = curvature_grad_rho(ch, LOGARITHMIC, rho, INF)
    g_u = rho * (g - ch.pi * float(np.dot(g, rho)))
    assert np.abs(g_u).max() < 1e-14


@pytest.mark.parametrize("spec", SYMMETRIC)
def test_entropic_estimate_stays_at_symmetric_constant_density(spec):
    ch = generate(spec)
    est = entropic_curvature_estimate(ch, INF, starts=1)
    assert est.k_hat == pytest.approx(lambda1(ch), abs=1e-12)


def test_equilibrium_start_evaluates_to_lambda1():
    for ch in (cycle(5), hypercube(2), path(4)):
        k, _ = curvature_grad_rho(ch, LOGARITHMIC, equilibrium(ch), INF)
        assert k == pytest.approx(lambda1(ch), abs=1e-9)


def test_entropic_estimate_two_state(two_state):
    est = entropic_curvature_estimate(two_state, INF, starts=8, seed=3)
    assert est.k_hat == pytest.approx(2.0, abs=1e-3)
    assert est.k_hat >= 2.0 - 1e-6
    assert est.certified_nonnegative
    assert est.rho_star.min() > 0
    assert est.rho_star @ two_state.pi == pytest.approx(1.0, abs=1e-9)
    assert len(est.per_start) == 8
    assert est.k_hat == pytest.approx(min(k for k, _ in est.per_start), abs=0)


def test_entropic_estimate_negative_curvature_chain():
    # a long path has negative entropic curvature somewhere
    est = entropic_curvature_estimate(path(6), INF, starts=10, seed=0)
    assert est.k_hat < lambda1(path(6)) + 1e-9


@pytest.mark.parametrize("starts", [0, -1])
def test_entropic_estimate_needs_a_start(starts):
    # no start is invalid input, not a numerical failure of the descent
    with pytest.raises(InvalidParameters, match="starts >= 1"):
        entropic_curvature_estimate(hypercube(2), INF, starts=starts)


def test_entropic_estimate_deterministic():
    ch = hypercube(2)
    a = entropic_curvature_estimate(ch, INF, starts=12, seed=9)
    b = entropic_curvature_estimate(ch, INF, starts=12, seed=9)
    assert a.k_hat == b.k_hat
    assert (a.rho_star == b.rho_star).all()
    assert a.per_start == b.per_start


def test_entropic_estimate_survives_linalg_error(monkeypatch):
    # a LinAlgError in one start is recorded as (inf, False); the others run
    real = scipy.optimize.minimize
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("eigh did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", flaky)
    est = entropic_curvature_estimate(hypercube(2), INF, starts=4, seed=0)
    assert len(calls) == 4 and len(est.per_start) == 4
    assert est.per_start[1] == (math.inf, False)
    assert all(math.isfinite(k) for i, (k, _) in enumerate(est.per_start) if i != 1)
    assert est.k_hat == min(k for k, _ in est.per_start)
    assert est.k_hat == pytest.approx(1.0, abs=1e-6)


def test_entropic_estimate_fails_when_every_start_fails(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(scipy.optimize, "minimize", broken)
    with pytest.raises(NumericalFailure):
        entropic_curvature_estimate(hypercube(2), INF, starts=3, seed=0)


def test_gradient_rejects_rank_loss_at_positive_density():
    # rho spans 1e15: the pencil treats real directions of n as null
    rho = np.array([1.0, 1e-15, 1e-15, 1e-15, 1e-15, 1.0])
    with pytest.raises(NumericalFailure, match="lost rank"):
        curvature_grad_rho(path(6), LOGARITHMIC, rho, INF)


@pytest.mark.parametrize("ch", [cycle(6), path(8)], ids=["cycle6", "path8"])
def test_entropic_estimate_is_two_route_confirmed(ch):
    # the Dirac-bump start runs into lopsided densities on these chains;
    # the reported value is still one that pencil and bisection agree on
    est = entropic_curvature_estimate(ch, INF, starts=2, seed=1)
    again = curvature_of_measure(ch, LOGARITHMIC, est.rho_star, INF, confirm=True)
    assert again.value == est.k_hat
    assert est.rho_star @ ch.pi == pytest.approx(1.0, abs=1e-12)


def test_least_confirmed_tries_each_density_once(monkeypatch):
    # L-BFGS-B can evaluate one point twice; a refused density whose bytes
    # were tried already is skipped, not refused again
    import curvkit.curvature as cmod
    ch = cycle(5)
    bad, good = positive_density(ch, 1), positive_density(ch, 2)
    calls = []

    def measure(chain, mean, rho, dim):
        calls.append(rho.tobytes())
        if not np.allclose(rho, good):
            raise NumericalFailure("refused")
        return cmod.CurvatureResult(0.2, rho, (0.1, 0.3), 2, 1)

    monkeypatch.setattr(cmod, "curvature_of_measure", measure)
    k, rho = cmod._least_confirmed(ch, LOGARITHMIC, INF,
                                   [(0.1, bad), (0.1, bad.copy()), (0.2, good)])
    assert k == 0.2 and np.allclose(rho, good)
    assert len(calls) == len(set(calls)) == 2


def test_estimate_passes_no_density_twice(monkeypatch):
    # path:8 at dim 4: the descent of the Dirac start evaluates one point
    # twice, and the estimate confirms each density it tries once
    import curvkit.curvature as cmod
    true_grad, true_measure = cmod.curvature_grad_rho, cmod.curvature_of_measure
    grads, measures = [], []

    def grad(chain, mean, rho, dim):
        grads.append(rho.tobytes())
        return true_grad(chain, mean, rho, dim)

    def measure(chain, mean, rho, dim):
        measures.append(rho.tobytes())
        return true_measure(chain, mean, rho, dim)

    monkeypatch.setattr(cmod, "curvature_grad_rho", grad)
    monkeypatch.setattr(cmod, "curvature_of_measure", measure)
    entropic_curvature_estimate(path(8), 4.0, starts=2, seed=1)
    assert len(set(grads)) < len(grads)
    assert len(set(measures)) == len(measures) >= 2
