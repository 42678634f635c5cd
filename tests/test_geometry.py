"""Intrinsic metric, Cheeger constant, inequality battery."""

import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest

from curvkit import (ConvergenceWarning, PreconditionHeuristic, TooLarge,
                     bakry_emery_global, build_chain, chain_from_edgelist,
                     cheeger, check_buser,
                     check_cheeger_l1, check_diameter_bound_ent,
                     check_diameter_bound_finite_n, check_expander_bounds,
                     check_lambda_tau,
                     check_tau_lower_bound, complete, cycle, d_gamma,
                     diam_combinatorial, diam_gamma, distance_matrix,
                     gamma, generate, hypercube, pair_orbits, path,
                     random_regular, srw_from_graph)
from curvkit import geometry
from curvkit.cli import main
from curvkit.curvature import AGREE_TOL
from curvkit.geometry import _d_gamma_upper, cut_weight

from conftest import cheeger_gray, random_reversible_chain, small_chain_pool


# -- intrinsic metric ---------------------------------------------------------

def test_two_state_value(two_state):
    # energy 1/2 s^2 <= 1 caps the increment at sqrt 2
    assert d_gamma(two_state, 0, 1) == pytest.approx(math.sqrt(2), abs=1e-8)


def test_identical_states_zero(cycle5):
    assert d_gamma(cycle5, 2, 2) == 0.0


def test_symmetry_by_reruns():
    ch = path(4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert d_gamma(ch, i, j) == pytest.approx(d_gamma(ch, j, i), abs=1e-8)


def test_triangle_inequality_sampled():
    ch = cycle(5)
    d = {}
    for i in range(5):
        for j in range(5):
            if i != j:
                d[i, j] = d_gamma(ch, i, j)
    for i in range(5):
        for j in range(5):
            for k in range(5):
                if len({i, j, k}) == 3:
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-8


@pytest.mark.parametrize("ch", [cycle(6), hypercube(3), path(4), complete(4)])
def test_combinatorial_dominated_by_intrinsic(ch):
    # d <= sqrt(D/2) d_Gamma <= d_Gamma / sqrt 2 on every pair
    dmax = ch.stats().deg_weighted_max
    dist = distance_matrix(ch)
    for i in range(ch.n_states):
        for j in range(i + 1, ch.n_states):
            dg = d_gamma(ch, i, j)
            assert dist[i, j] <= math.sqrt(dmax / 2) * dg + 1e-8
            assert math.sqrt(dmax / 2) * dg <= dg / math.sqrt(2) + 1e-12


def test_d_gamma_path_reads_the_edge_arrays():
    # Gamma f <= 1 caps every increment of f along the path at sqrt 2; the
    # solve needs O(n^2) memory, and 0.5 MB is a quarter of one 60^3 float64
    # tensor
    ch = path(60)
    tracemalloc.start()
    try:
        value = d_gamma(ch, "0", "59")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(59 * math.sqrt(2), rel=1e-9)
    assert peak < 0.5e6


def test_diameters(two_state):
    assert diam_gamma(two_state) == pytest.approx(math.sqrt(2), abs=1e-8)
    assert diam_combinatorial(hypercube(2)) == 2
    assert diam_combinatorial(cycle(6)) == 3


def _lazy_chain():
    ch = cycle(6)
    return build_chain(0.6 * np.eye(6) + 0.4 * ch.q, pi=ch.pi)


def _weighted_chain():
    """Weighted walk with non-uniform pi."""
    return random_reversible_chain(9, 21)


def _pair_values(ch):
    n = ch.n_states
    return {(i, j): d_gamma(ch, i, j) for i in range(n) for j in range(i + 1, n)}


def _diameter_pool():
    pool = small_chain_pool() + [_lazy_chain(), _weighted_chain()]
    return pool + [random_regular(3, 16, seed=s) for s in (1, 2, 3)]


def _plain(ch):
    """The same matrix, states and pi without automorphisms: every pair of
    states is its own orbit, so diam_gamma visits all of them."""
    return build_chain(ch.q, pi=ch.pi, states=list(ch.states))


@pytest.fixture(scope="module")
def exhaustive():
    """The complete solve of every pair i < j, for `_diameter_pool()` plus
    Q^4 and C16; each test rebuilds the chains, so no diameter is memoized
    across tests."""
    return [{(i, j): geometry._barrier(ch, i, j, -math.inf)
             for i, j in combinations(range(ch.n_states), 2)}
            for ch in _diameter_pool() + [hypercube(4), cycle(16)]]


def _solved(runs):
    return {(i, j): float(run.f[j]) for (i, j), run in runs.items()}


def test_diam_gamma_pruning_is_the_exhaustive_maximum(monkeypatch, exhaustive):
    # every skipped pair has a bound below a value already solved, so the
    # pruned maximum is the exhaustive one bit for bit; diam_gamma replays
    # the exhaustive solves, so each pair is solved once.  The chains carry
    # no automorphisms, so every pair is a candidate
    pool = [_plain(ch) for ch in _diameter_pool()]
    values = {}
    monkeypatch.setattr(geometry, "d_gamma",
                        lambda ch, i, j, *, below=-math.inf: values[i, j])
    for ch, runs in zip(pool, exhaustive):
        values = _solved(runs)
        assert diam_gamma(ch) == max(values.values())


def test_diam_gamma_with_cut_solves_is_the_exhaustive_maximum(exhaustive):
    # real solves, cut by their dual bound below the running maximum: a cut
    # value stays below it, and a pair that would exceed it is never cut
    pool = [_plain(ch) for ch in _diameter_pool() + [hypercube(4), cycle(16)]]
    for ch, runs in zip(pool, exhaustive, strict=True):
        assert d_gamma(ch, 0, 1) == runs[0, 1].f[1]
        assert diam_gamma(ch) == max(_solved(runs).values())


def _lagrangian_dual(ch, f, i, j):
    """The Lagrangian dual at the multipliers c / (1 - Gamma f), minimized
    over c > 0, from the dense kernel: the supremum over g with g(i) = 0 of
    g(j) + sum_x lam(x) (1 - Gamma g(x)) is sum(lam) + L^-1[j, j] / 2, L the
    Laplacian with conductances lam(x) Q(x, y) + lam(y) Q(y, x) on the rows
    other than i.  Returns the bound, that L at c = 1, and the slacks."""
    slacks = 1.0 - gamma(ch, f)
    lam = 1.0 / slacks
    a = lam[:, None] * ch.q
    np.fill_diagonal(a, 0.0)
    a = a + a.T
    kept = np.arange(ch.n_states) != i
    lap = (np.diag(a.sum(axis=1)) - a)[np.ix_(kept, kept)]
    r = np.linalg.inv(lap)[j - 1, j - 1]

    def dual(c):
        return c * lam.sum() + r / (2.0 * c)

    return dual(math.sqrt(r / (2.0 * lam.sum()))), lap, slacks


@pytest.mark.parametrize("specs", [
    [f"hypercube:{k}" for k in range(2, 6)],
    [f"cycle:{n}" for n in range(3, 17)],
    [f"complete:{n}" for n in range(2, 11)],
    [f"path:{n}" for n in range(2, 10)],
], ids=["hypercube", "cycle", "complete", "path"])
def test_diam_gamma_over_orbits_is_the_diameter_over_all_pairs(specs):
    # one pair per orbit of the generators' automorphisms against every
    # pair of the same matrix: the two differ only where symmetric pairs'
    # complete solves differ in their last bits
    for spec in specs:
        ch = generate(spec)
        assert pair_orbits(ch).group
        assert diam_gamma(ch) == pytest.approx(diam_gamma(_plain(ch)), rel=1e-12, abs=0)


def test_diam_gamma_of_the_pool_is_the_diameter_over_all_pairs():
    for ch in _diameter_pool():
        assert diam_gamma(ch) == pytest.approx(diam_gamma(_plain(ch)), rel=1e-12, abs=0)


def test_diam_gamma_without_checked_automorphisms_solves_every_pair(monkeypatch):
    # a cube whose one edge weight is an ulp off fails the check of the
    # cube's permutations: it solves the pairs of its copy without any,
    # in the same order, to the same bits
    cube = hypercube(4)
    adj = cube.adjacency.astype(float)
    adj[0, 1] = adj[1, 0] = np.nextafter(1.0, 2.0)
    nudged = srw_from_graph(adj, automorphisms=cube._automorphisms)
    calls = []

    def counted(chain, x, y, *, below=-math.inf):
        calls.append((x, y))
        return d_gamma(chain, x, y, below=below)

    monkeypatch.setattr(geometry, "d_gamma", counted)
    value = diam_gamma(nudged)
    solved, calls = calls, []
    assert diam_gamma(_plain(nudged)) == value
    assert calls == solved and len(solved) > 3


def test_dual_bound_holds_and_is_tight_at_convergence(exhaustive):
    # at the multipliers of a complete solve the dual bound is above the
    # solved value (weak duality) and within the barrier's gap of it
    for ch, runs in zip(_diameter_pool(), exhaustive):
        for (i, j), run in runs.items():
            assert run.converged and not run.cut and run.f[i] == 0.0
            value = float(run.f[j])
            bound, lap, slacks = _lagrangian_dual(ch, run.f, i, j)
            assert value <= bound <= value + 1e-6
            assert geometry._dual_bound(lap, slacks, j - 1) == pytest.approx(bound, rel=1e-9)


@pytest.mark.parametrize("spec, i, j, value, max_steps", [
    pytest.param("cycle:16", 0, 8, 8 * math.sqrt(2), 80, id="cycle:16"),
    pytest.param("hypercube:4", 0, 15, 4 * math.sqrt(2), 80, id="hypercube:4"),
    pytest.param("random-regular:3:24:1", 0, 5, math.sqrt(30), 80,
                 id="random-regular:3:24:1"),
    pytest.param("path:60", 0, 59, 59 * math.sqrt(2), 110, id="path:60"),
])
def test_complete_solve_ends_each_stage_at_its_rounding_floor(spec, i, j, value,
                                                               max_steps):
    # no stage spends its 30 steps at a point that rounding no longer moves
    run = geometry._barrier(generate(spec), i, j, -math.inf)
    assert run.converged and not run.cut
    assert run.steps <= max_steps
    assert float(run.f[j]) == pytest.approx(value, rel=1e-9)


def test_cut_pair_emits_no_convergence_warning(monkeypatch):
    # with a zero gap tolerance every complete solve gives up at t > 1e16
    # and warns; a pair whose dual bound falls below `below` returns before
    ch = hypercube(4)
    monkeypatch.setattr(geometry, "GAP_TOL", 0.0)
    with pytest.warns(ConvergenceWarning, match="stopped early"):
        d_gamma(ch, 0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        assert d_gamma(ch, 0, 1, below=4 * math.sqrt(2)) < 4 * math.sqrt(2)
    assert geometry._barrier(ch, 0, 1, 4 * math.sqrt(2)).cut


def test_single_pair_solves_never_evaluate_the_dual_bound(monkeypatch, capsys):
    # the default solve (the `dgamma --pair` command and the README call)
    # and a below <= 0 run to the gap; the bound is evaluated only under a
    # positive below
    real, calls = geometry._dual_bound, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_dual_bound", counted)
    ch = hypercube(3)
    full = d_gamma(ch, "000", "111")
    assert d_gamma(ch, "000", "001", below=0.0) == d_gamma(ch, "000", "001")
    assert main(["dgamma", "--gen", "hypercube:3", "--pair", "000,111"]) == 0
    capsys.readouterr()
    assert calls == []
    assert d_gamma(ch, "000", "001", below=full) < full
    assert calls


@pytest.mark.parametrize("ch", [cycle(6), path(5), complete(4), hypercube(3),
                                _weighted_chain()])
def test_edge_length_bound_dominates_d_gamma(ch):
    upper = _d_gamma_upper(ch)
    for (i, j), value in _pair_values(ch).items():
        assert value <= upper[i, j]


def test_edge_length_bound_matches_dijkstra():
    # scipy's Dijkstra over the same edge lengths is the oracle of the
    # numpy Floyd-Warshall
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path
    edge_list = chain_from_edgelist("a\tb\t1.0\nc\tb\t2.0\nd\ta\t0.5\nc\td\t1.5\n")
    pool = _diameter_pool() + [edge_list, hypercube(5), cycle(20), path(12),
                               complete(10), random_regular(3, 24, seed=1)]
    for ch in pool:
        ex, ey, qe = ch.edges
        length = np.sqrt(2.0 / np.maximum(qe, ch.q[ey, ex]))
        n = ch.n_states
        ref = shortest_path(csr_matrix((length, (ex, ey)), shape=(n, n)),
                            method="D", directed=False)
        assert np.allclose(_d_gamma_upper(ch), ref, rtol=1e-12, atol=0)


def test_edge_length_bound_is_attained_on_path3():
    # each end state has Q = 1 to the middle, so Gamma f <= 1 there caps its
    # edge at sqrt 2, and Gamma f(middle) = 1 at the two capped increments
    ch = path(3)
    assert _d_gamma_upper(ch)[0, 2] == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert d_gamma(ch, 0, 2) == pytest.approx(2 * math.sqrt(2), rel=1e-9)


@pytest.mark.parametrize("spec, plain, solved, diam", [
    ("cycle:12", False, 2, 6 * math.sqrt(2)),
    ("hypercube:4", False, 3, 4 * math.sqrt(2)),
    ("cycle:12", True, 18, 6 * math.sqrt(2)),
    ("hypercube:4", True, 88, 4 * math.sqrt(2)),
], ids=["cycle:12", "hypercube:4", "cycle:12-plain", "hypercube:4-plain"])
def test_diam_gamma_solves_only_unpruned_pairs(monkeypatch, spec, plain, solved,
                                               diam):
    # hypercube:4 solves its pairs at Hamming distance 4, 3 and 2, whose
    # bounds 4, 3 and 2 times sqrt 8 are not below the diameter 4 sqrt 2,
    # and skips the neighbour pairs (bound sqrt 8): one pair of each of
    # these three orbits, or without automorphisms all 8 + 32 + 48 of them.
    # cycle:12 solves the antipodal pairs and those at distance 5
    calls = []

    def counted(chain, x, y, *, below=-math.inf):
        calls.append((x, y))
        return d_gamma(chain, x, y, below=below)

    monkeypatch.setattr(geometry, "d_gamma", counted)
    ch = _plain(generate(spec)) if plain else generate(spec)
    assert diam_gamma(ch) == pytest.approx(diam, rel=1e-8)
    n = ch.n_states
    assert len(calls) == solved < n * (n - 1) // 2


def test_diam_gamma_solves_pairs_whose_bound_ties_the_best(monkeypatch):
    # a barrier solve stops short of its bound (Q^4's diameter reads 1.6e-10
    # below the Hamming-2 bound 2 sqrt 8), so real solves do not tie here;
    # fed the bound itself, the 8 antipodal pairs of the copy without
    # automorphisms tie at 4 sqrt 8 and the strict skip solves every one
    ch = _plain(hypercube(4))
    upper = _d_gamma_upper(ch)
    calls = []

    def tight(chain, x, y, *, below=-math.inf):
        calls.append((x, y))
        return float(upper[x, y])

    monkeypatch.setattr(geometry, "d_gamma", tight)
    assert diam_gamma(ch) == upper.max()
    assert len(calls) == 8


# -- Cheeger ------------------------------------------------------------------

def test_cheeger_two_state(two_state):
    res = cheeger(two_state)
    assert res.h == pytest.approx(1.0, abs=1e-14)
    assert len(res.subset) == 1


def test_cheeger_cycle4():
    res = cheeger(cycle(4))
    assert res.h == pytest.approx(0.5, abs=1e-14)
    idx = sorted(int(s) for s in res.subset)
    assert len(idx) == 2 and (idx[1] - idx[0]) % 4 in (1, 3)


def test_cheeger_complete4_brute_force():
    ch = complete(4)
    res = cheeger(ch)
    best = math.inf
    for mask in range(1, 1 << 4):
        members = [i for i in range(4) if (mask >> i) & 1]
        piw = ch.pi[members].sum()
        if 0 < piw <= 0.5 + 1e-12:
            best = min(best, cut_weight(ch, members) / piw)
    assert res.h == pytest.approx(best, abs=1e-14)


def test_cheeger_hypercubes_half_cube():
    for n_dim in (2, 3, 4):
        res = cheeger(hypercube(n_dim))
        assert res.h == pytest.approx(1.0 / n_dim, abs=1e-13)
        assert len(res.subset) == 2 ** (n_dim - 1)


def test_cheeger_engines_agree():
    chains = [path(2), cycle(5), path(6), hypercube(3), complete(5)]
    # vertex 0 stays out of the enumerated set: n = 17 fills the 16-bit low
    # block exactly, n = 18 and 19 walk one and two high bits
    chains += [random_reversible_chain(n, 100 + n) for n in (5, 7, 9, 11, 17, 18, 19)]
    for ch in chains:
        a = cheeger(ch)
        b = cheeger_gray(ch)
        assert a.h == pytest.approx(b.h, rel=1e-13, abs=1e-15)
        # the subsets may differ at ties; this one is feasible and scores h
        idx = [ch.index(s) for s in a.subset]
        piw = float(ch.pi[idx].sum())
        assert piw <= 0.5 + 1e-12
        assert cut_weight(ch, idx) / piw == pytest.approx(a.h, rel=1e-13, abs=1e-13)


def test_cheeger_guard():
    with pytest.raises(TooLarge):
        cheeger_gray(cycle(24))
    with pytest.raises(TooLarge, match="capped at 32 states"):
        cheeger(cycle(33))


def test_cheeger_l1_lemma():
    for ch in (cycle(6), hypercube(3), random_reversible_chain(6, 9)):
        rep = check_cheeger_l1(ch, trials=200, seed=0)
        assert rep.holds
    # tightness: the minimizer indicator is within a factor of two
    ch = hypercube(2)
    res = cheeger(ch)
    ind = np.zeros(4)
    ind[[ch.index(s) for s in res.subset]] = 1.0
    f = ind - float(ind @ ch.pi)
    ex, ey, qe = ch.edges
    grad_l1 = 0.5 * float(np.abs(f[ey] - f[ex]) @ (qe * ch.pi[ex]))
    f_l1 = float(np.abs(f) @ ch.pi)
    assert grad_l1 <= 2 * (res.h / 2) * f_l1 + 1e-12


# -- diameter bounds ----------------------------------------------------------

def test_diameter_bound_ent_hypercube2(hyp2):
    reps = check_diameter_bound_ent(hyp2, 1.0, "exact")
    by_name = {r.name: r for r in reps}
    r = by_name["diameter_ent_dgamma"]
    assert r.rhs == pytest.approx(2 * math.sqrt(4 * math.log(2)), rel=1e-12)
    assert r.rhs == pytest.approx(3.3302, abs=1e-3)
    assert r.holds
    assert by_name["diameter_ent_d"].holds


def test_diameter_bound_ent_hypercube3(hyp3):
    reps = check_diameter_bound_ent(hyp3, 2 / 3, "exact")
    by_name = {r.name: r for r in reps}
    r = by_name["diameter_ent_d"]
    assert r.rhs == pytest.approx(3 * math.sqrt(3 * math.log(3) / 2), rel=1e-12)
    assert r.lhs == 3
    assert r.holds


def test_diameter_bound_ent_dpi_one_convention(two_state):
    # the two-state chain has maximal pi-degree exactly one
    assert two_state.stats().deg_pi_max == pytest.approx(1.0)
    reps = check_diameter_bound_ent(two_state, 2.0, "exact")
    r = {x.name: x for x in reps}["diameter_ent_dgamma"]
    assert r.rhs == pytest.approx(math.sqrt(2), rel=1e-12)   # (2/2) sqrt(2*1)
    assert r.holds      # diam_Gamma = sqrt 2 exactly; equality case


def test_diameter_bound_finite_n_two_state(two_state):
    k2, _ = bakry_emery_global(two_state, 2.0)
    assert k2 == pytest.approx(1.0, abs=1e-10)
    reps = check_diameter_bound_finite_n(two_state, 2.0)
    by_name = {r.name: r for r in reps}
    r = by_name["diameter_finite_n_dgamma"]
    assert r.rhs == pytest.approx(math.pi * math.sqrt(2), rel=1e-9)
    assert r.lhs == pytest.approx(math.sqrt(2), abs=1e-8)
    assert r.holds
    assert by_name["diameter_finite_n_d"].holds


def test_diameter_bound_finite_n_hypercube(hyp2):
    dim = 8.0
    k, _ = bakry_emery_global(hyp2, dim)
    assert k > 0
    reps = check_diameter_bound_finite_n(hyp2, dim)
    assert all(r.holds for r in reps)
    assert all(r.details["k"] == k for r in reps)


@pytest.mark.parametrize("check, unmet, met, name, met_keys", [
    (check_diameter_bound_ent, 0.0, 0.5, "diameter_ent", {"k", "d_pi"}),
    (check_diameter_bound_finite_n, math.inf, 8.0, "diameter_finite_n",
     {"k", "dim"}),
    (check_diameter_bound_finite_n, 12.0, 8.0, "diameter_finite_n",
     {"k", "dim"}),
], ids=["ent-k0", "finite-n-dim-inf", "finite-n-dim12"])
def test_diameter_bound_unmet_guard(check, unmet, met, name, met_keys):
    # C6's K is 0 at every dimension: computed, it is 0 to rounding, of
    # either sign, and a rounding-size K > 0 leaves the precondition unmet
    ch = cycle(6)
    k = unmet if check is check_diameter_bound_ent \
        else bakry_emery_global(ch, unmet)[0]
    assert k <= AGREE_TOL or not math.isfinite(unmet)
    reps = check(ch, unmet)
    assert [r.name for r in reps] == [f"{name}_dgamma", f"{name}_d"]
    for r in reps:
        assert math.isnan(r.lhs) and math.isnan(r.rhs) and math.isnan(r.slack)
        assert r.holds is None
        assert r.details == {"k": k}
    reps = check(hypercube(2), met)
    assert [r.name for r in reps] == [f"{name}_dgamma", f"{name}_d"]
    assert all(set(r.details) == met_keys for r in reps)


# -- mixing-time and spectral-gap bounds -------------------------------------

def test_tau_lower_bound_hypercube3(hyp3):
    rep = check_tau_lower_bound(hyp3)
    assert rep.holds
    assert rep.details["r0"] == pytest.approx(math.log(0.5) / math.log(1 / 3),
                                              rel=1e-12)


def test_tau_lower_bound_two_state_not_applicable(two_state):
    rep = check_tau_lower_bound(two_state)
    assert rep.holds is None
    assert {"name": "pi_max_below_quarter", "status": "unmet"} in rep.preconditions


def test_tau_lower_bound_cycle8():
    rep = check_tau_lower_bound(cycle(8))
    assert rep.holds


def test_buser_hypercubes():
    for n_dim, lam in ((1, 2.0), (2, 1.0), (3, 2 / 3)):
        ch = hypercube(n_dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionHeuristic)
            rep = check_buser(ch, "exact")
        assert rep.lhs == pytest.approx(lam, abs=1e-10)
        q_min = 1.0 / max(n_dim, 1)
        assert rep.rhs == pytest.approx(16 * math.log(2) / q_min / n_dim ** 2,
                                        rel=1e-10)
        assert rep.holds


def test_buser_two_state(two_state):
    rep = check_buser(two_state, "exact")
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(16 * math.log(2), rel=1e-12)
    assert rep.holds


def test_lambda_tau_bound():
    for ch in (hypercube(2), hypercube(3), cycle(6)):
        rep = check_lambda_tau(ch, "exact")
        assert rep.holds
    two = hypercube(1)
    rep = check_lambda_tau(two, "exact")
    assert rep.lhs == pytest.approx(2 * math.log(4) / 2, abs=1e-8)
    assert rep.rhs == pytest.approx(256 * math.log(2), rel=1e-12)
    assert rep.holds


def test_lambda_tau_with_concentrated_pi():
    # the L1 distance at t = 0, 2(1 - sum pi^2) = 0.19, is already within
    # 1/4 of equilibrium, so tau(1/4) = 0
    two = build_chain([[0.95, 0.05], [0.95, 0.05]], pi=[0.95, 0.05])
    rep = check_lambda_tau(two, "exact")
    assert rep.lhs == 0.0
    assert rep.details["tau"] == 0.0
    assert rep.holds is True


def test_expander_bounds_hypercubes():
    # N=3: size guard 8 < 12 marks the regular bound not applicable
    reps = {r.name: r for r in check_expander_bounds(hypercube(3), "exact")}
    assert reps["lambda1_upper_bound"].holds
    assert reps["regular_spectral_gap"].holds is None
    # N=5: 32 >= 20 so the regular bound applies; gap = d lambda1 = 2
    reps = {r.name: r for r in check_expander_bounds(hypercube(5), "exact")}
    r = reps["regular_spectral_gap"]
    assert r.holds
    assert r.lhs == pytest.approx(2.0, abs=1e-10)
    assert r.rhs == pytest.approx(4000 * 5 ** 4 * math.log(5) / math.log(8),
                                  rel=1e-12)


def test_expander_bounds_negative_curvature_not_applicable():
    ch = random_regular(3, 20, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionHeuristic)
        reps = check_expander_bounds(ch, "unmet")
    assert all(r.holds is None for r in reps)


def test_non_regular_chain_skips_regular_bound():
    reps = {r.name: r for r in check_expander_bounds(path(12), "exact")}
    assert reps["regular_spectral_gap"].holds is None
    assert ({"name": "regular_srw", "status": "unmet"}
            in reps["regular_spectral_gap"].preconditions)
