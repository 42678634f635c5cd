"""Optimal sets: certificates, complexes, unions, equilibrium equivalence."""

import numpy as np
import pytest

from itertools import combinations

from curvkit import (ARITHMETIC, InvalidParameters, NumericalFailure, TooLarge,
                     assemble_forms, bakry_emery_global, bakry_emery_vertex,
                     check_equilibrium_optimality,
                     check_union_proposition, complete, cycle, dirac,
                     distance_matrix, func_inner, gamma,
                     gamma2, generate, hypercube, is_optimal_set,
                     lichnerowicz_check, optimal_complex, path)

from curvkit.curvature import _vertex_curvatures

from conftest import optimal_complex_reference, small_chain_pool
from test_curvature import _ball_pool

INF = np.inf


def cycle_runs(n, size):
    """All sets of `size` consecutive cycle vertices, as sorted tuples."""
    out = set()
    for m in range(n):
        out.add(tuple(sorted((str((m + j) % n) for j in range(size)), key=int)))
    return out


def test_minimal_vertex_dirac_is_optimal():
    for ch in (cycle(6), path(4), hypercube(2)):
        k, argmin = bakry_emery_global(ch, INF)
        cert = is_optimal_set(ch, [argmin], INF)
        assert cert.is_optimal
        assert cert.witness is not None


def test_certificate_soundness_cycle6():
    # direct evaluation of the defining equality for the witness
    ch = cycle(6)
    k, _ = bakry_emery_global(ch, INF)
    cert = is_optimal_set(ch, ["2", "3"], INF)
    assert cert.is_optimal
    f0 = cert.witness
    q = gamma2(ch, f0) - k * gamma(ch, f0)
    ind = np.zeros(6)
    ind[[2, 3]] = 1.0
    assert func_inner(ch, ind, q) == pytest.approx(0.0, abs=1e-8)
    assert (gamma(ch, f0)[[2, 3]] > 1e-10).all()


def test_cycle6_pair_witness_is_arithmetic_progression():
    ch = cycle(6)
    cert = is_optimal_set(ch, ["2", "3"], INF)
    f0 = cert.witness
    # the 5-window around each of the two vertices must be an arithmetic
    # progression (second differences vanish)
    for x in (2, 3):
        vals = [f0[(x + i) % 6] for i in (-2, -1, 0, 1, 2)]
        second = np.diff(np.diff(vals))
        assert np.abs(second).max() < 1e-7


def test_cycle_full_zero_set_not_optimal():
    # every vertex is minimal on a cycle but the whole cycle is not optimal
    for n in (5, 6, 8):
        ch = cycle(n)
        cert = is_optimal_set(ch, [str(i) for i in range(n)], INF)
        assert not cert.is_optimal


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_cycle_optimal_complex(n):
    cx = optimal_complex(cycle(n), INF)
    assert cx.dimension == n - 5
    assert set(cx.zero_cells) == {str(i) for i in range(n)}
    top = {f for f in cx.facets if len(f) == n - 4}
    assert top == cycle_runs(n, n - 4)
    if n < 8:
        # pure complexes below n = 8
        assert len(cx.facets) == n
    else:
        # the 8-cycle also carries maximal antipodal pairs
        extra = {f for f in cx.facets if len(f) != n - 4}
        assert extra == {("0", "4"), ("1", "5"), ("2", "6"), ("3", "7")}


def test_hypercube_complex_is_full_simplex():
    for n_dim in (1, 2, 3):
        ch = hypercube(n_dim)
        cx = optimal_complex(ch, INF)
        assert cx.facets == [tuple(ch.states)]
        assert cx.dimension == 2 ** n_dim - 1


def test_two_state_facet(two_state):
    cx = optimal_complex(two_state, INF)
    assert cx.facets == [("0", "1")]


def test_downward_closure_sampled():
    rng = np.random.default_rng(0)
    for ch, dim in ((cycle(7), INF), (hypercube(3), INF)):
        cx = optimal_complex(ch, dim)
        for facet in cx.facets:
            for _ in range(10):
                size = int(rng.integers(1, len(facet) + 1))
                sub = list(rng.choice(facet, size=size, replace=False))
                assert is_optimal_set(ch, sub, dim).is_optimal


def test_facets_inside_zero_cells():
    for ch in (cycle(6), path(4), complete(4)):
        cx = optimal_complex(ch, INF)
        for facet in cx.facets:
            assert set(facet) <= set(cx.zero_cells)


def test_union_proposition_cycle16():
    ch = cycle(16)
    rep = check_union_proposition(ch, ["0"], ["8"], INF)
    assert rep.precondition_met and rep.distance == 8
    assert rep.union_optimal
    rep = check_union_proposition(ch, ["0"], ["4"], INF)
    assert not rep.precondition_met and rep.union_optimal is None
    assert rep.distance == 4


def test_union_proposition_rejects_an_empty_set():
    ch = cycle(16)
    for a0, a1 in (([], ["0"]), (["0"], [])):
        with pytest.raises(InvalidParameters):
            check_union_proposition(ch, a0, a1, INF)
    with pytest.raises(InvalidParameters,
                       match="^the empty set has no optimality certificate$"):
        is_optimal_set(ch, [], INF)


REFERENCE_SPECS = ([f"cycle:{n}" for n in range(5, 13)]
                   + [f"hypercube:{d}" for d in range(1, 5)]
                   + ["complete:4", "complete:6", "path:4", "path:8"]
                   + [f"random-regular:3:{n}:{s}" for n in (10, 12)
                      for s in range(1, 6)])


@pytest.mark.parametrize("dim", [INF, 4.0])
def test_optimal_complex_matches_reference_engine(dim):
    for spec in REFERENCE_SPECS:
        cx = optimal_complex(generate(spec), dim)
        assert cx == optimal_complex_reference(generate(spec), dim), spec


def test_optimal_complex_matches_reference_engine_cycle14():
    assert optimal_complex(cycle(14), INF) == optimal_complex_reference(cycle(14), INF)


def _border_pool(dim):
    """(spec, chain) over the reference pool at dim, and C14 at dim inf."""
    specs = REFERENCE_SPECS + ["cycle:14"] * (dim == INF)
    return [(spec, generate(spec)) for spec in specs]


@pytest.mark.parametrize("dim", [INF, 4.0])
def test_border_is_a_certificate(dim):
    # checked against is_optimal_set and a brute-force dualization, not
    # against the search that produced it
    from curvkit.optimal import _border

    for spec, ch in _border_pool(dim):
        facets, nonfaces = _border(ch, dim)
        x0 = optimal_complex(ch, dim).zero_cells
        assert all(is_optimal_set(ch, f, dim).is_optimal for f in facets), spec
        assert not any(set(f) < set(g) for f in facets for g in facets), spec
        for nf in nonfaces:
            assert not is_optimal_set(ch, nf, dim).is_optimal, (spec, nf)
            for s in nf:
                assert any(set(nf) - {s} <= set(f) for f in facets), (spec, nf, s)
        # bitmasks over the zero cells: a transversal meets every complement
        complements = [sum(1 << i for i, s in enumerate(x0) if s not in f) for f in facets]
        masks = {c: sum(1 << i for i in c)
                 for k in range(1, len(x0) + 1) for c in combinations(range(len(x0)), k)}
        hits = {m for m in masks.values() if all(m & comp for comp in complements)}
        brute = [tuple(x0[i] for i in c) for c, m in masks.items()
                 if m in hits and not any(m & ~(1 << i) in hits for i in c)]
        assert nonfaces == sorted(brute), spec


def _measure_criterion(chain, states, dim, k) -> bool:
    """The paper's optimality criterion for measures, independent of
    is_optimal_set's rows and kernel cutoff: A is optimal iff the
    arithmetic-mean pencil of rho_A, the sum of the Dirac densities of A,
    has its least value within AGREE_TOL max(1, |K|) of the global K, and
    Gamma vanishes at no x in A on that value's cluster."""
    from curvkit.curvature import AGREE_TOL, _reduce

    rho = sum(dirac(chain, s) for s in states)
    fp = assemble_forms(chain, ARITHMETIC, rho, dim)
    value, cluster, _, _ = _reduce(fp.m, fp.n)
    if not abs(value - k) <= AGREE_TOL * max(1.0, abs(k)):
        return False
    # the cluster is n-orthonormal, so its Gamma values at A are O(1)
    on_cluster = np.array([gamma(chain, w) for w in cluster])
    return all(on_cluster[:, chain.index(s)].max() > 1e-9 for s in states)


@pytest.mark.parametrize("dim", [INF, 4.0])
def test_border_agrees_with_the_measure_criterion(dim):
    # every facet of the border search passes the measure criterion and
    # every minimal non-face fails it
    from curvkit.optimal import _border

    specs = [f"cycle:{n}" for n in (5, 6, 7, 8, 10, 12)] + [
        "path:8", "complete:6", "hypercube:3", "hypercube:4",
        "random-regular:3:8:1", "random-regular:3:12:2"]
    decided = 0
    for ch in [generate(spec) for spec in specs] + small_chain_pool():
        k = float(_vertex_curvatures(ch, dim).min())
        facets, nonfaces = _border(ch, dim)
        for f in facets:
            assert _measure_criterion(ch, f, dim, k), (ch.states, f)
        for nf in nonfaces:
            assert not _measure_criterion(ch, nf, dim, k), (ch.states, nf)
        decided += len(facets) + len(nonfaces)
    assert decided > 400


@pytest.mark.parametrize("dim", [INF, 4.0])
def test_union_proposition_on_the_border(dim):
    # the paper's union proposition as an oracle: two optimal sets at
    # combinatorial distance >= 5 have an optimal union, which must then lie
    # in a facet.  Two distinct facets can meet the precondition only if the
    # proposition fails (their union would be a larger face), so the pairs
    # of zero cells are what makes the check bite
    from curvkit.optimal import _border

    met = 0
    for spec, ch in _border_pool(dim):
        facets, _ = _border(ch, dim)
        cells = sorted({s for f in facets for s in f}, key=ch.index)
        pairs = list(combinations(facets, 2)) + [([a], [b]) for a, b in combinations(cells, 2)]
        for a0, a1 in pairs:
            rep = check_union_proposition(ch, a0, a1, dim)
            if rep.precondition_met:
                met += 1
                assert rep.union_optimal, (spec, a0, a1)
                assert any(set(a0) | set(a1) <= set(f) for f in facets), (spec, a0, a1)
    assert met > 0


def test_equilibrium_optimality_matches_sharpness():
    chains = {
        "Q1": hypercube(1), "Q2": hypercube(2), "Q3": hypercube(3),
        "C5": cycle(5), "C6": cycle(6), "C7": cycle(7), "C8": cycle(8),
        "K4": complete(4), "P4": path(4),
    }
    for label, ch in chains.items():
        eq = check_equilibrium_optimality(ch, INF)
        sharp = lichnerowicz_check(ch, ARITHMETIC).sharp
        assert eq == sharp, label


def test_sharp_chain_eigenfunction_has_constant_energy():
    # on a sharp chain the witness for the full set has constant Gamma > 0
    ch = hypercube(2)
    cert = is_optimal_set(ch, ch.states, INF)
    g = gamma(ch, cert.witness)
    assert g.min() > 1e-10
    assert g == pytest.approx(np.full(4, g[0]), rel=1e-6)


def test_non_optimal_measure_with_minimal_curvature():
    # two far-apart vertices of unequal curvature: the sum of indicators has
    # the global curvature yet fails optimality
    from curvkit import curvature_of_measure
    for n in (8, 9, 10):
        ch = path(n)
        ks = np.array([bakry_emery_vertex(ch, x, INF).value
                       for x in range(n)])
        k_glob = ks.min()
        dist = distance_matrix(ch)
        found = None
        for x in np.flatnonzero(np.abs(ks - k_glob) < 1e-9):
            for y in range(n):
                if dist[x, y] >= 5 and ks[y] > k_glob + 1e-6:
                    found = (int(x), int(y))
                    break
            if found:
                break
        if not found:
            continue
        x, y = found
        rho = np.zeros(n)
        rho[x] = rho[y] = 1.0          # indicator sum
        k_rho = curvature_of_measure(ch, ARITHMETIC, rho, INF,
                                     confirm=False).value
        assert k_rho == pytest.approx(k_glob, abs=1e-8)
        assert not is_optimal_set(ch, [str(x), str(y)], INF).is_optimal
        return
    pytest.fail("no path instance exposed the construction")


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        optimal_complex(cycle(30), INF)


def test_forms_cost_guard_refuses_before_any_curvature(monkeypatch):
    # Q^9's forms would hold 512 * 511^2 floats (1.07 GB): refused before
    # the vertex curvatures run; Q^8's (133 MB) pass the guard
    import curvkit.optimal as omod

    def unreached(chain, dim):
        raise AssertionError(f"vertex curvatures of {chain.n_states} states")

    monkeypatch.setattr(omod, "_vertex_curvatures", unreached)
    q9 = hypercube(9)
    far = (q9.states[0], q9.states[-1])
    for call in (lambda: is_optimal_set(q9, far[:1], INF),
                 lambda: check_equilibrium_optimality(q9, INF),
                 lambda: check_union_proposition(q9, far[:1], far[1:], INF)):
        with pytest.raises(TooLarge, match="optimal-set forms capped"):
            call()
    with pytest.raises(AssertionError, match="of 256 states"):
        is_optimal_set(hypercube(8), ["0" * 8], INF)


def test_witness_is_the_projection_of_the_sine_vector():
    # the witness is (sin 1, ..., sin n) off the constants, projected onto
    # the kernel of the summed padded forms and normalized
    from curvkit.gamma import _dirac_ball_forms
    from curvkit.optimal import _kernel_cutoff, _pointwise_forms

    rng = np.random.default_rng(1)
    witnesses = 0
    for ch in _ball_pool():
        size = ch.n_states
        form_scale = _pointwise_forms(ch, INF)[3]
        k = float(_vertex_curvatures(ch, INF).min())
        padded = []
        for x in range(size):
            ball, m, n = _dirac_ball_forms(ch, x, INF)
            padded.append(np.zeros((size, size)))
            padded[-1][np.ix_(ball, ball)] = m - k * n
        sines = np.sin(np.arange(1.0, size + 1.0))
        sines -= sines.mean()
        subsets = [[x] for x in np.flatnonzero(_vertex_curvatures(ch, INF) == k)]
        subsets += [rng.permutation(size)[:rng.integers(1, size + 1)] for _ in range(8)]
        for idx in subsets:
            cert = is_optimal_set(ch, [ch.states[i] for i in idx], INF)
            if not cert.is_optimal:
                continue
            evals, vecs = np.linalg.eigh(np.sum([padded[i] for i in idx], axis=0))
            kernel = vecs[:, evals <= _kernel_cutoff(evals, form_scale, len(idx))]
            proj = kernel @ (kernel.T @ sines)
            assert np.abs(cert.witness - proj / np.linalg.norm(proj)).max() <= 1e-10
            witnesses += 1
    assert witnesses > len(_ball_pool())


def test_optimal_complex_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert optimal_complex(cycle(8), INF).facets == optimal_complex_reference(
        cycle(8), INF).facets


def test_vertex_curvatures_computed_once_per_chain_and_dimension(monkeypatch):
    import curvkit.curvature as cmod

    real = cmod.bakry_emery_vertex
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cmod, "bakry_emery_vertex", counted)
    ch = cycle(8)
    first = bakry_emery_global(ch, INF)
    assert bakry_emery_global(ch, INF) == first
    assert optimal_complex(ch, INF).zero_cells == ch.states
    assert len(calls) == ch.n_states
    bakry_emery_global(ch, 4)
    bakry_emery_global(ch, 4.0)
    assert len(calls) == 2 * ch.n_states
    assert cmod._vertex_curvatures(ch, 4) is cmod._vertex_curvatures(ch, 4.0)


def test_is_optimal_set_takes_no_forms():
    import inspect

    assert "forms" not in inspect.signature(is_optimal_set).parameters


def test_projected_rows_and_kernel_basis_match_the_padded_forms():
    # the padded n x n forms q_x are the reference for the projected rows,
    # and their sum over a set annihilates is_optimal_set's kernel basis
    from curvkit.gamma import _dirac_ball_forms
    from curvkit.optimal import _kernel_cutoff, _pointwise_forms

    rng = np.random.default_rng(0)
    witnesses = 0
    for ch in _ball_pool():
        size = ch.n_states
        _, rows, helmert, form_scale = _pointwise_forms(ch, INF)
        # an orthonormal basis of the vectors with zero sum
        assert np.abs(helmert.T @ helmert - np.eye(size - 1)).max() <= 1e-14
        assert np.abs(helmert.sum(axis=0)).max() <= 1e-14
        k = float(_vertex_curvatures(ch, INF).min())
        padded = []
        for x in range(size):
            ball, m, n = _dirac_ball_forms(ch, x, INF)
            mat = np.zeros((size, size))
            mat[np.ix_(ball, ball)] = m - k * n
            padded.append(mat)
            proj = helmert.T @ mat @ helmert
            scale = max(1.0, np.abs(mat).max())
            assert np.abs(rows[x] - proj.ravel()).max() <= 1e-13 * scale
        subsets = [[x] for x in np.flatnonzero(_vertex_curvatures(ch, INF) == k)]
        subsets += [rng.permutation(size)[:rng.integers(1, size + 1)] for _ in range(8)]
        for idx in subsets:
            total = np.sum([padded[i] for i in idx], axis=0)
            evals = np.linalg.eigvalsh(total)
            cutoff = _kernel_cutoff(evals, form_scale, len(idx))
            cert = is_optimal_set(ch, [ch.states[i] for i in idx], INF)
            assert cert.kernel_dim == int((evals <= cutoff).sum())
            if cert.is_optimal:
                witnesses += 1
                assert np.linalg.norm(total @ cert.witness) <= cutoff
    assert witnesses > len(_ball_pool())


def test_unconfirmed_vertex_curvature_is_numerical_failure(tmp_path):
    # a 1e-10 middle edge: the degree coordinates confirm every vertex
    # curvature, and b and c attain the minimum, but the oracle's kernel
    # and Gram tolerances refuse the singletons {b} and {c}, so the zero
    # cells lie in no facet
    from curvkit import chain_from_edgelist
    from curvkit.cli import main

    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t1\nb\tc\t1e-10\nc\td\t1\n")
    ch = chain_from_edgelist(edges.read_text())
    assert bakry_emery_global(ch, INF)[1] == "b"
    with pytest.raises(NumericalFailure, match="b, c lie in no optimal set"):
        optimal_complex(ch, INF)
    assert main(["optimal-sets", "--in", str(edges),
                 "--out", str(tmp_path / "report.json")]) == 3


def test_zero_cell_outside_every_facet_is_numerical_failure(monkeypatch):
    # every vertex of path:8 reads as minimal, though only some are optimal
    # singletons: the others lie in no facet
    import curvkit.optimal as omod

    real = omod._vertex_curvatures
    monkeypatch.setattr(omod, "_vertex_curvatures",
                        lambda ch, dim: np.full(ch.n_states, real(ch, dim).min()))
    with pytest.raises(NumericalFailure, match="lie in no optimal set"):
        optimal_complex(path(8), INF)
