"""Shared fixtures: standard chains, random reversible chains, the
reference Cheeger and optimal-set engines, and the exact pencil oracles."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from curvkit import (CheegerResult, TooLarge, build_chain, complete, cycle,
                     hypercube, is_optimal_set, path)
from curvkit.curvature import AGREE_TOL, _vertex_curvatures
from curvkit.geometry import cut_weight
from curvkit.optimal import OptimalComplex


@pytest.fixture
def two_state():
    return build_chain([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def cycle5():
    return cycle(5)


@pytest.fixture
def cycle6():
    return cycle(6)


@pytest.fixture
def hyp2():
    return hypercube(2)


@pytest.fixture
def hyp3():
    return hypercube(3)


def random_reversible_chain(n: int, seed: int, edge_prob: float = 0.5):
    """Weighted walk on a random connected graph: Q = w/rowsum, pi ~ rowsum."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                w[i, j] = w[j, i] = 0.2 + rng.random()
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):           # random spanning path
        w[a, b] = w[b, a] = max(w[a, b], 0.2 + rng.random())
    deg = w.sum(axis=1)
    q = w / deg[:, None]
    pi = deg / deg.sum()
    return build_chain(q, pi=pi)


def positive_density(chain, seed: int, spread: float = 1.0):
    """A strictly positive density with <rho, 1>_pi = 1."""
    rng = np.random.default_rng(seed)
    rho = np.exp(spread * rng.standard_normal(chain.n_states))
    return rho / float(rho @ chain.pi)


def small_chain_pool():
    """Mixed families used by the randomized cross-checks."""
    pool = [
        build_chain([[0.0, 1.0], [1.0, 0.0]]),
        build_chain([[0.5, 0.5], [0.5, 0.5]]),
        cycle(3), cycle(5), cycle(6),
        hypercube(1), hypercube(2), hypercube(3),
        complete(3), complete(4), complete(5),
        path(2), path(4), path(6),
    ]
    pool += [random_reversible_chain(n, seed) for n, seed in
             [(4, 11), (5, 12), (6, 13), (7, 14), (8, 15)]]
    return pool


def exact_measure_pencil(weights, rho, dim=None):
    """The forms (m, n) of a density rho (against pi) under the arithmetic
    mean, at dim inf (None) or a rational dim, of the random walk on a
    weighted graph, in rational arithmetic: matrices of Fractions over all
    states.

    With mu = rho pi the measure, L = Q - I and G_z the Gram matrix of
    Gamma at z, Gamma(f, g)(z) = f' G_z g with G_z = (diag q_z - q_z e_z'
    - e_z q_z' + e_z e_z') / 2, q_z the row of z in Q:
    n = sum_z mu_z G_z and
    m = (sum_w (L' mu)_w G_w - n L - L' n) / 2 - (1/dim) L' diag(mu) L."""
    size = len(weights)
    deg = [sum(map(Fraction, row)) for row in weights]
    q = [[Fraction(w) / d for w in row] for row, d in zip(weights, deg)]
    lap = [[q[i][j] - (i == j) for j in range(size)] for i in range(size)]
    mu = [Fraction(r) * d / sum(deg) for r, d in zip(rho, deg)]

    def gram_sum(coef):
        g = [[Fraction(0)] * size for _ in range(size)]
        for z, c in enumerate(coef):
            if not c:
                continue
            for y in range(size):
                g[y][y] += c * q[z][y] / 2
                g[y][z] -= c * q[z][y] / 2
                g[z][y] -= c * q[z][y] / 2
            g[z][z] += c / 2
        return g

    n = gram_sum(mu)
    lg = gram_sum([sum(mu[z] * lap[z][w] for z in range(size)) for w in range(size)])
    nl = [[sum(n[i][k] * lap[k][j] for k in range(size)) for j in range(size)]
          for i in range(size)]
    m = [[(lg[i][j] - nl[i][j] - nl[j][i]) / 2 for j in range(size)] for i in range(size)]
    if dim is not None:
        for i in range(size):
            for j in range(size):
                m[i][j] -= sum(mu[z] * lap[z][i] * lap[z][j] for z in range(size)) / dim
    return m, n


def exact_ball_pencil(weights, x, ball):
    """The 2-ball pencil (Gamma2 f(x), Gamma f(x)) at dim inf of the random
    walk on a weighted graph, in rational arithmetic: the forms of
    exact_measure_pencil for the unit mass at x, over the states in
    `ball`."""
    deg = [sum(map(Fraction, row)) for row in weights]
    rho = [sum(deg) / deg[x] if z == x else 0 for z in range(len(weights))]
    m, n = exact_measure_pencil(weights, rho)
    return ([[m[i][j] for j in ball] for i in ball],
            [[n[i][j] for j in ball] for i in ball])


def exact_psd(m, n, k) -> bool:
    """Whether m - k n is PSD, for the forms of exact_measure_pencil or
    exact_ball_pencil and a rational k, decided in rational arithmetic.

    Constants lie in the kernels of both forms, so dropping the first row
    and column loses nothing.  An LDL' of the rest with no pivoting and no
    floor decides: a negative pivot is not PSD, and a zero pivot is PSD
    only when the rest of its column is zero too."""
    a = [[m[i][j] - k * n[i][j] for j in range(1, len(m))] for i in range(1, len(m))]
    for p, row in enumerate(a):
        if row[p] < 0 or (row[p] == 0 and any(r[p] for r in a[p + 1:])):
            return False
        if row[p] == 0:
            continue
        for r in a[p + 1:]:
            ratio = r[p] / row[p]
            for j in range(p + 1, len(a)):
                r[j] -= ratio * row[j]
    return True


def cheeger_gray(chain, max_states: int = 20) -> CheegerResult:
    """Reference Cheeger engine: plain Gray-code walk with incremental cut
    updates, independent of the block enumeration in `curvkit.cheeger`."""
    n = chain.n_states
    if n < 2 or n > max_states:
        raise TooLarge(f"gray cheeger limited to 2..{max_states} states")
    w = chain.w
    pi = chain.pi
    in_set = np.zeros(n, dtype=bool)
    cut = 0.0
    piw = 0.0
    best = math.inf
    best_members: list[int] = []
    best_flip = False
    prev_gray = 0
    for m in range(1, 1 << (n - 1)):
        gray = m ^ (m >> 1)
        j = ((gray ^ prev_gray).bit_length() - 1) + 1   # vertex 0 stays outside
        prev_gray = gray
        if in_set[j]:
            in_set[j] = False
            piw -= pi[j]
            cut += 2.0 * float(w[j] @ in_set) - float(w[j].sum())
        else:
            cut += float(w[j].sum()) - 2.0 * float(w[j] @ in_set)
            in_set[j] = True
            piw += pi[j]
        if 0 < piw <= 0.5 + 1e-12:
            ratio = cut / piw
            if ratio < best:
                best = ratio
                best_members, best_flip = list(np.flatnonzero(in_set)), False
        if 0.5 - 1e-12 <= piw < 1.0:
            ratio = cut / (1.0 - piw)
            if ratio < best:
                best = ratio
                best_members, best_flip = list(np.flatnonzero(in_set)), True
    if best_flip:
        chosen = set(best_members)
        best_members = [i for i in range(n) if i not in chosen]
    h = cut_weight(chain, best_members) / float(pi[best_members].sum())
    subset = sorted((chain.states[i] for i in best_members), key=chain.index)
    return CheegerResult(h=h, subset=tuple(subset))


def optimal_complex_reference(chain, dim) -> OptimalComplex:
    """Reference optimal-set engine: the downward search that decides every
    candidate outside a known facet by `is_optimal_set`."""
    curv = _vertex_curvatures(chain, float(dim))
    k_global = float(curv.min())
    tol = AGREE_TOL * max(1.0, abs(k_global))
    x0 = tuple(s for s, k in zip(chain.states, curv) if k - k_global <= tol)
    facets: list[frozenset] = []
    for size in range(len(x0), 0, -1):
        for combo in combinations(x0, size):
            cand = frozenset(combo)
            if any(cand <= f for f in facets):
                continue
            if is_optimal_set(chain, combo, dim).is_optimal:
                facets.append(cand)
    facet_tuples = sorted(tuple(sorted(f, key=chain.index)) for f in facets)
    dimension = max((len(f) - 1 for f in facet_tuples), default=-1)
    return OptimalComplex(facets=facet_tuples, dimension=dimension,
                          zero_cells=x0)
