"""Optimal measures and sets for the arithmetic mean.

A set A is optimal at dimension dim when some f0 kills every pointwise form
q_x(f) = (Gamma2 f - (1/dim)(Delta f)^2 - K Gamma f)(x), x in A, at the global
curvature K, while Gamma f0 > 0 throughout A.  Since each q_x is PSD at the
global K, this is a null-space intersection problem: optimal sets are
downward closed and form a simplicial complex on the minimal-curvature
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .chain import MarkovChain, derived, distance_matrix
from .curvature import _vertex_curvatures
from .errors import InvalidParameters, TooLarge
from .gamma import _dirac_ball_forms

#: singular-value cutoff (relative to the largest) for null spaces of the
#: summed pointwise forms; absorbs the finite accuracy of the global K
KERNEL_REL_TOL = 1e-8
#: a Gram matrix of Gamma on the kernel below this scale counts as zero
GRAM_REL_TOL = 1e-10
#: tolerance for membership in the minimal-curvature vertex set
X0_REL_TOL = 1e-8
#: optimal_complex refuses chains with more states than this
OPTIMAL_MAX_STATES = 24
#: the screen rejects a set only when its least projected eigenvalue exceeds
#: this multiple of the kernel cutoff, far beyond rounding
SCREEN_MARGIN = 10.0
#: candidates screened per stacked eigvalsh; bounds the screen's memory
SCREEN_CHUNK = 512


@dataclass
class OptimalityCertificate:
    is_optimal: bool
    witness: np.ndarray | None       # f0 with Gamma f0 > 0 on the set, iff optimal
    kernel_dim: int
    failing_vertex: str | None       # vertex where Gamma must vanish on the kernel


@dataclass
class OptimalComplex:
    facets: list[tuple[str, ...]]    # maximal optimal sets, lexicographic
    dimension: int                   # max |facet| - 1
    zero_cells: tuple[str, ...]      # minimal-curvature vertices


@derived
def _pointwise_forms(chain: MarkovChain, dim: float):
    """(forms, form_scale) at the global K.  forms[x] holds, for B = B2(x):
    B, the flat positions of B x B in an n x n matrix, q_x = m_x - K n_x on
    B x B (flattened) and n_x on B x B (f' n_x f = Gamma f(x)).  Both forms
    vanish off B x B."""
    k = float(_vertex_curvatures(chain, dim).min())
    size = chain.n_states
    forms, form_scale = [], 0.0
    for state in chain.states:
        ball, m, n = _dirac_ball_forms(chain, state, dim)
        forms.append((ball, (ball[:, None] * size + ball).ravel(), (m - k * n).ravel(), n))
        for a in forms[-1]:
            a.setflags(write=False)
        form_scale = max(form_scale, float(np.abs(m).max() + abs(k) * np.abs(n).max()))
    return forms, form_scale


def _summed_q(size: int, forms: list) -> np.ndarray:
    """Sum of the q_x of the given forms, as an n x n matrix."""
    return np.bincount(np.concatenate([pos for _, pos, _, _ in forms]),
                       np.concatenate([q for _, _, q, _ in forms]),
                       minlength=size * size).reshape(size, size)


def _kernel_cutoff(evals: np.ndarray, form_scale: float, count):
    """Eigenvalue cutoff of the null space of a sum of `count` q_x, from the
    sum's eigenvalues along the last axis."""
    # the absolute term covers forms that cancel to rounding noise
    # (the summed matrix can be numerically zero on sharp chains)
    return KERNEL_REL_TOL * np.abs(evals).max(axis=-1) + 1e-12 * form_scale * count


def _kernel_basis(size: int, forms: list, form_scale: float) -> np.ndarray:
    """Null space of the sum of the q_x of the given forms, as columns."""
    total = _summed_q(size, forms)
    total = 0.5 * (total + total.T)
    evals, vecs = np.linalg.eigh(total)
    return vecs[:, evals <= float(_kernel_cutoff(evals, form_scale, len(forms)))]


@derived
def _projected_forms(chain: MarkovChain, dim: float) -> np.ndarray:
    """Row x holds P' q_x P, flattened, where the columns of P (Helmert) are
    an orthonormal basis of the vectors with zero sum.  Every q_x kills the
    constants, so a summed q has the eigenvalues of its projection and a
    zero for the constants."""
    forms, _ = _pointwise_forms(chain, dim)
    size = chain.n_states
    helmert = np.tril(np.ones((size, size - 1)))
    k = np.arange(1, size)
    helmert[k, k - 1] = -k
    helmert /= np.sqrt(k * (k + 1.0))
    proj = np.array([helmert.T @ _summed_q(size, [form]) @ helmert for form in forms])
    rows = (0.5 * (proj + proj.transpose(0, 2, 1))).reshape(size, -1)
    rows.setflags(write=False)
    return rows


def _screen(chain: MarkovChain, dim: float, sets: np.ndarray) -> np.ndarray:
    """Which of the vertex sets (0/1 rows over the states) may be optimal.
    A set is rejected only when its summed q has no eigenvalue within
    SCREEN_MARGIN cutoffs of zero off the constants: then its kernel is the
    constants, on which Gamma vanishes, and `is_optimal_set` fails it at
    its Gram test."""
    _, form_scale = _pointwise_forms(chain, dim)
    size = chain.n_states - 1
    summed = (sets @ _projected_forms(chain, dim)).reshape(-1, size, size)
    evals = np.linalg.eigvalsh(summed)
    cutoff = _kernel_cutoff(evals, form_scale, sets.sum(axis=1))
    return ~(evals[:, 0] > SCREEN_MARGIN * cutoff)      # a NaN keeps the set


def _positive_combination(grams: list[np.ndarray], basis: np.ndarray,
                          rng: np.random.Generator):
    """A kernel vector with strictly positive value in every PSD Gram form.

    Random draws are generically sufficient (each Gram's zero set is a
    proper subspace); the fallback scans Vandermonde coefficient vectors,
    which must succeed because a polynomial c(t)' G c(t) that vanishes at
    more points than its degree forces G = 0 on the kernel.
    """
    dim = basis.shape[1]
    floors = [GRAM_REL_TOL * max(1.0, float(np.abs(g).max())) for g in grams]

    def good(c):
        c = c / np.linalg.norm(c)
        return all(float(c @ g @ c) > floor for g, floor in zip(grams, floors)), c

    for _ in range(100):
        ok, c = good(rng.standard_normal(dim))
        if ok:
            return c
    for t in range(1, 2 * dim * len(grams) + 2):
        ok, c = good(np.array([float(t) ** i for i in range(dim)]))
        if ok:
            return c
    return None


def is_optimal_set(chain: MarkovChain, states, dim) -> OptimalityCertificate:
    """Decide optimality of a vertex set at dimension dim (arithmetic mean)."""
    idx = [chain.index(s) for s in states]
    if not idx:
        raise InvalidParameters("the empty set has no optimality certificate")
    forms, form_scale = _pointwise_forms(chain, float(dim))
    basis = _kernel_basis(chain.n_states, [forms[i] for i in idx], form_scale)
    kernel_dim = basis.shape[1]
    if kernel_dim == 0:
        return OptimalityCertificate(False, None, 0, chain.states[idx[0]])
    grams = []
    for i in idx:
        ball, _, _, n = forms[i]
        on_ball = basis.take(ball, axis=0)    # faster than basis[ball] here
        g = on_ball.T @ n @ on_ball
        if np.abs(g).max() <= GRAM_REL_TOL * max(1.0, float(np.abs(n).max())):
            # Gamma vanishes identically on the kernel at this vertex
            return OptimalityCertificate(False, None, kernel_dim, chain.states[i])
        grams.append(0.5 * (g + g.T))
    c = _positive_combination(grams, basis, np.random.default_rng(0))
    if c is None:        # pragma: no cover - Vandermonde fallback is exhaustive
        return OptimalityCertificate(False, None, kernel_dim, None)
    witness = basis @ c
    witness /= np.linalg.norm(witness)
    return OptimalityCertificate(True, witness, kernel_dim, None)


def optimal_complex(chain: MarkovChain, dim) -> OptimalComplex:
    """Enumerate the maximal optimal sets by downward search from the
    minimal-curvature vertices, pruning subsets of known facets.

    Each level is handled in chunks: candidates inside a facet of a larger
    level are dropped by a bitmask test, the rest go through the stacked
    `_screen`, and each survivor is decided by `is_optimal_set`."""
    if chain.n_states > OPTIMAL_MAX_STATES:
        raise TooLarge(
            f"optimal-set enumeration capped at {OPTIMAL_MAX_STATES} states")
    curv = _vertex_curvatures(chain, float(dim))
    k_global = float(curv.min())
    tol = X0_REL_TOL * max(1.0, abs(k_global))
    x0 = tuple(s for s, k in zip(chain.states, curv) if k - k_global <= tol)
    cols = np.array([chain.index(s) for s in x0])
    bits = 1 << np.arange(len(x0), dtype=np.int64)
    facets = np.empty(0, dtype=np.int64)          # bitmasks over x0
    for size in range(len(x0), 0, -1):
        combos = combinations(range(len(x0)), size)
        found = []
        while chunk := list(islice(combos, SCREEN_CHUNK)):
            pos = np.array(chunk)
            masks = bits[pos].sum(axis=1)
            # a candidate of this level can only lie inside a larger facet
            pos = pos[((masks[:, None] & ~facets) != 0).all(axis=1)]
            sets = np.zeros((len(pos), chain.n_states))
            sets[np.arange(len(pos))[:, None], cols[pos]] = 1.0
            for row in pos[_screen(chain, float(dim), sets)]:
                if is_optimal_set(chain, tuple(x0[j] for j in row), dim).is_optimal:
                    found.append(bits[row].sum())
        facets = np.append(facets, np.array(found, dtype=np.int64))
    facet_tuples = sorted(tuple(s for s, b in zip(x0, bits) if f & b)
                          for f in facets)
    dimension = max((len(f) - 1 for f in facet_tuples), default=-1)
    return OptimalComplex(facets=facet_tuples, dimension=dimension,
                          zero_cells=x0)


def check_equilibrium_optimality(chain: MarkovChain, dim=np.inf) -> bool:
    """Whether the full vertex set (support of the constant density) is optimal."""
    return is_optimal_set(chain, chain.states, dim).is_optimal


@dataclass
class UnionReport:
    distance: int
    precondition_met: bool
    union_optimal: bool | None


def check_union_proposition(chain: MarkovChain, a0, a1, dim) -> UnionReport:
    """Union of two optimal sets at combinatorial distance >= 5.

    When the distance precondition fails the union is reported without any
    optimality claim (no assertion made).
    """
    i0 = [chain.index(s) for s in a0]
    i1 = [chain.index(s) for s in a1]
    if not (i0 and i1):
        raise InvalidParameters("the union proposition needs two nonempty sets")
    dist = distance_matrix(chain)
    d = int(min(dist[i, j] for i in i0 for j in i1))
    if d < 5:
        return UnionReport(distance=d, precondition_met=False, union_optimal=None)
    cert = is_optimal_set(chain, tuple(a0) + tuple(s for s in a1 if s not in a0), dim)
    return UnionReport(distance=d, precondition_met=True,
                       union_optimal=cert.is_optimal)
