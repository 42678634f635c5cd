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

import numpy as np

from .chain import MarkovChain, derived, distance_matrix
from .curvature import AGREE_TOL, _vertex_curvatures
from .errors import InvalidParameters, NumericalFailure, TooLarge
from .gamma import _dirac_ball_forms

#: singular-value cutoff (relative to the largest) for null spaces of the
#: summed pointwise forms; absorbs the finite accuracy of the global K
KERNEL_REL_TOL = 1e-8
#: a Gram matrix of Gamma on the kernel below this scale counts as zero
GRAM_REL_TOL = 1e-10
#: optimal_complex refuses chains with more states than this
OPTIMAL_MAX_STATES = 24
#: cap on the n (n-1)^2 floats of the optimal-set forms: Q^8 fits, Q^9 does not
FORMS_MAX_FLOATS = 1 << 25
#: bitmask pairs compared at once by the border search; bounds its memory
BORDER_CHUNK = 1 << 18


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
    """(forms, rows, helmert, form_scale) at the global K.

    The columns of `helmert` (n x (n-1)) are an orthonormal basis of the
    vectors with zero sum.  forms[x] is (B, n_x on B x B) for B = B2(x), with
    f' n_x f = Gamma f(x); row x of `rows` holds H' q_x H, flattened, for
    q_x = m_x - K n_x, computed from the B x B blocks as H[B]' q_x H[B].
    Both forms vanish off B x B and kill the constants, so a sum of q_x has
    the eigenvalues of its projection and a zero for the constants."""
    size = chain.n_states
    if size * (size - 1) ** 2 > FORMS_MAX_FLOATS:
        raise TooLarge(f"optimal-set forms capped at {FORMS_MAX_FLOATS} floats")
    k = float(_vertex_curvatures(chain, dim).min())
    helmert = np.triu(np.ones((size, size - 1)))
    j = np.arange(1, size)
    helmert[j, j - 1] = -j
    helmert /= np.sqrt(j * (j + 1.0))
    forms, rows, form_scale = [], np.empty((size, (size - 1) ** 2)), 0.0
    for x, state in enumerate(chain.states):
        ball, m, n = _dirac_ball_forms(chain, state, dim)
        proj = helmert[ball].T @ (m - k * n) @ helmert[ball]
        rows[x] = (0.5 * (proj + proj.T)).ravel()
        forms.append((ball, n))
        form_scale = max(form_scale, float(np.abs(m).max() + abs(k) * np.abs(n).max()))
    for a in (rows, helmert, *(a for form in forms for a in form)):
        a.setflags(write=False)
    return forms, rows, helmert, form_scale


def _kernel_cutoff(evals: np.ndarray, form_scale: float, count):
    """Eigenvalue cutoff of the null space of a sum of `count` q_x, from the
    sum's eigenvalues along the last axis."""
    # the absolute term covers forms that cancel to rounding noise
    # (the summed matrix can be numerically zero on sharp chains)
    return KERNEL_REL_TOL * np.abs(evals).max(axis=-1) + 1e-12 * form_scale * count


def _positive_combination(grams: list[np.ndarray], first: np.ndarray):
    """A unit coefficient vector with strictly positive value in every PSD
    Gram form: `first` when it passes, which is generic (each Gram's zero
    set is a proper subspace), else the first passing Vandermonde vector.
    The scan must succeed, because a polynomial c(t)' G c(t) that vanishes
    at more points than its degree forces G = 0 on the kernel.
    """
    dim = len(grams[0])
    floors = [GRAM_REL_TOL * max(1.0, float(np.abs(g).max())) for g in grams]

    def good(c):
        c = c / np.linalg.norm(c)
        return all(float(c @ g @ c) > floor for g, floor in zip(grams, floors)), c

    ok, c = good(first)
    if ok:
        return c
    for t in range(1, 2 * dim * len(grams) + 2):
        ok, c = good(np.array([float(t) ** i for i in range(dim)]))
        if ok:
            return c
    return None


def is_optimal_set(chain: MarkovChain, states, dim) -> OptimalityCertificate:
    """Decide optimality of a vertex set at dimension dim (arithmetic mean).

    The kernel of the summed q_x is the constants plus H times the null
    vectors of the projected sum; `kernel_dim` counts both.  Gamma vanishes
    on the constants, so when the projected kernel is empty the set fails
    at the Gram test of its first vertex.  Like a pencil's, the witness is
    the normalized projection of (sin 1, sin 2, ...) onto the kernel off the
    constants, for any basis eigh returns, unless it misses a Gram form."""
    idx = [chain.index(s) for s in states]
    if not idx:
        raise InvalidParameters("the empty set has no optimality certificate")
    forms, rows, helmert, form_scale = _pointwise_forms(chain, float(dim))
    size = chain.n_states - 1
    total = (np.bincount(idx, minlength=chain.n_states) @ rows).reshape(size, size)
    evals, vecs = np.linalg.eigh(total)
    basis = helmert @ vecs[:, evals <= float(_kernel_cutoff(evals, form_scale, len(idx)))]
    kernel_dim = basis.shape[1] + 1
    grams = []
    for i in idx:
        ball, n = forms[i]
        on_ball = basis.take(ball, axis=0)    # faster than basis[ball] here
        g = on_ball.T @ n @ on_ball
        if np.abs(g).max(initial=0.0) <= GRAM_REL_TOL * max(1.0, float(np.abs(n).max())):
            # Gamma vanishes identically on the kernel at this vertex
            return OptimalityCertificate(False, None, kernel_dim, chain.states[i])
        grams.append(0.5 * (g + g.T))
    sines = np.sin(np.arange(1.0, chain.n_states + 1.0))
    c = _positive_combination(grams, basis.T @ sines)
    if c is None:        # pragma: no cover - Vandermonde fallback is exhaustive
        return OptimalityCertificate(False, None, kernel_dim, None)
    witness = basis @ c
    witness /= np.linalg.norm(witness)
    return OptimalityCertificate(True, witness, kernel_dim, None)


def _zero_cells(chain: MarkovChain, dim) -> tuple[str, ...]:
    """The minimal-curvature vertices, within AGREE_TOL of the global K."""
    curv = _vertex_curvatures(chain, float(dim))
    k_global = float(curv.min())
    tol = AGREE_TOL * max(1.0, abs(k_global))
    return tuple(s for s, k in zip(chain.states, curv) if k - k_global <= tol)


def _contains_any(sets: np.ndarray, subs: np.ndarray) -> np.ndarray:
    """Whether each bitmask of `sets` contains some bitmask of `subs`,
    compared in chunks of about BORDER_CHUNK pairs."""
    out = np.zeros(len(sets), dtype=bool)
    step = max(1, BORDER_CHUNK // max(1, len(subs)))
    for i in range(0, len(sets), step):
        out[i:i + step] = ((subs & ~sets[i:i + step, None]) == 0).any(axis=1)
    return out


def _border(chain: MarkovChain, dim):
    """(facets, minimal non-faces) of the optimal complex by Dualize and
    Advance, each a sorted list of state tuples in zero-cell order.

    The minimal sets in no known facet are the minimal transversals of the
    facets' complements, held as bitmasks over the zero cells and updated
    by Berge's step on each new facet.  Each untested one is decided by
    `is_optimal_set`, and a face is extended greedily to a new facet.  When
    every transversal fails, they are exactly the minimal non-faces."""
    x0 = _zero_cells(chain, dim)
    bits = 1 << np.arange(len(x0), dtype=np.int64)
    nonfaces = np.empty(0, dtype=np.int64)        # every set that failed

    def face(mask) -> bool:
        nonlocal nonfaces
        if is_optimal_set(chain, tuple(x0[j] for j in np.flatnonzero(mask & bits)),
                          dim).is_optimal:
            return True
        nonfaces = np.append(nonfaces, mask)
        return False

    def extend(mask):
        """A facet containing the face `mask`: add zero cells in index order,
        skipping every candidate that contains a known non-face."""
        for b in bits[(mask & bits) == 0]:
            if not ((nonfaces & ~(mask | b)) == 0).any() and face(mask | b):
                mask |= b
        return mask

    facets = [extend(np.int64(0))]                # tests every singleton it adds
    trans = bits[(facets[0] & bits) == 0]         # minimal transversals
    while True:
        new = []
        for t in trans[~np.isin(trans, nonfaces)]:
            # one inside a facet found this round is a face; Berge drops it
            if not any((t & f) == t for f in new) and face(t):
                new.append(extend(t))
        if not new:
            break
        for f in new:                             # Berge's step on ~f
            hit = (trans & ~f) != 0
            kept, miss = trans[hit], trans[~hit]
            # a join t | e can contain a kept transversal only through e
            joins = [j[~_contains_any(j, kept[(kept & e) != 0])]
                     for e in bits[(f & bits) == 0] for j in [miss | e]]
            trans = np.concatenate([kept, *joins])
        facets += new

    def named(masks):
        return sorted(tuple(s for s, b in zip(x0, bits) if m & b) for m in masks if m)
    return named(facets), named(trans)


def optimal_complex(chain: MarkovChain, dim) -> OptimalComplex:
    """The maximal optimal sets, found by the border search of `_border`.

    A minimal-curvature vertex is an optimal singleton (its pencil witness
    kills q_x with Gamma f(x) > 0), so a zero cell in no facet means K or the
    forms are too inaccurate to decide the complex: NumericalFailure."""
    if chain.n_states > OPTIMAL_MAX_STATES:
        raise TooLarge(
            f"optimal-set enumeration capped at {OPTIMAL_MAX_STATES} states")
    x0 = _zero_cells(chain, dim)
    facets, _ = _border(chain, dim)
    covered = {s for f in facets for s in f}
    if uncovered := [s for s in x0 if s not in covered]:
        raise NumericalFailure(
            f"minimal-curvature vertices {', '.join(uncovered)} lie in no optimal set")
    dimension = max((len(f) - 1 for f in facets), default=-1)
    return OptimalComplex(facets=facets, dimension=dimension, zero_cells=x0)


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
