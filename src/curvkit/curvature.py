"""Curvature solvers: best constant K with m - K n >= 0 over a form pair.

The optimal constant of the curvature-dimension inequality for a fixed
density is sup{K : m - K n is positive semidefinite}.  One reduction
(_reduce) solves every such pencil.  n is the weighted Laplacian of the
edges the density lives on, so its null space is spanned by the indicators
of that graph's components, and the reduction reads it from the exact
zeros of the forms, with no tolerance: states where both forms vanish drop
out; states where only m lives (the 2-sphere of the support) and all but
one component indicator per connected block of the forms are eliminated
by a Schur solve; one state per component is grounded; and the pencil left
is solved through a Cholesky factor of the Jacobi-scaled grounded n
(Cushing, Kamtue, Liu, Muench, Peyerimhoff & Snodgrass, Calc. Var. PDE 61,
2022; Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  A
reduced matrix whose eigenvalues cannot resolve K to AGREE_TOL is refused.

Each value gets one bracket (_psd_bracket) on its unreduced forms, and
neither end trusts the reduction.  The lower end k - h passes the PSD test
of m - (k - h) n.  The upper end k + h fails that test for a general
pencil.  A vertex pencil (the Dirac density under the arithmetic mean)
comes from its assembly already split into x, S1 and S2; there k + h must
lie above the witness's Rayleigh quotient M(f)/N(f), evaluated through
the Gamma operators' edge sums on the 2-ball (_cd_values), an upper bound
on K at every f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovChain, derived
from .errors import DomainError, InvalidParameters, NumericalFailure
from .gamma import (_cd_grad, _cd_values, _density_d1, _dimension, _dirac_ball,
                    _form_matrices, assemble_forms)
from .heat import lambda1
from .means import ARITHMETIC, LOGARITHMIC, get_mean

POS_INFINITY = float("inf")

#: eigenvalues of n below this relative threshold count as null directions
#: in the descent's rank stop (curvature_grad_rho)
NULL_REL_TOL = 1e-12
#: relative eigenvalue floor of the PSD test that confirms each pencil
PSD_REL_FLOOR = 1e-11
#: relative half-width of the widest PSD bracket that certifies a pencil value
AGREE_TOL = 1e-8
#: cluster width: pencil eigenvalues this close to the least one count as
#: one multiple eigenvalue, whose witnesses the curvature gradient averages
GRAD_GAP_TOL = 1e-7
#: L-BFGS-B relative reduction tolerance and iteration cap per start
DESCENT_FTOL = 1e-8
DESCENT_MAX_ITERS = 500
#: an entropic K at or above -NONNEG_TOL counts as K >= 0
NONNEG_TOL = 1e-6


@dataclass
class CurvatureResult:
    """Curvature value with its witness function and solver diagnostics."""

    value: float
    witness: np.ndarray
    bracket: tuple[float, float] | None
    iterations: int
    null_dim: int


def _components(adj: np.ndarray) -> np.ndarray:
    """The least index of each index's connected component in the graph of
    the symmetric boolean matrix adj, from its reach, squared."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for _ in range((len(adj) - 1).bit_length()):
        step = reach.astype(float)
        reach = step @ step > 0
    return reach.argmax(axis=1)


def _grounded(n: np.ndarray):
    """The split of _reduce where n's graph is connected: one component,
    grounded at its largest n-diagonal entry, in one block."""
    free = np.arange(len(n) - 1)
    free[np.argmax(n.diagonal()):] += 1
    return free, slice(0, 0), [], [slice(None)]


def _split(m: np.ndarray, n: np.ndarray):
    """(free, sphere, indicators, blocks) of _reduce, read from the exact
    zeros of the forms.

    A component of n's graph is grounded at its largest n-diagonal entry,
    and its other states are free.  sphere lists the states where only m
    lives.  indicators lists the components whose indicators are
    eliminated: all but the first in each connected block of (m, n), whose
    constant lies in the kernels of both forms.  blocks lists those
    blocks, on which the witness is centred.
    """
    comp = _components(n != 0)
    if not comp.any():
        return _grounded(n)
    live, kept = n.any(axis=1), (m != 0) | (n != 0)
    block = _components(kept)
    free, indicators, grounded = live.copy(), [], set()
    for c in np.unique(comp[live]):
        members = np.flatnonzero(comp == c)
        free[members[np.argmax(n.diagonal()[members])]] = False
        if block[c] in grounded:
            indicators.append(members)
        grounded.add(block[c])
    kept = kept.any(axis=1)
    return (np.flatnonzero(free), np.flatnonzero(kept & ~live), indicators,
            [np.flatnonzero(block == b) for b in np.unique(block[kept])])


def _cholesky(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"{what} is not positive definite") from None


def _reduce(m: np.ndarray, n: np.ndarray, split=None):
    """sup{K : m - K n >= 0} for forms m, n with the constants in their
    kernels and n a weighted Laplacian, split as _split reads them unless
    `split` is given (free and sphere as index arrays or slices).

    The sphere block of m must be a positive diagonal E, where n vanishes;
    it is eliminated first, then the eliminated indicators, whose block of
    m must be positive definite.  On the free states n must be positive
    definite: with the Jacobi scale s = diag(n)^-1/2 and the Cholesky
    factor L of s n s (dropped where n is diagonal there), K is the least
    eigenvalue of R = L^-1 s S s L^-T, S the Schur complement of m.  Any
    other structure is a NumericalFailure, and so is an R that is not
    finite or whose eigenvalue error bound eps ||R|| exceeds AGREE_TOL
    max(1, |K|): such a K has no digit the bracket could certify, and a
    descent that reads it only wanders (the densities of range 1e26 that
    the L-BFGS box admits give K off by 1e6).
    Returns (K, cluster, null_dim): the rows of
    cluster are n-orthonormal witnesses of the eigenvalues within
    GRAD_GAP_TOL of K, lifted to every state and centred on each block;
    null_dim is the dimension of n's null space.
    """
    free, sphere, indicators, blocks = _split(m, n) if split is None else split
    j = len(indicators)
    if j:       # coordinates: the eliminated indicators, then the free states
        basis = np.zeros((len(n), j + len(free)))
        for col, members in enumerate(indicators):
            basis[members, col] = 1.0
        basis[free, np.arange(j, j + len(free))] = 1.0
        cols = m @ basis
        schur = basis.T @ cols
    else:
        cols = m[:, free]
        schur = cols[free]
    e = m.diagonal()[sphere]
    if e.size:
        if (not (e > 0).all() or n[sphere].any()
                or np.count_nonzero(m[sphere][:, sphere]) > len(e)):
            raise NumericalFailure("the sphere block of (m, n) is not (positive diagonal, 0)")
        elim = cols[sphere] / e[:, None]
        schur = schur - cols[sphere].T @ elim
    if j:
        _cholesky(schur[:j, :j], "m on the null space of n")
        back = np.linalg.solve(schur[:j, :j], schur[:j, j:])
        schur = schur[j:, j:] - schur[j:, :j] @ back
    grounded = n[free][:, free]
    d = grounded.diagonal()
    if not (d > 0).all() or not d.size:
        raise NumericalFailure("n vanishes, or the grounded n is not positive definite")
    scale = 1.0 / np.sqrt(d)
    r, to_free = schur * scale * scale[:, None], np.diag(scale)
    if np.count_nonzero(grounded) > len(d):     # n couples free states
        unit = grounded * scale * scale[:, None]
        np.fill_diagonal(unit, 1.0)
        inv = np.linalg.inv(_cholesky(unit, "the grounded n"))
        r, to_free = inv @ r @ inv.T, to_free @ inv.T
    r = 0.5 * (r + r.T)
    if not np.isfinite(r).all():
        raise NumericalFailure("the reduced pencil is not finite")
    pvals, pvecs = np.linalg.eigh(r)
    k = float(pvals[0])
    # eigh's eigenvalues are exact for a matrix within eps ||R|| of R
    if np.finfo(float).eps * np.abs(pvals).max() > AGREE_TOL * max(1.0, abs(k)):
        raise NumericalFailure(f"the reduced pencil cannot resolve K={k!r} to {AGREE_TOL}")
    y = to_free @ pvecs[:, pvals - k < GRAD_GAP_TOL]
    lift = np.zeros((len(n), y.shape[1]))
    lift[free] = y
    if j:
        y = np.vstack([-back @ y, y])
        lift += basis[:, :j] @ y[:j]
    if e.size:
        lift[sphere] = -elim @ y
    for b in blocks:
        lift[b] -= lift[b].mean(axis=0)
    return k, lift.T, len(n) - len(d)


def _psd_bracket(m: np.ndarray, n: np.ndarray, k: float, upper: float | None = None):
    """Certify the pencil value k by the PSD test of the unreduced m - K n.

    k is certified to within h when m - K n is PSD at k - h and k + h lies
    above K: m - K n is not PSD there, or, when `upper` is given, k + h
    exceeds upper, an upper bound on K (a Rayleigh quotient with its
    rounding allowance).  Each test of either end counts as one, and each
    PSD test is one eigvalsh.  The pairs tried are h = min(d, 5e-9), d
    and 4d, d = AGREE_TOL/4 * max(1, |k|): at large |k| the floor hides a
    5e-9 step, and the widest pair is the agreement tolerance itself.
    Returns (tests, bracket); raises NumericalFailure when no pair
    certifies k, naming the end that failed at the widest pair.

    The floor is read from the entries of the forms it tests:
    PSD_REL_FLOOR * max(max|m|, max|n|), plus a 1e-13 |K| max|n|
    allowance for the rounding of K n in m - K n (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10).  m and n are both linear
    in the density, so the floor scales with them and K(c rho) = K(rho)
    is certified at every scale whose entries are normal floats.  Every K
    is finite, so the allowance serves only large |K|, which small
    dimensions make (K is about -2e6 at a vertex of the 6-cycle at dim
    1e-6), where |K| max|n| can exceed the fixed part.
    """
    m_max, n_max = float(np.abs(m).max()), float(np.abs(n).max())
    tests = 0

    def psd_at(kk):
        nonlocal tests
        tests += 1
        if upper is not None and kk > k:     # the upper end; a nan bound refuses
            return not upper < kk
        floor = PSD_REL_FLOOR * max(m_max, n_max) + 1e-13 * abs(kk) * n_max
        return bool(np.linalg.eigvalsh(m - kk * n).min() >= -floor)

    d = 0.25 * AGREE_TOL * max(1.0, abs(k))
    for h in sorted({min(d, 5e-9), d, 4.0 * d}):
        if (below := psd_at(k - h)) and not psd_at(k + h):
            return tests, (k - h, k + h)
    end = "lower end: m - (K - h) n is not PSD" if not below else "upper end: " + (
        "m - (K + h) n is PSD" if upper is None else "K + h is not above the Rayleigh quotient")
    raise NumericalFailure(f"pencil K={k!r} and the PSD test of m - K n disagree beyond "
                           f"{AGREE_TOL}; at the widest pair h={h!r}, the {end}")


def solve_pencil(m: np.ndarray, n: np.ndarray, confirm: bool = True) -> CurvatureResult:
    """Solve sup{K : m - K n >= 0}, with optional confirmation by
    _psd_bracket, which raises NumericalFailure when it refuses the value
    and reads its floor from the entries of m and n; an unconfirmed solve
    makes no eigvalsh call.  The witness is _witness's.  m and n are the
    forms of a density: the constants lie in both kernels, and n is a
    weighted Laplacian.
    """
    k, cluster, null_dim = _reduce(m, n)
    iterations, bracket = _psd_bracket(m, n, k) if confirm else (0, None)
    return CurvatureResult(value=k, witness=_witness(n, cluster), bracket=bracket,
                           iterations=iterations, null_dim=null_dim)


def _witness(n: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """The witness of a pencil value from the n-orthonormal rows of its
    cluster: the n-normalized n-orthogonal projection of g = (sin 1,
    sin 2, ...), which has no rational linear relation (e^i is
    transcendental), onto the cluster's span, so no basis of that span
    changes it; a one-dimensional cluster has its sign fixed, f' n g > 0.
    An n-norm f' n f that is not positive and finite (it can underflow) is
    a NumericalFailure.
    """
    f = cluster.T @ (cluster @ (n @ np.sin(np.arange(1.0, len(n) + 1.0))))
    norm = float(f @ n @ f)
    if not 0.0 < norm < POS_INFINITY:
        raise NumericalFailure(f"witness of n-norm {norm!r} cannot be normalized")
    return f / np.sqrt(norm)


def curvature_of_measure(chain: MarkovChain, mean, rho, dim,
                         confirm: bool = True) -> CurvatureResult:
    """Optimal curvature constant of a fixed density at dimension dim."""
    fp = assemble_forms(chain, mean, rho, dim)
    return solve_pencil(fp.m, fp.n, confirm=confirm)


def bakry_emery_vertex(chain: MarkovChain, state, dim) -> CurvatureResult:
    """Vertex curvature: the Dirac density under the arithmetic mean.

    The forms vanish outside the 2-ball B2 of the vertex, so they are
    assembled on that ball, in the order x, S1, S2, and _reduce takes that
    split: x grounded, S1 free, S2 the sphere.  n is diagonal on S1, so K
    is the least eigenvalue of the |S1|-sized R = D^-1/2 A D^-1/2, D the
    degrees of n and A the Schur complement of m on S1.  The bracket's
    lower end is the PSD test of the unreduced B2 matrix, whose floor
    _psd_bracket reads from the largest entries of m and n, as for every
    density; its upper end is the witness's
    Rayleigh quotient M(f)/N(f), evaluated by _cd_values on the ball
    through the Gamma operators' edge sums at f / max|f|, which cannot
    overflow, plus PSD_REL_FLOOR times the sum of |M|'s terms over N.
    Neither end reads R.  The witness is re-embedded in all n states, zero
    outside B2.
    """
    ball, args = _dirac_ball(chain, state, dim)
    m, n = _form_matrices(*args)
    k1 = int(np.count_nonzero(chain.adjacency[ball[0]]))
    k, cluster, null_dim = _reduce(
        m, n, (slice(1, k1 + 1), slice(k1 + 1, None), [], [slice(None)]))
    f = _witness(n, cluster)
    m_val, n_val, m_abs = _cd_values(*args, f / np.abs(f).max())
    upper = (m_val + PSD_REL_FLOOR * m_abs) / n_val if n_val > 0 else POS_INFINITY
    iterations, bracket = _psd_bracket(m, n, k, upper)
    witness = np.zeros(chain.n_states)
    witness[ball] = f
    return CurvatureResult(value=k, witness=witness, bracket=bracket,
                           iterations=iterations, null_dim=null_dim)


@derived
def _vertex_curvatures(chain: MarkovChain, dim: float) -> np.ndarray:
    """Vertex curvature of every state at dimension dim, each confirmed by
    both routes."""
    curv = np.array([bakry_emery_vertex(chain, state, dim).value
                     for state in chain.states])
    curv.setflags(write=False)
    return curv


def bakry_emery_global(chain: MarkovChain, dim) -> tuple[float, str]:
    """Global curvature: minimum of the vertex curvatures (arithmetic mean)
    and the first state that attains it."""
    curv = _vertex_curvatures(chain, float(dim))
    best = int(np.argmin(curv))
    return float(curv[best]), chain.states[best]


def curvature_grad_rho(chain: MarkovChain, mean, rho, dim) -> tuple[float, np.ndarray]:
    """Value and gradient of rho -> K_dim(rho), from one pencil solve.

    K is the least pencil eigenvalue, M(f)/N(f) at its witness f.  The
    gradient is (grad M - K grad N) / N at fixed f, which cd_quadratic_grad
    evaluates exactly in one pass over the edges, averaged over the
    n-orthonormal witnesses of the eigenvalues within GRAD_GAP_TOL of K.
    The density is validated and d1theta evaluated on its edges once; the
    forms and every witness's gradient read that one evaluation.
    For a simple eigenvalue that is first-order eigenvalue sensitivity; for
    a multiple one it is the gradient of the cluster's mean eigenvalue, the
    trace of the form derivative over the eigenspace (Lewis & Overton, Acta
    Numerica 1996), whichever eigenbasis the solver returns.
    """
    mean = get_mean(mean)
    rho, d1 = _density_d1(chain, mean, rho)
    m, n = _form_matrices(chain.q, chain.pi, chain.edges, d1, rho,
                          _dimension(dim))
    # a positive density under a mean with positive d1 weighs every edge of
    # the irreducible chain in n, so n's graph is connected
    positive = bool((rho > 0).all())
    k, cluster, _ = _reduce(m, n, _grounded(n) if positive and (d1 > 0).all() else None)
    if positive:
        # n vanishes only on constants at a positive density; more
        # eigenvalues of n near 0 mean the density's range has outrun the
        # precision of the pencil, and the descent stops there
        evals = np.linalg.eigvalsh(n)
        null_dim = int((evals <= NULL_REL_TOL * max(float(evals.max()), 1e-300)).sum())
        if null_dim > 1:
            raise NumericalFailure(f"n lost rank ({null_dim} null directions) "
                                   "at a strictly positive density")
    parts = [_cd_grad(chain, mean, rho, d1, dim, w) for w in cluster]
    return k, np.mean([(dm - k * dn) / nm for _, nm, dm, dn in parts], axis=0)


@dataclass
class EntropicEstimate:
    """Best upper bound on the global curvature found by multi-start descent.

    Every density yields an upper bound on the chain curvature; k_hat is
    the least value seen that the PSD test confirms.
    The global infimum is NOT certified: certified_nonnegative is a
    heuristic flag only.
    """

    k_hat: float
    rho_star: np.ndarray
    starts: int
    per_start: list[tuple[float, bool]] = field(default_factory=list)
    certified_nonnegative: bool = False


def _least_confirmed(chain: MarkovChain, mean, dim, seen):
    """Least K among the evaluated densities that survives the two-route
    solve, with its density normalized to <rho, 1>_pi = 1.

    Descent can run into densities so lopsided that the pencil of the
    unconfirmed evaluation is numerically meaningless; those are skipped.
    """
    for k, rho in sorted(seen, key=lambda item: item[0]):
        rho = rho / float(np.dot(rho, chain.pi))
        try:
            return curvature_of_measure(chain, mean, rho, dim).value, rho
        except (NumericalFailure, np.linalg.LinAlgError):
            continue
    return POS_INFINITY, None


def entropic_curvature_estimate(chain: MarkovChain, dim, starts: int = 32,
                                seed: int = 0, mean=LOGARITHMIC) -> EntropicEstimate:
    """Minimize K_dim(rho) over the open probability simplex.

    Densities are parameterized as rho = exp(u)/<exp(u), 1>_pi so every
    iterate stays strictly positive and normalized.  Starts: the constant
    density, smoothed Dirac bumps (at most 8), then Dirichlet-random
    densities.  Runs are sequential in index order, so results are
    reproducible for a fixed (seed, starts).  Each start records the least
    confirmed value along its descent (see _least_confirmed).  A start
    whose eigensolver raises LinAlgError is recorded as (inf, False) and
    the next one runs; NumericalFailure is raised only when no start gives
    a confirmed value.  The arguments are checked before scipy.optimize is
    imported, so a bad call costs no import.
    """
    dim = _dimension(dim)
    if starts < 1:
        raise InvalidParameters(
            f"the entropic optimizer needs starts >= 1, got {starts}")
    mean = get_mean(mean)
    if mean.domain_class != "open":
        raise DomainError("the entropic optimizer needs an open-domain mean")
    import scipy.optimize

    n = chain.n_states
    pi = chain.pi

    def rho_of(u):
        e = np.exp(u - u.max())
        return e / float(np.dot(e, pi))

    start_rhos = [np.ones(n)]
    eps = 0.05
    for ix in range(min(n, 8)):
        rho = np.full(n, eps)
        rho[ix] += (1.0 - eps) / pi[ix]
        start_rhos.append(rho)
    while len(start_rhos) < starts:
        rng = np.random.default_rng([seed, len(start_rhos)])
        w = rng.dirichlet(np.ones(n))
        start_rhos.append(np.maximum(w / pi, 1e-9))
    start_rhos = start_rhos[:starts]

    best_k = POS_INFINITY
    best_rho = None
    per_start: list[tuple[float, bool]] = []

    for rho0 in start_rhos:
        seen: list[tuple[float, np.ndarray]] = []

        def fun_and_grad(u):
            rho = rho_of(u)
            k, g_rho = curvature_grad_rho(chain, mean, rho, dim)
            seen.append((k, rho))
            # chain rule through the normalized exponential map
            g_u = rho * (g_rho - pi * float(np.dot(g_rho, rho)))
            return k, g_u

        try:
            res = scipy.optimize.minimize(
                fun_and_grad, np.log(rho0), jac=True, method="L-BFGS-B",
                bounds=[(-30.0, 30.0)] * n,
                options={"maxiter": DESCENT_MAX_ITERS, "ftol": DESCENT_FTOL,
                         "gtol": 1e-10})
            converged = bool(res.success)
        except NumericalFailure:
            converged = False
        except np.linalg.LinAlgError:
            # an eigensolver gave up: nothing this start saw is trusted
            seen.clear()
            converged = False
        k_start, rho_start = _least_confirmed(chain, mean, dim, seen)
        per_start.append((k_start, converged))
        if k_start < best_k:
            best_k, best_rho = k_start, rho_start

    if best_rho is None:
        raise NumericalFailure(f"no start of {starts} gave a confirmed curvature")
    return EntropicEstimate(
        k_hat=best_k, rho_star=best_rho, starts=starts, per_start=per_start,
        certified_nonnegative=bool(best_k >= -NONNEG_TOL))


@dataclass(frozen=True)
class LichnerowiczResult:
    lambda1: float
    k_lower: float
    sharp: bool
    heuristic: bool          # True when k_lower comes from the optimizer


def lichnerowicz_check(chain: MarkovChain, mean=ARITHMETIC, starts: int = 16,
                       seed: int = 0) -> LichnerowiczResult:
    """Compare the spectral gap with the curvature lower bound.

    The gap always dominates the curvature; equality (within 1e-6) makes the
    chain sharp.  With the arithmetic mean the curvature is the exact vertex
    minimum; otherwise it is the optimizer's heuristic upper estimate from
    `starts` starts drawn with `seed`.
    """
    mean = get_mean(mean)
    lam = lambda1(chain)
    if mean.kind == "arithmetic":
        k, _ = bakry_emery_global(chain, POS_INFINITY)
        heuristic = False
    else:
        k = entropic_curvature_estimate(chain, POS_INFINITY, starts=starts,
                                        seed=seed, mean=mean).k_hat
        heuristic = True
    return LichnerowiczResult(lambda1=lam, k_lower=k,
                              sharp=bool(lam - k <= 1e-6), heuristic=heuristic)


@dataclass(frozen=True)
class CurvatureProfile:
    """Samples of K as a function of s = 1/dim (concave: K is an infimum of
    affine functions of s)."""

    points: list[tuple[float, float]]       # (1/dim, K), sorted by 1/dim
    midpoint_concave: bool


def curvature_profile(chain: MarkovChain, mean, rho,
                      dim_grid) -> CurvatureProfile:
    """Evaluate the curvature of a density across a dimension grid, each
    point confirmed by both routes."""
    pts = []
    for dim in dim_grid:
        k = curvature_of_measure(chain, mean, rho, dim).value    # checks dim
        pts.append((0.0 if np.isinf(dim) else 1.0 / float(dim), k))
    pts.sort(key=lambda p: p[0])
    ok = True
    for i in range(1, len(pts) - 1):
        s0, k0 = pts[i - 1]
        s1, k1 = pts[i]
        s2, k2 = pts[i + 1]
        if s2 > s0:
            lam = (s1 - s0) / (s2 - s0)
            if k1 < (1 - lam) * k0 + lam * k2 - 1e-9 * max(1.0, abs(k1)):
                ok = False
    return CurvatureProfile(points=pts, midpoint_concave=ok)
