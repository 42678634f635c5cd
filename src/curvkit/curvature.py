"""Curvature solvers: best constant K with m - K n >= 0 over a form pair.

The optimal constant of the curvature-dimension inequality for a fixed
density is sup{K : m - K n is positive semidefinite}.  Since n is PSD with a
nontrivial null space (always containing constants, more for Dirac
densities), the supremum is computed through a Schur reduction onto the
n-positive subspace and independently confirmed by a PSD test bracket.

A vertex pencil (the Dirac density under the arithmetic mean) has its
structure known in advance, so it is solved in degree coordinates: one
eigenproblem of the size of the vertex's 1-sphere.  There the PSD bracket
tests the reduced matrix, and the certificate at K tests the unreduced
2-ball matrix, so one test never goes through the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovChain, derived
from .errors import DomainError, InvalidParameters, NumericalFailure
from .gamma import (_cd_grad, _density_d1, _dimension, _dirac_ball_forms,
                    _form_matrices, assemble_forms)
from .heat import lambda1
from .means import ARITHMETIC, LOGARITHMIC, get_mean

POS_INFINITY = float("inf")

#: eigenvalues of n below this relative threshold count as null directions
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
    gap: float | None = None          # distance of the minimal pencil eigenvalue
                                      # to the next one (degeneracy indicator)


def _pencil(m: np.ndarray, n: np.ndarray):
    """sup{K : m - K n >= 0} via Schur reduction on the null space of n.

    Each matrix is decomposed once here: eigvalsh of m and eigh of n, whose
    eigenbasis makes n the diagonal D on its positive subspace, so the
    reduced pencil (S, D) is the symmetric D^-1/2 S D^-1/2 with eigenvectors
    scaled back by D^-1/2 (Golub & Van Loan, sec. 8.7).
    Returns (value, cluster, null_dim, gap, m_norm, n_norm), the last two
    the spectral norms of m and n, which set the PSD floors of the
    bracket and the certificate.  The rows of cluster are n-orthonormal
    witnesses of the eigenvalues within GRAD_GAP_TOL of the least, in the
    solver's basis of their span.

    The forms of a density of positive mass have a finite value: m is PSD
    on the null space of n and couples into it only within its range.  A
    pencil that breaks this (n vanishing, its weights underflowed, or m
    negative on n's null space or coupled into it outside its range) has
    lost its structure to rounding, and is a NumericalFailure.
    """
    m_norm = float(np.abs(np.linalg.eigvalsh(m)).max())
    evals, vecs = np.linalg.eigh(n)
    n_norm = float(np.abs(evals).max())
    null_mask = evals <= NULL_REL_TOL * max(float(evals.max()), 1e-300)
    u = vecs[:, null_mask]
    v = vecs[:, ~null_mask]
    null_dim = int(null_mask.sum())
    m_scale = max(1.0, m_norm)

    if v.shape[1] == 0:
        raise NumericalFailure("n vanishes: the weights of the forms underflowed")

    muu = u.T @ m @ u
    muv = u.T @ m @ v
    mvv = v.T @ m @ v

    # an empty null space (null_dim = 0) passes both tests with schur = mvv
    uevals, uvecs = np.linalg.eigh(muu)
    if uevals.min(initial=0.0) < -1e-10 * m_scale:
        raise NumericalFailure("m is negative on the null space of n")
    pos = uevals > 1e-10 * max(m_scale, float(np.abs(uevals).max(initial=0.0)))
    # range coupling: rows of muv must lie in the range of muu
    resid = muv - uvecs[:, pos] @ (uvecs[:, pos].T @ muv)
    if np.abs(resid).max(initial=0.0) > 1e-8 * m_scale:
        raise NumericalFailure("m couples into the null space of n outside its range")
    pinv = uvecs[:, pos] @ np.diag(1.0 / uevals[pos]) @ uvecs[:, pos].T
    schur = mvv - muv.T @ pinv @ muv
    lift = -pinv @ muv

    scale = 1.0 / np.sqrt(evals[~null_mask])
    schur = 0.5 * (schur + schur.T) * scale * scale[:, None]
    pvals, pvecs = np.linalg.eigh(schur)
    k = float(pvals[0])
    gap = float(pvals[1] - pvals[0]) if len(pvals) > 1 else POS_INFINITY
    y = scale[:, None] * pvecs[:, pvals - k < GRAD_GAP_TOL]
    cluster = (v @ y + u @ (lift @ y)).T
    return k, cluster, null_dim, gap, m_norm, n_norm


def _psd_bracket(m: np.ndarray, n: np.ndarray, k: float, m_norm: float,
                 n_norm: float):
    """Certify the pencil value k by the PSD test of m - K n alone.

    k is certified to within h when m - K n is PSD at k - h and not PSD
    at k + h.  The pairs tried are h = min(d, 5e-9), d and 4d,
    d = AGREE_TOL/4 * max(1, |k|): at large |k| or norms the floor hides a
    5e-9 step, and the widest pair is the agreement tolerance itself.
    Returns (PSD tests, bracket); raises NumericalFailure when no pair
    certifies k.  The floor is the fixed problem scale plus a 1e-13 |K|
    n_norm allowance for the rounding of K n in m - K n.  Every K is
    finite, so the allowance serves only large |K|, which small
    dimensions make (K is about -2e6 at a vertex of the 6-cycle at dim
    1e-6), where |K| n_norm can exceed the fixed scale.
    """
    base = max(1.0, m_norm, n_norm)
    tests = 0

    def psd_at(kk):
        nonlocal tests
        tests += 1
        floor = PSD_REL_FLOOR * base + 1e-13 * abs(kk) * n_norm
        return bool(np.linalg.eigvalsh(m - kk * n).min() >= -floor)

    d = 0.25 * AGREE_TOL * max(1.0, abs(k))
    for h in sorted({min(d, 5e-9), d, 4.0 * d}):
        if psd_at(k - h) and not psd_at(k + h):
            return tests, (k - h, k + h)
    raise NumericalFailure(
        f"pencil K={k!r} and the PSD test of m - K n disagree beyond {AGREE_TOL}")


def solve_pencil(m: np.ndarray, n: np.ndarray, confirm: bool = True) -> CurvatureResult:
    """Solve sup{K : m - K n >= 0}, with optional confirmation by
    _psd_bracket, which raises NumericalFailure when it refuses the value.

    The witness f is the n-normalized n-orthogonal projection of g =
    (sin 1, sin 2, ...), which has no rational linear relation (e^i is
    transcendental), onto the span of the least eigenvalue's cluster, so
    no basis of that span changes it; a one-dimensional cluster has its
    sign fixed, f' n g > 0.  f' n f = 1, 0 <= f' (m - K n) f <= GRAD_GAP_TOL.
    The value must also pass the certificate test at K itself, which the
    PSD test at k - h does not imply when ||m|| is small.  The PSD floors
    of all checks scale with the norms of m and n from _pencil.
    """
    k, cluster, null_dim, gap, m_norm, n_norm = _pencil(m, n)
    iterations, bracket = (_psd_bracket(m, n, k, m_norm, n_norm) if confirm
                           else (0, None))
    return CurvatureResult(
        value=k, witness=_certified_witness(m, n, k, cluster, m_norm, n_norm),
        bracket=bracket, iterations=iterations, null_dim=null_dim, gap=gap)


def _certified_witness(m: np.ndarray, n: np.ndarray, k: float,
                       cluster: np.ndarray, m_norm: float,
                       n_norm: float) -> np.ndarray:
    """The witness of a pencil value k from the n-orthonormal rows of its
    cluster, after the certificate test of m - K n at K = k itself.

    The witness is the n-normalized n-orthogonal projection of (sin 1,
    sin 2, ...) onto the cluster's span; an n-norm f' n f that is not
    positive and finite (it can underflow) is a NumericalFailure.  The
    certificate floor is 1e-9 (m_norm + |k| n_norm + 1); m_norm and n_norm
    are the spectral norms of m and n or lower bounds on them, which only
    tighten it.
    """
    f = cluster.T @ (cluster @ (n @ np.sin(np.arange(1.0, len(n) + 1.0))))
    norm = float(f @ n @ f)
    if not 0.0 < norm < POS_INFINITY:
        raise NumericalFailure(f"witness of n-norm {norm!r} cannot be normalized")
    f = f / np.sqrt(norm)
    floor = 1e-9 * (m_norm + abs(k) * n_norm + 1.0)
    if np.linalg.eigvalsh(m - k * n).min() < -floor:
        raise NumericalFailure("certificate m - K n lost positivity")
    return f


def curvature_of_measure(chain: MarkovChain, mean, rho, dim,
                         confirm: bool = True) -> CurvatureResult:
    """Optimal curvature constant of a fixed density at dimension dim."""
    fp = assemble_forms(chain, mean, rho, dim)
    return solve_pencil(fp.m, fp.n, confirm=confirm)


def _degree_pencil(m: np.ndarray, n: np.ndarray, k1: int) -> CurvatureResult:
    """The vertex pencil of the 2-ball forms (m, n) of _dirac_ball_forms,
    whose positions are x, then the k1 >= 1 states of the 1-sphere S1, then
    the 2-sphere S2, solved in degree coordinates.

    Constants lie in the kernel of both forms, so f(x) = 0 loses nothing.
    In that gauge n is diagonal, D > 0 on S1 and 0 on S2, and m's S2 block
    is a positive diagonal E; both are checked entry by entry, and only an
    edge weight that underflows can break them (NumericalFailure).
    Eliminating S2 by E leaves A on S1, so m - K n is PSD on B2 exactly
    when R - K I is, R = D^-1/2 A D^-1/2: K is lambda_min(R) (Cushing,
    Kamtue, Liu, Muench, Peyerimhoff & Snodgrass, Calc. Var. PDE 61, 2022).
    The PSD bracket tests R - K I; the witness lifts the cluster to B2
    (x -> 0, S2 by the elimination, then off the constants) and passes the
    certificate on the unreduced m - K n.
    """
    s1, s2 = slice(1, k1 + 1), slice(k1 + 1, None)
    d, e = np.diag(n)[s1], np.diag(m)[s2]
    if (not (d > 0).all() or np.count_nonzero(n[1:, 1:]) != k1
            or not (e > 0).all() or np.count_nonzero(m[s2, s2]) != len(e)):
        raise NumericalFailure("the vertex forms lost their Dirac structure")
    elim = m[s2, s1] / e[:, None]
    scale = 1.0 / np.sqrt(d)
    r = (m[s1, s1] - m[s2, s1].T @ elim) * scale * scale[:, None]
    r = 0.5 * (r + r.T)
    pvals, pvecs = np.linalg.eigh(r)
    k = float(pvals[0])
    gap = float(pvals[1] - pvals[0]) if k1 > 1 else POS_INFINITY
    iterations, bracket = _psd_bracket(r, np.eye(k1), k,
                                       float(np.abs(pvals).max()), 1.0)
    y = scale[:, None] * pvecs[:, pvals - k < GRAD_GAP_TOL]
    lift = np.zeros((len(n), y.shape[1]))
    lift[s1] = y
    lift[s2] = -elim @ y
    lift -= lift.mean(axis=0)
    witness = _certified_witness(m, n, k, lift.T, float(np.abs(m).max()),
                                 float(np.abs(n).max()))
    return CurvatureResult(value=k, witness=witness, bracket=bracket,
                           iterations=iterations, null_dim=len(n) - k1, gap=gap)


def bakry_emery_vertex(chain: MarkovChain, state, dim) -> CurvatureResult:
    """Vertex curvature: the Dirac density under the arithmetic mean.

    The forms vanish outside the 2-ball B2 of the vertex, so they are
    assembled on that ball, in the order x, S1, S2, and the pencil is
    solved in degree coordinates (_degree_pencil): one |S1|-sized
    eigenproblem.  Its value is confirmed twice, by the PSD bracket of the
    reduced matrix and by the certificate test of the unreduced B2 matrix
    at K.  The witness is re-embedded in all n states, zero outside B2.
    """
    ball, m, n = _dirac_ball_forms(chain, state, dim)
    k1 = int(np.count_nonzero(chain.adjacency[ball[0]]))
    res = _degree_pencil(m, n, k1)
    full = np.zeros(chain.n_states)
    full[ball] = res.witness
    res.witness = full
    return res


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
    k, cluster, null_dim, *_ = _pencil(m, n)
    if null_dim > 1 and (rho > 0).all():
        # n vanishes only on constants at a positive density; more null
        # directions mean the density's range has outrun the eigensolver
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
