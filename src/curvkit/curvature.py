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
2022; Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  The
descent refuses a reduced matrix whose eigenvalues cannot resolve K to
AGREE_TOL; the certified routes need no such check.

Each certified value gets one bracket (_psd_bracket), by one rule on both
routes, on the unreduced forms and the arrays they were assembled from,
and neither end trusts the reduction.  The lower end k - h passes a
shifted Cholesky test of the grounded, Jacobi-scaled m - (k - h) n, whose
shift bounds every rounding between the inputs and the factorization, so
that a test that passes proves the exact forms PSD (Rump, BIT Numer. Math.
46, 2006).  The upper end k + h lies above the witness's Rayleigh quotient
M(f)/N(f), evaluated through the Gamma operators' edge sums (_cd_values),
an upper bound on K at every f, plus its rounding bound.  A vertex pencil
(the Dirac density under the arithmetic mean) comes from its assembly
already split into x, S1 and S2; a general one is split as _split reads
the forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovChain, derived
from .errors import DomainError, InvalidParameters, NumericalFailure
from .gamma import (_abs_forms, _cd_grad, _cd_values, _density_d1, _dimension,
                    _dirac_ball, _form_matrices)
from .heat import lambda1
from .means import ARITHMETIC, LOGARITHMIC, get_mean

POS_INFINITY = float("inf")
#: unit roundoff of float64
_U = np.finfo(float).eps / 2

#: eigenvalues of n below this relative threshold count as null directions
#: in the descent's rank stop (curvature_grad_rho)
NULL_REL_TOL = 1e-12
#: relative half-width of the widest PSD bracket that certifies a pencil value
AGREE_TOL = 1e-8
#: cluster width: pencil eigenvalues this close to the least one count as
#: one multiple eigenvalue, whose witnesses the curvature gradient averages
GRAD_GAP_TOL = 1e-7
#: the descent's relative reduction tolerance and iteration cap per start
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
    finite.  Returns (K, cluster, null_dim, norm): the rows of cluster are
    n-orthonormal witnesses of the eigenvalues within GRAD_GAP_TOL of K,
    lifted to every state and centred on each block; null_dim is the
    dimension of n's null space; norm is ||R||, and eps ||R|| bounds the
    error of every eigenvalue of R.  The certified routes read no
    resolution from it, since _psd_bracket tests the value itself; the
    descent does.
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
    return k, lift.T, len(n) - len(d), max(-k, float(pvals[-1]))


def _shift(b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The diagonal shift of _psd_bracket's lower end for the scaled matrix
    b: each row's bound `rows` on the scaled assembly error, plus Rump's
    shift for Cholesky's own rounding and for the subtraction's."""
    r = (len(b) + 1) * _U       # gamma_(k+1) / (1 - gamma_(k+1)) = r / (1 - 2 r), k = len(b)
    return rows + r / (1.0 - 2.0 * r) * b.trace() + 2.0 * _U * b.diagonal().max()


def _psd_bracket(args, m: np.ndarray, n: np.ndarray, k: float, f: np.ndarray,
                 blocks, mean=ARITHMETIC):
    """Certify the pencil value k of the forms m, n = _form_matrices(*args)
    with witness f, on the unreduced forms, trusting no reduction.

    blocks are the connected blocks of (m, n) as _split reads them (index
    arrays or slices); states outside them, where both forms vanish, drop
    out, and each block is grounded at its largest n-diagonal entry: its
    constant lies in both kernels, so m - t n is PSD off the constants
    exactly when it is PSD on the other states, the tested ones.  mean is
    the mean that evaluated d1e.  k is certified to within h when
    m - (k - h) n passes the lower-end test and k + h lies above the
    witness's Rayleigh quotient.  Each test of either end counts as one.
    The pairs tried are h = min(d, 5e-9), d and 4d,
    d = AGREE_TOL/4 * max(1, |k|), so the widest pair is the agreement
    tolerance itself.  Returns (tests, bracket); raises NumericalFailure
    when no pair certifies k, naming the end that failed at the widest
    pair.

    Both ends bound every rounding between the inputs and the test: q, pi
    and rho as given, and d1e, whose relative error mean.d1_err bounds.
    A term that passes through j roundings is off by at most
    gamma_j = j u / (1 - j u) times its absolute value (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3), u the unit roundoff,
    and _abs_forms sums those absolute values, with the weight
    |d1e| (gamma_j + d1_err) on the terms of d1 and gamma_j on the
    dimension term.  With s states and E ordered edges, one j covers both
    ends:
      - an entry of m passes through at most 2s + 8 roundings (a Laplacian
        row sum, s - 1; the products t_rho (Q - I) and
        (Q - I)' diag(rho pi) (Q - I), s - 1 more; the differences), one
        of t n through s + 4, m - t n adds 1 and the scaling below 2;
      - M(f) and N(f) as _cd_values sums them pass through at most
        max(s + E + 9, 3s + 6) (the product Q f, s; the dot over the
        edges, E - 1; the products on an edge);
      - 2 more cover second-order terms and the rounding of the bounds
        themselves; j = 3s + E + 13 exceeds both.

    Lower end.  The tested block B of m - t n is scaled to D B D, D the
    inverse square root of its diagonal at the widest pair, where it is
    largest (any positive D is a congruence), and passes when the Cholesky
    factorization of D B D - diag(c) completes.  Row i of the scaled
    assembly error E is at most c1_i = d_i (|m| d + |t| |n| d)_i, so
    diag(c1) - E is diagonally dominant, hence PSD.  Cholesky's own
    rounding (Demmel; Rump, BIT Numer. Math. 46, 2006): a factorization of
    order r that completes is exact for a matrix within
    gamma_(r+1) ||R||_F^2 <= gamma_(r+1) / (1 - gamma_(r+1)) tr(D B D),
    and subtracting c rounds the diagonal by u max(D B D)_ii; _shift adds
    both to c1.  A factorization that completes then proves the exact
    m - t n PSD off the constants.  The bound assumes no product
    underflows: forms with a subnormal entry fail this end.

    Upper end.  K <= M(f)/N(f) for every f that vanishes at the grounded
    states, so f is grounded by subtracting its value there from its
    block, and scaled to max|f| = 1, which cannot overflow.  _cd_values
    evaluates M and N through the Gamma operators' edge sums, whose
    absolute terms are at most |f|' |m| |f| and |f|' |n| |f|, and those
    are at most sum_i f_i^2 (|m| d)_i / d_i and the same for n (Schur's
    test, |m| and |n| being entrywise nonnegative), which the lower end's
    products already hold.  k + h must exceed (M + A_m) / (N -+ A_n),
    raised by the quotient's rounding.
    """
    q, pi, (ex, ey, _), d1e, rho, dim = args
    j = 3 * len(n) + len(ex) + 13
    g = j * _U / (1.0 - j * _U)
    blocks = [np.arange(len(n))[b] for b in blocks]
    ground = [b[np.argmax(n.diagonal()[b])] for b in blocks]
    test = np.concatenate([b[b != x] for b, x in zip(blocks, ground)])
    m_test, n_test = m[test[:, None], test], n[test[:, None], test]
    # frexp's exponent of a subnormal entry is below -1021, of 0 it is 0
    normal = bool(np.frexp(np.concatenate((m, n)))[1].min() > -1022)
    # one Jacobi scale for every test: the diagonal at the widest pair,
    # where it is largest, n's diagonal being nonnegative
    half = 0.25 * AGREE_TOL * max(1.0, abs(k))
    diag = m_test.diagonal() - (k - 4.0 * half) * n_test.diagonal()
    diag = np.where((diag > 0) & normal, diag, 1.0)
    d = np.bincount(test, diag ** -0.5, len(n))
    mv, nv = _abs_forms(q, pi, args[2], np.abs(d1e) * (g + mean.d1_err(rho[ex], rho[ey])),
                        rho, dim / g, d)
    dd, rows_m, rows_n = np.outer(d[test], d[test]), (d * mv)[test], (d * nv)[test]

    def psd_at(t):
        b = (m_test - t * n_test) * dd
        b.flat[::len(b) + 1] -= _shift(b, rows_m + abs(t) * rows_n)
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            return False
        return normal

    f = f.copy()
    for b, x in zip(blocks, ground):
        f[b] -= f[x]
    f /= np.abs(f).max()
    # |f|' A |f| <= sum_i f_i^2 (A d)_i / d_i for A >= 0 (Schur's test)
    (m_val, n_val), f2 = _cd_values(*args, f), f[test] ** 2 * diag
    top, n_abs = m_val + f2 @ rows_m, f2 @ rows_n
    upper = top / (n_val - n_abs if top >= 0 else n_val + n_abs) if n_val > n_abs else POS_INFINITY
    upper += 2.0 * _U * abs(upper)

    tests = 0
    for h in sorted({min(half, 5e-9), half, 4.0 * half}):
        tests += 1 + (below := psd_at(k - h))
        if below and upper < k + h:
            return tests, (k - h, k + h)
    end = ("upper end: K + h is not above the Rayleigh quotient" if below
           else "lower end: m - (K - h) n is not PSD")
    raise NumericalFailure(f"pencil K={k!r} and the PSD test of m - K n disagree beyond "
                           f"{AGREE_TOL}; at the widest pair h={h!r}, the {end}")


def solve_pencil(m: np.ndarray, n: np.ndarray) -> CurvatureResult:
    """Solve sup{K : m - K n >= 0} by _reduce, unconfirmed: no bracket and
    no eigvalsh call.  A value is certified by _psd_bracket from the arrays
    its forms were assembled from, as curvature_of_measure does.  The
    witness is _witness's.  m and n are the forms of a density: the
    constants lie in both kernels, and n is a weighted Laplacian.
    """
    k, cluster, null_dim, _ = _reduce(m, n)
    return CurvatureResult(value=k, witness=_witness(n, cluster), bracket=None,
                           iterations=0, null_dim=null_dim)


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
    """Optimal curvature constant of a fixed density at dimension dim:
    solve_pencil's value and witness on the chain's forms, certified with
    confirm by _psd_bracket on the arrays they were assembled from, with
    the mean's bound on the error of its d1 on the edges."""
    rho, d1 = _density_d1(chain, mean, rho)
    args = (chain.q, chain.pi, chain.edges, d1, rho, _dimension(dim))
    m, n = _form_matrices(*args)
    res = solve_pencil(m, n)
    if confirm:
        res.iterations, res.bracket = _psd_bracket(args, m, n, res.value, res.witness,
                                                   _split(m, n)[3], get_mean(mean))
    return res


def bakry_emery_vertex(chain: MarkovChain, state, dim) -> CurvatureResult:
    """Vertex curvature: the Dirac density under the arithmetic mean.

    The forms vanish outside the 2-ball B2 of the vertex, so they are
    assembled on that ball, in the order x, S1, S2, and _reduce takes that
    split: x grounded, S1 free, S2 the sphere.  n is diagonal on S1, so K
    is the least eigenvalue of the |S1|-sized R = D^-1/2 A D^-1/2, D the
    degrees of n and A the Schur complement of m on S1.  _psd_bracket
    certifies it on the unreduced B2 forms and the ball's arrays, by the
    rule of every density; neither end reads R.  The witness is
    re-embedded in all n states, zero outside B2.
    """
    ball, args = _dirac_ball(chain, state, dim)
    m, n = _form_matrices(*args)
    k1 = int(np.count_nonzero(chain.adjacency[ball[0]]))
    k, cluster, null_dim, _ = _reduce(
        m, n, (slice(1, k1 + 1), slice(k1 + 1, None), [], [slice(None)]))
    f = _witness(n, cluster)
    iterations, bracket = _psd_bracket(args, m, n, k, f, [slice(None)])
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
    k, cluster, _, norm = _reduce(m, n, _grounded(n) if positive and (d1 > 0).all() else None)
    # eigh's eigenvalues are exact for a matrix within eps ||R|| of R: past
    # AGREE_TOL K has no digit, and a descent that reads it only wanders
    # (the densities of range 1e26 that the descent's box admits give K off by 1e6)
    if np.finfo(float).eps * norm > AGREE_TOL * max(1.0, abs(k)):
        raise NumericalFailure(f"the reduced pencil cannot resolve K={k!r} to {AGREE_TOL}")
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
    The line search can return to a point it evaluated before; a density
    with the bytes of another would meet the same outcome, so each is
    tried once.
    """
    for k, rho in sorted({rho.tobytes(): (k, rho) for k, rho in seen}.values(),
                         key=lambda item: item[0]):
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
    a confirmed value.  Each start descends by _lbfgs.box_lbfgs on the box
    u in [-30, 30]^n; _lbfgs is imported on first use, as no other
    computation needs it.
    """
    dim = _dimension(dim)
    if starts < 1:
        raise InvalidParameters(
            f"the entropic optimizer needs starts >= 1, got {starts}")
    mean = get_mean(mean)
    if mean.domain_class != "open":
        raise DomainError("the entropic optimizer needs an open-domain mean")
    from . import _lbfgs

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
            converged = _lbfgs.box_lbfgs(fun_and_grad, np.log(rho0), -30.0, 30.0,
                                         ftol=DESCENT_FTOL, gtol=1e-10,
                                         max_iters=DESCENT_MAX_ITERS)[2]
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
