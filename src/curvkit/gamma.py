"""Mean-modulated Gamma calculus on a finite reversible chain.

Operators follow the weighted-walk conventions: Delta f(x) is the kernel
average of increments, the density-modulated Laplacian reweights edges by
2 * d1theta(rho_x, rho_y), and the iterated form pairs the modulated
carre du champ with the standard Laplacian.  Vector fields are antisymmetric
edge functions with the half double-sum inner product.

A density enters only through theta and its partials on the ordered edges,
and _on_edges is the one place a mean meets the edges.  _density_d1 is the
one place a density is validated and its d1theta laid on the edges; the
operators and the curvature descent all read a density through it.

The private kernels behind the operators and the forms (_delta, _edge_sums,
_rho_delta, _gamma_sum, _gamma2_sum, _vf_edges, _energy, _b_rows,
_pi_inner) act on each row of a stack of functions of shape (T, n) (a
density may be one row for all, or one per row), so the randomized verify
suites score T trials in a few array passes.  The public functions are those kernels
applied to one row.  A row of a stack agrees with the public call on it
to rounding: numpy may order the products and sums of many rows
differently from those of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain
from .errors import DomainError, NumericalFailure, ShapeMismatch
from .means import ARITHMETIC, get_mean


def _as_function(chain: MarkovChain, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (chain.n_states,):
        raise ShapeMismatch(f"expected function of shape ({chain.n_states},), got {f.shape}")
    return f


def validate_density(chain: MarkovChain, mean, rho) -> np.ndarray:
    """Check a density vector against the mean's admissible domain: finite,
    nonnegative, with a positive entry (every density of positive mass
    has a finite curvature)."""
    mean = get_mean(mean)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (chain.n_states,):
        raise ShapeMismatch(f"expected density of shape ({chain.n_states},), got {rho.shape}")
    if not np.isfinite(rho).all():
        raise DomainError("density has non-finite entries")
    if (rho < 0).any():
        raise DomainError("density has negative entries")
    if not (rho > 0).any():
        raise DomainError("density has no positive entry")
    if mean.domain_class == "open" and (rho == 0).any():
        x = int(np.argmin(rho))
        raise DomainError(
            f"density vanishes at state {chain.states[x]!r} but the "
            f"{mean.kind} mean requires strictly positive densities")
    return rho


def _validate_rows(chain: MarkovChain, mean, rows: np.ndarray) -> np.ndarray:
    """validate_density on each row of a (T, n) stack of densities; the
    first row that fails raises validate_density's own error."""
    bad = (~np.isfinite(rows).all(axis=1) | (rows < 0).any(axis=1)
           | ~(rows > 0).any(axis=1))
    if mean.domain_class == "open":
        bad |= (rows == 0).any(axis=1)
    if bad.any():
        validate_density(chain, mean, rows[np.argmax(bad)])
    return rows


def dirac(chain: MarkovChain, state) -> np.ndarray:
    """Dirac density: 1/pi(x) at x, zero elsewhere (so <delta_x, g>_pi = g(x))."""
    rho = np.zeros(chain.n_states)
    ix = chain.index(state)
    rho[ix] = 1.0 / chain.pi[ix]
    return rho


def equilibrium(chain: MarkovChain) -> np.ndarray:
    """The constant density 1 (the stationary measure itself)."""
    return np.ones(chain.n_states)


def _pi_inner(chain: MarkovChain, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<f, g>_pi of each row of f and g."""
    return np.sum(f * chain.pi * g, axis=-1)


def func_inner(chain: MarkovChain, f, g) -> float:
    """<f, g>_pi."""
    return float(_pi_inner(chain, np.asarray(f), np.asarray(g)))


def laplacian_matrix(chain: MarkovChain) -> np.ndarray:
    """Matrix of Delta: (Q - I) acting on functions."""
    return chain.q - np.eye(chain.n_states)


def _delta(chain: MarkovChain, f: np.ndarray) -> np.ndarray:
    """Delta of each row of f: f Q' - f."""
    return f @ chain.q.T - f


def laplacian(chain: MarkovChain, f) -> np.ndarray:
    """Delta f(x) = sum_y Q(x,y) (f(y) - f(x))."""
    return _delta(chain, _as_function(chain, f))


def _edge_sums(ex: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """Each row of the edge values w (shape (..., E)) summed into the tail
    state x of each ordered edge (x, y), in edge order as
    np.bincount(ex, w, size) sums one row: one bincount for every row."""
    rows = w.reshape(-1, len(ex))
    at = (ex + size * np.arange(len(rows))[:, None]).ravel()
    return np.bincount(at, rows.ravel(), size * len(rows)).reshape(
        w.shape[:-1] + (size,))


def gradient_field(chain: MarkovChain, f) -> np.ndarray:
    """Antisymmetric edge field (f(y) - f(x)) on adjacent pairs, else 0."""
    f = _as_function(chain, f)
    v = np.subtract.outer(f, f).T          # v[x, y] = f(y) - f(x)
    return np.where(chain.adjacency, v, 0.0)


def divergence(chain: MarkovChain, v) -> np.ndarray:
    """div V(x) = sum_y V(x,y) Q(x,y)."""
    v = np.asarray(v, dtype=float)
    n = chain.n_states
    if v.shape != (n, n):
        raise ShapeMismatch(f"expected field of shape ({n},{n}), got {v.shape}")
    return (v * chain.q).sum(axis=1)


def _vf_edges(chain: MarkovChain, th: np.ndarray, v1e: np.ndarray,
              v2e: np.ndarray) -> np.ndarray:
    """<V1, V2>_rho of each row, from the fields' values on the ordered
    edges and theta(rho_x, rho_y) on them."""
    ex, _, qe = chain.edges
    return 0.5 * np.sum(th * v1e * v2e * qe * chain.pi[ex], axis=-1)


def vf_inner(chain: MarkovChain, v1, v2) -> float:
    """<V1, V2>_pi = (1/2) sum_{x,y} V1 V2 Q(x,y) pi(x)."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return 0.5 * float(np.sum(v1 * v2 * chain.q * chain.pi[:, None]))


def _on_edges(fn, rho: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """fn(rho_x, rho_y) on the edges of each row of rho, as a float array
    of shape rho.shape[:-1] + ex.shape, for fn a mean's value, d1 or d11;
    swapping ex and ey gives d2theta from d1.  A custom mean may return a
    scalar (a constant partial), broadcast here."""
    return np.broadcast_to(np.asarray(fn(rho.take(ex, axis=-1), rho.take(ey, axis=-1)),
                                      dtype=float), rho.shape[:-1] + ex.shape)


def _density_d1(chain: MarkovChain, mean, rho) -> tuple[np.ndarray, np.ndarray]:
    """(rho, d1): the validated density and d1theta(rho_x, rho_y) on the
    ordered edges."""
    rho = validate_density(chain, mean, rho)
    ex, ey, _ = chain.edges
    return rho, _on_edges(get_mean(mean).d1, rho, ex, ey)


def vf_inner_rho(chain: MarkovChain, mean, rho, v1, v2) -> float:
    """<V1, V2>_rho: the pi inner product with edge weights theta(rho_x, rho_y)."""
    rho = validate_density(chain, mean, rho)
    ex, ey, _ = chain.edges
    th = _on_edges(get_mean(mean).value, rho, ex, ey)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return float(_vf_edges(chain, th, v1[ex, ey], v2[ex, ey]))


def rho_laplacian(chain: MarkovChain, mean, rho, f) -> np.ndarray:
    """Density-modulated Laplacian sum_y 2 d1theta(rho_x,rho_y)(f(y)-f(x))Q(x,y).

    Coincides with the standard Laplacian for the arithmetic mean (any rho)
    and for the constant density (any mean).
    """
    _, d1 = _density_d1(chain, mean, rho)
    return _rho_delta(chain, d1, _as_function(chain, f))


def _rho_delta(chain: MarkovChain, d1: np.ndarray, f: np.ndarray) -> np.ndarray:
    """rho_laplacian of each row of f from d1 on the edges."""
    ex, ey, qe = chain.edges
    return _edge_sums(ex, 2.0 * d1 * (f[..., ey] - f[..., ex]) * qe, chain.n_states)


def _gamma_sum(chain: MarkovChain, d1: np.ndarray, f: np.ndarray,
               g: np.ndarray) -> np.ndarray:
    """sum_y d1(x,y)(f(y)-f(x))(g(y)-g(x))Q(x,y) of each row of f and g,
    from d1 on the edges."""
    ex, ey, qe = chain.edges
    contrib = d1 * (f[..., ey] - f[..., ex]) * (g[..., ey] - g[..., ex]) * qe
    return _edge_sums(ex, contrib, chain.n_states)


def _gamma2_sum(chain: MarkovChain, d1: np.ndarray, f: np.ndarray,
                g: np.ndarray) -> np.ndarray:
    """Gamma2_rho(f, g) of each row of f and g, from d1 on the edges."""
    lf, lg = _delta(chain, f), _delta(chain, g)
    return 0.5 * (_delta(chain, _gamma_sum(chain, d1, f, g))
                  - _gamma_sum(chain, d1, f, lg)
                  - _gamma_sum(chain, d1, g, lf))


def gamma_rho(chain: MarkovChain, mean, rho, f, g=None) -> np.ndarray:
    """Modulated carre du champ
    sum_y d1theta(rho_x,rho_y)(f(y)-f(x))(g(y)-g(x))Q(x,y)."""
    _, d1 = _density_d1(chain, mean, rho)
    f = _as_function(chain, f)
    g = f if g is None else _as_function(chain, g)
    return _gamma_sum(chain, d1, f, g)


def gamma2_rho(chain: MarkovChain, mean, rho, f, g=None) -> np.ndarray:
    """Iterated form: the outer Laplacian is the standard Delta,
    2 Gamma2 = Delta Gamma_rho(f,g) - Gamma_rho(f, Delta g) - Gamma_rho(g, Delta f)."""
    f = _as_function(chain, f)
    g = f if g is None else _as_function(chain, g)
    _, d1 = _density_d1(chain, mean, rho)
    return _gamma2_sum(chain, d1, f, g)


def gamma(chain: MarkovChain, f, g=None) -> np.ndarray:
    """Classical carre du champ (arithmetic mean; density-independent)."""
    return gamma_rho(chain, ARITHMETIC, np.ones(chain.n_states), f, g)


def gamma2(chain: MarkovChain, f, g=None) -> np.ndarray:
    """Classical iterated carre du champ."""
    return gamma2_rho(chain, ARITHMETIC, np.ones(chain.n_states), f, g)


def a_form(chain: MarkovChain, mean, rho, f) -> float:
    """Dirichlet energy ||grad f||_rho^2 via the edge weights theta(rho_x, rho_y).

    Computed without the Gamma operators so it can cross-validate them.
    """
    mean = get_mean(mean)
    rho = validate_density(chain, mean, rho)
    return float(_energy(chain, mean, rho, _as_function(chain, f)))


def _energy(chain: MarkovChain, mean, rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """a_form of each row of f (and of rho, given one per row) for a
    validated density: <grad f, grad f>_rho on the edges."""
    ex, ey, _ = chain.edges
    df = f[..., ey] - f[..., ex]
    return _vf_edges(chain, _on_edges(mean.value, rho, ex, ey), df, df)


def b_form(chain: MarkovChain, mean, rho, f) -> float:
    """Second-order form
    (1/2) <Dhat rho . grad f, grad f>_pi - <rho_hat . grad f, grad(Delta f)>_pi,
    materialized from the edge arrays independently of the Gamma route.
    """
    mean = get_mean(mean)
    rho = validate_density(chain, mean, rho)
    return float(_b_rows(chain, mean, rho, _as_function(chain, f)))


def _b_rows(chain: MarkovChain, mean, rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """b_form of each row of f for a validated density rho."""
    ex, ey, qe = chain.edges
    wpe = qe * chain.pi[ex]
    df = f[..., ey] - f[..., ex]
    lf = _delta(chain, f)
    dlf = lf[..., ey] - lf[..., ex]
    lrho = _delta(chain, rho)
    dhat = _on_edges(mean.d1, rho, ex, ey) * lrho[..., ex] \
        + _on_edges(mean.d1, rho, ey, ex) * lrho[..., ey]
    th = _on_edges(mean.value, rho, ex, ey)
    return 0.25 * np.sum(dhat * df * df * wpe, axis=-1) \
        - 0.5 * np.sum(th * df * dlf * wpe, axis=-1)


@dataclass(frozen=True)
class FormPair:
    """Quadratic-form matrices of the curvature-dimension inequality.

    f' m f  = <rho, Gamma2_rho f - (1/dim)(Delta f)^2>_pi and
    f' n f  = <rho, Gamma_rho f>_pi; n is positive semidefinite and
    constants lie in the null space of both.
    """

    m: np.ndarray
    n: np.ndarray


def _dimension(dim) -> float:
    dim = float(dim)
    if not (dim > 0):
        raise DomainError(f"dimension must be positive, got {dim}")
    return dim


def _edge_laplacian(size: int, ex: np.ndarray, ey: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Dense L with f' L g = sum_e w_e (f(y) - f(x))(g(y) - g(x)) over the
    ordered edges e = (x, y); symmetric, with constants in its kernel."""
    a = np.zeros((size, size))
    a[ex, ey] = w
    a = a + a.T
    return np.diag(a.sum(axis=1)) - a


def _form_matrices(q: np.ndarray, pi: np.ndarray, edges, d1e: np.ndarray,
                   rho: np.ndarray, dim: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) on the index set of the kernel block q, whose Laplacian block
    is q - I; edges are the adjacent pairs of that index set."""
    size = len(pi)
    ex, ey, qe = edges
    lap = q - np.eye(size)
    # T_a with f' T_a g = sum_x a(x) pi(x) Gamma_rho(f, g)(x).  The pencil
    # reads n's null space from its zeros, so a weight may be 0 only where
    # a factor is (q and pi are positive on an edge), never by underflow
    rx = rho[ex]
    w = rx * pi[ex] * d1e * qe
    if not w.all() and ((w == 0) & (rx > 0) & (d1e > 0)).any():
        raise NumericalFailure("an edge weight of n underflowed to 0")
    t_rho = _edge_laplacian(size, ex, ey, w)
    lrho = lap @ rho
    t_lrho = _edge_laplacian(size, ex, ey, lrho[ex] * pi[ex] * d1e * qe)
    mirror = t_rho @ lap            # = (lap' t_rho)', t_rho being exactly symmetric
    m = 0.5 * (t_lrho - mirror - mirror.T)
    if np.isfinite(dim):
        m = m - (1.0 / dim) * (lap.T @ np.diag(rho * pi) @ lap)
    m = 0.5 * (m + m.T)
    return m, t_rho


def assemble_forms(chain: MarkovChain, mean, rho, dim) -> FormPair:
    """Assemble the (m, n) quadratic-form pair for a density and dimension.

    dim is the dimension parameter in (0, inf]; pass numpy.inf to drop the
    (Delta f)^2 correction.
    """
    rho, d1 = _density_d1(chain, mean, rho)
    m, n_mat = _form_matrices(chain.q, chain.pi, chain.edges, d1, rho,
                              _dimension(dim))
    return FormPair(m=m, n=n_mat)


def _dirac_ball(chain: MarkovChain, state, dim):
    """(ball, args): the 2-ball B2 of a state x, listed as x, then the
    1-sphere S1, then the 2-sphere S2, each in state order, and the
    arguments (q, pi, edges, d1e, rho, dim) of _form_matrices and
    _cd_values for the arithmetic-mean Dirac density at x on that ball,
    whose d1e is the arithmetic mean's constant 1/2.

    The forms equal the assemble_forms matrices restricted to ball x ball,
    and those vanish outside it: t_rho lives on B1 x B1, (Q - I) rho on
    B1, and every Laplacian row of a B1 vertex lives in B2, so the blocks
    q[B2, B2], pi[B2] and the edges inside B2 carry every term.  So do
    they for _cd_values: its terms read Delta f only where rho or its
    Laplacian lives, on B1, whose rows of q lie whole in the ball.  The
    dense work is |B2|^3; only finding the ball reads rows of length n.
    """
    ix = chain.index(state)
    dim = _dimension(dim)
    adj = chain.adjacency
    s1 = np.flatnonzero(adj[ix])
    s2 = adj[s1].any(axis=0)
    s2[s1] = s2[ix] = False
    ball = np.concatenate(([ix], s1, np.flatnonzero(s2)))
    block = np.ix_(ball, ball)
    q = chain.q[block]
    ex, ey = np.nonzero(adj[block])
    rho = np.zeros(len(ball))
    rho[0] = 1.0 / chain.pi[ix]
    return ball, (q, chain.pi[ball], (ex, ey, q[ex, ey]), np.full(len(ex), 0.5), rho, dim)


def _dirac_ball_forms(chain: MarkovChain, state,
                      dim) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ball, m, n): the forms of _dirac_ball on its ball."""
    ball, args = _dirac_ball(chain, state, dim)
    return (ball, *_form_matrices(*args))


def _edge_terms(q: np.ndarray, pi: np.ndarray, edges, rho: np.ndarray,
                f: np.ndarray):
    """(Delta f, a, b, g) on the index set of the kernel block q, with
    a = pi_x q_e (D_e f)^2, b = pi_x q_e (D_e f)(D_e Delta f) and
    g = (1/2)(Delta rho)_x a on the ordered edges e = (x, y)."""
    ex, ey, qe = edges
    lf = q @ f - f
    wpe = qe * pi[ex]
    df = f[ey] - f[ex]
    a = wpe * df * df
    return lf, a, wpe * df * (lf[ey] - lf[ex]), 0.5 * (q @ rho - rho)[ex] * a


def _cd_values(q: np.ndarray, pi: np.ndarray, edges, d1e: np.ndarray,
               rho: np.ndarray, dim: float, f: np.ndarray) -> tuple[float, float]:
    """(M, N) at f: the edge sums of cd_quadratic_grad on the index set of
    the kernel block q, which take the arguments of _form_matrices."""
    lf, a, b, g = _edge_terms(q, pi, edges, rho, f)
    m_val = float(np.dot(g - rho[edges[0]] * b, d1e))
    if np.isfinite(dim):
        m_val -= float(np.dot(rho, pi * lf * lf / float(dim)))
    return m_val, float(np.dot(rho, np.bincount(edges[0], d1e * a, len(pi))))


def _abs_forms(q: np.ndarray, pi: np.ndarray, edges, wd: np.ndarray,
               rho: np.ndarray, dim: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|m| v, |n| v) for v >= 0, where |m| and |n| are the forms of
    _form_matrices with every product of inputs taken in absolute value and
    every difference made a sum: each Laplacian T_w becomes its signless
    twin, Q - I becomes Q + I, and the weight wd >= 0 stands for |d1e|.
    Edge sums and products with q; no form is assembled."""
    ex, ey, qe = edges
    size, wpe, rx, lv, ve = len(pi), pi[ex] * wd * qe, rho[ex], q @ v + v, v[ex] + v[ey]
    # |T_w| x at i sums w_e (x_i + x_j) over the edges e = (i, j) and (j, i)
    t = rx * wpe * ve
    nv = np.bincount(ex, t, size) + np.bincount(ey, t, size)
    t = 0.5 * wpe * ((q @ rho + rho)[ex] * ve + rx * (lv[ex] + lv[ey]))
    w = 0.5 * nv if np.isinf(dim) else 0.5 * nv + rho * pi * lv / dim
    return np.bincount(ex, t, size) + np.bincount(ey, t, size) + q.T @ w + w, nv


def cd_quadratic(chain: MarkovChain, mean, rho, dim, f) -> tuple[float, float]:
    """Scalar evaluation (<rho, Gamma2 f - (1/dim)(Delta f)^2>, <rho, Gamma f>).

    O(edges) route: the edge sums of cd_quadratic_grad, with Delta moved
    onto rho by reversibility.  They never read the assembled FormPair,
    and they agree with it applied to f.
    """
    rho, d1 = _density_d1(chain, mean, rho)
    return _cd_values(chain.q, chain.pi, chain.edges, d1, rho, dim,
                      _as_function(chain, f))


def cd_quadratic_grad(chain: MarkovChain, mean, rho, dim,
                      f) -> tuple[float, float, np.ndarray, np.ndarray]:
    """cd_quadratic at f together with its rho-gradients at fixed f.

    Returns (M, N, dM, dN).  Moving Delta onto rho by reversibility, both
    forms are edge sums, with theta1 = d1theta(rho_x, rho_y) on e = (x, y):
      N = sum_e rho_x pi_x q_e theta1 (D_e f)^2,
      M = sum_e [(1/2)(Delta rho)_x (D_e f)^2 - rho_x (D_e f)(D_e Delta f)]
                pi_x q_e theta1 - (1/dim) sum_x rho_x pi_x (Delta f)_x^2.
    theta1 depends on rho_x through d11 and on rho_y through
    d12 = -rho_x d11 / rho_y (d1 is 0-homogeneous), so the gradients are
    a few bincounts over the edges and one (Q - I)' product.  The density
    must be strictly positive.
    """
    mean = get_mean(mean)
    rho, d1 = _density_d1(chain, mean, rho)
    return _cd_grad(chain, mean, rho, d1, dim, f)


def _cd_grad(chain: MarkovChain, mean, rho: np.ndarray, d1: np.ndarray, dim,
             f) -> tuple[float, float, np.ndarray, np.ndarray]:
    """cd_quadratic_grad of a validated density rho with d1 = d1theta on
    the ordered edges, as _density_d1 returns them."""
    if (rho == 0).any():
        raise DomainError("the curvature gradient needs a strictly positive density")
    n = chain.n_states
    ex, ey, _ = chain.edges
    lf, a, b, g = _edge_terms(chain.q, chain.pi, chain.edges, rho,
                              _as_function(chain, f))
    rx, ry = rho[ex], rho[ey]
    t11 = _on_edges(mean.d11, rho, ex, ey)
    t12 = -rx * t11 / ry
    c = g - rx * b          # coefficient of theta1 in M
    ta = np.bincount(ex, weights=d1 * a, minlength=n)
    n_val = float(np.dot(rho, ta))
    m_val = float(np.dot(c, d1))
    dn = ta + np.bincount(ex, weights=rx * a * t11, minlength=n) \
        + np.bincount(ey, weights=rx * a * t12, minlength=n)
    dm = 0.5 * (chain.q.T @ ta - ta) \
        - np.bincount(ex, weights=d1 * b, minlength=n) \
        + np.bincount(ex, weights=c * t11, minlength=n) \
        + np.bincount(ey, weights=c * t12, minlength=n)
    if np.isfinite(dim):
        corr = chain.pi * lf * lf / float(dim)
        m_val -= float(np.dot(rho, corr))
        dm = dm - corr
    return m_val, n_val, dm, dn


def check_geometric_green(chain: MarkovChain, rho, trials: int = 16,
                          seed: int = 0) -> dict[str, float]:
    """Residual of <Delta_rho f1, f2>_{rho pi} + <grad f1, grad f2>_rho per mean.

    Zero (to rounding) exactly for the geometric mean, where the modulated
    Laplacian is self-adjoint in the rho-weighted inner product; generically
    nonzero for the arithmetic and logarithmic means.
    """
    from .means import BUILTIN_MEANS

    rng = np.random.default_rng(seed)
    ex, ey, _ = chain.edges
    out = {}
    for kind, mean in BUILTIN_MEANS.items():
        rho, d1 = _density_d1(chain, mean, rho)
        # the trials as rows, drawn f1 then f2 per trial
        f1, f2 = rng.standard_normal((trials, 2, chain.n_states)).transpose(1, 0, 2)
        lhs = np.sum(_rho_delta(chain, d1, f1) * f2 * rho * chain.pi, axis=1)
        rhs = _vf_edges(chain, _on_edges(mean.value, rho, ex, ey),
                        f1[:, ey] - f1[:, ex], f2[:, ey] - f2[:, ex])
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
        # fmax passes over a NaN as max(worst, nan) does
        out[kind] = float(np.fmax.reduce(np.abs(lhs + rhs) / scale, initial=0.0))
    return out
