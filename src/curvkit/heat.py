"""Heat semigroup via spectral decomposition, mixing time, and the
semigroup-form inequality verifiers.

Reversibility makes the pi-symmetrized generator symmetric, so the semigroup
is exact (no time stepping): P_t f = sum_k exp(-lam_k t) <f, phi_k>_pi phi_k
with a pi-orthonormal eigenbasis phi_k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chain import MarkovChain, derived, distance_matrix
from .errors import (EpsTooLarge, InvalidParameters, NegativeTime,
                     NumericalFailure, PreconditionHeuristic)
from .gamma import (_as_function, _edge_laplacian, _on_edges, a_form,
                    func_inner, laplacian, laplacian_matrix)
from .means import get_mean

#: the spectral kernel's resolution relative to its largest entry: below it
#: a kernel value is rounding noise
_KERNEL_REL_RES = 1e-14


@dataclass(frozen=True)
class HeatSystem:
    """Spectral data of minus the Laplacian: 0 = lam_0 < lam_1 <= ..."""

    eigenvalues: np.ndarray
    basis: np.ndarray           # columns phi_k, pi-orthonormal, phi_0 constant


@derived
def spectral_decompose(chain: MarkovChain) -> HeatSystem:
    """Eigendecomposition of the symmetrized generator diag(sqrt pi)(I-Q)diag(1/sqrt pi)."""
    sqrt_pi = np.sqrt(chain.pi)
    sym = (np.eye(chain.n_states) - chain.q) * (sqrt_pi[:, None] / sqrt_pi[None, :])
    sym = 0.5 * (sym + sym.T)
    evals, vecs = np.linalg.eigh(sym)
    basis = vecs / sqrt_pi[:, None]
    if basis[0, 0] < 0:
        basis[:, 0] = -basis[:, 0]
    for a in (evals, basis):
        a.setflags(write=False)
    return HeatSystem(eigenvalues=evals, basis=basis)


def lambda1(chain: MarkovChain) -> float:
    """Smallest positive eigenvalue of minus the Laplacian."""
    return float(spectral_decompose(chain).eigenvalues[1])


def _damped(chain: MarkovChain, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, exp(-lam t)): the chain's eigenbasis and the damping of each
    mode at time t >= 0.  lam is clamped at 0: eigh may return the zero
    mode slightly negative, and its damping would grow without bound in t."""
    if t < 0:
        raise NegativeTime(f"heat semigroup needs t >= 0, got {t}")
    if not math.isfinite(t):
        raise InvalidParameters(f"heat semigroup needs a finite t, got {t}")
    spec = spectral_decompose(chain)
    return spec.basis, np.exp(-np.maximum(spec.eigenvalues, 0.0) * t)


def heat_operator(chain: MarkovChain, t: float) -> np.ndarray:
    """Matrix of P_t acting on functions (row x: P_t f(x))."""
    phi, damp = _damped(chain, t)
    return (phi * damp) @ (phi.T * chain.pi)


def heat_apply(chain: MarkovChain, t: float, f) -> np.ndarray:
    """P_t f for a function f of shape (n,)."""
    phi, damp = _damped(chain, t)
    coeff = phi.T @ (chain.pi * _as_function(chain, f))
    return phi @ (damp * coeff)


def heat_kernel(chain: MarkovChain, t: float) -> np.ndarray:
    """Heat kernel matrix p_t(x, y) = sum_k exp(-lam_k t) phi_k(x) phi_k(y).

    Symmetric; sums to one against pi in either argument.  The basis is
    v / sqrt(pi), so a subnormal pi can overflow an entry: a kernel that is
    not finite raises NumericalFailure.
    """
    phi, damp = _damped(chain, t)
    p = (phi * damp) @ phi.T
    if not np.isfinite(p).all():
        x, y = np.argwhere(~np.isfinite(p))[0]
        raise NumericalFailure(f"heat kernel p_{t}({chain.states[x]},{chain.states[y]}) "
                               f"= {p[x, y]} is not finite")
    return p


def l1_distance_from_equilibrium(chain: MarkovChain, t: float) -> float:
    """sum_{x,y} |pi(x) pi(y) p_t(x,y) - pi(x) pi(y)| (monotone
    nonincreasing in t), without forming p_t: pi(x) pi(y) p_t(x,y) =
    sum_k exp(-lam_k t) w_k(x) w_k(y) with w = phi pi = u sqrt(pi), u the
    orthonormal eigenvectors, so no entry can overflow at a subnormal pi
    as p_t's can."""
    phi, damp = _damped(chain, t)
    w = phi * chain.pi[:, None]
    return float(np.sum(np.abs((w * damp) @ w.T - np.outer(chain.pi, chain.pi))))


@derived
def avg_mixing_time(chain: MarkovChain, eps: float) -> float:
    """First time the doubly pi-weighted L1 distance to equilibrium is <= eps.

    Bracketing by doubling followed by bisection to 1e-10 in t, or to
    adjacent floats past t = 2^19, where an ulp of t exceeds 1e-10.  The
    distance is non-increasing in t, so a non-monotone evaluation trace is
    a NumericalFailure.
    """
    if not eps > 0:
        raise EpsTooLarge("eps must be positive")
    trace: list[tuple[float, float]] = []

    def phi(t):
        v = l1_distance_from_equilibrium(chain, t)
        trace.append((t, v))
        return v

    if phi(0.0) <= eps:
        raise EpsTooLarge(f"distance at t=0 is already <= eps={eps}")
    lo, hi = 0.0, 1.0
    while phi(hi) > eps:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise EpsTooLarge("mixing threshold not reached by t = 1e12")
    while hi - lo > 1e-10 and lo < (mid := 0.5 * (lo + hi)) < hi:
        if phi(mid) > eps:
            lo = mid
        else:
            hi = mid
    trace.sort(key=lambda p: p[0])
    for (t0, v0), (t1, v1) in zip(trace, trace[1:]):
        if v1 > v0 + 1e-12 * max(1.0, v0):
            raise NumericalFailure(f"distance trace not monotone at t={t1}")
    return hi


# -- semigroup-form inequality verifiers -----------------------------------

@dataclass
class VerifyReport:
    """Worst normalized residual of an inequality over randomized trials.

    Residuals are (lhs - rhs) / (|lhs| + |rhs|); negative means violated.
    """

    inequality: str
    trials: int
    worst_residual: float
    witness: dict = field(default_factory=dict)
    violations: int = 0

    def _score(self, r: float, violations: int, **witness) -> bool:
        """Add one trial's violations; when r is the least residual so far,
        keep it with copies of its witness and return True."""
        self.violations += violations
        if not r < self.worst_residual:
            return False
        self.worst_residual = r
        self.witness = {key: v.copy() if isinstance(v, np.ndarray) else v
                        for key, v in witness.items()}
        return True


def _random_density(chain: MarkovChain, rng) -> np.ndarray:
    """Dirichlet(1) mass converted to a density, floored at 1e-9."""
    w = rng.dirichlet(np.ones(chain.n_states))
    rho = np.maximum(w / chain.pi, 1e-9)
    return rho / float(np.dot(rho, chain.pi))


def _grad_coeff(k: float, dim: float, t: float) -> float:
    """(1 - exp(-2Kt)) / (K dim), with the K -> 0 limit 2t/dim."""
    if np.isinf(dim):
        return 0.0
    if k == 0.0:
        return 2.0 * t / dim
    return -math.expm1(-2.0 * k * t) / (k * dim)


def _residual_scale(scale: float, f) -> float:
    """scale floored by the rounding scale of the input function f.

    Without the floor, triples whose two sides cancel exactly (constant f,
    t = 0) normalize rounding noise up to order one.
    """
    return max(scale, 1e-13 * float(np.abs(f).max()) ** 2, 1e-300)


def gradient_estimate_residual(chain: MarkovChain, mean, k: float, dim: float,
                               rho, f, t: float) -> float:
    """Normalized residual of
    exp(-2Kt) A_{P_t rho}(f) - A_rho(P_t f) >= coeff * <rho, (Delta P_t f)^2>_pi,
    scaled by the unsigned aggregate of the terms, not by |lhs| + |rhs|:
    the aggregate bounds the rounding noise of the two (possibly
    cancelling) sides."""
    rho_t = heat_apply(chain, t, rho)
    f_t = heat_apply(chain, t, f)
    term1 = math.exp(-2.0 * k * t) * a_form(chain, mean, rho_t, f)
    term2 = a_form(chain, mean, rho, f_t)
    lf = laplacian(chain, f_t)
    rhs = _grad_coeff(k, dim, t) * func_inner(chain, rho, lf * lf)
    agg = abs(term1) + abs(term2) + abs(rhs)
    return (term1 - term2 - rhs) / _residual_scale(agg, f)


def _worst_trial(name: str, residual, chain: MarkovChain, trials: int,
                 t_grid, seed: int) -> VerifyReport:
    """Worst residual(rho, f, t) over random (rho, f) pairs and the t grid;
    a residual below -1e-9 counts as a violation."""
    rng = np.random.default_rng(seed)
    report = VerifyReport(name, trials, math.inf)
    for _ in range(trials):
        rho = _random_density(chain, rng)
        f = rng.standard_normal(chain.n_states)
        for t in t_grid:
            r = residual(rho, f, t)
            report._score(r, int(r < -1e-9), rho=rho, f=f, t=float(t))
    return report


def verify_gradient_estimate(chain: MarkovChain, mean, k: float, dim,
                             trials: int = 50, t_grid=(0.1, 1.0, 10.0),
                             seed: int = 0) -> VerifyReport:
    """Check the semigroup gradient estimate over random (rho, f, t)."""
    residual = partial(gradient_estimate_residual, chain, get_mean(mean), k,
                       float(dim))
    return _worst_trial("gradient_estimate", residual, chain, trials, t_grid,
                        seed)


def _gradient_estimate_f_matrix(chain: MarkovChain, mean, k: float, dim: float,
                                rho, t: float) -> np.ndarray:
    """Quadratic form H with f' H f = lhs - rhs of the gradient estimate.

    A negative eigenvalue of H exhibits a violating f for the given (rho, t).
    """
    pt = heat_operator(chain, t)
    rho_t = heat_apply(chain, t, rho)
    ex, ey, qe = chain.edges
    theta = get_mean(mean).value

    def energy_matrix(dens):
        return 0.5 * _edge_laplacian(chain.n_states, ex, ey,
                                     _on_edges(theta, dens, ex, ey)
                                     * qe * chain.pi[ex])

    lap = laplacian_matrix(chain)
    h = math.exp(-2.0 * k * t) * energy_matrix(rho_t) \
        - pt.T @ energy_matrix(rho) @ pt
    coeff = _grad_coeff(k, dim, t)
    if coeff:
        lp = lap @ pt
        h = h - coeff * (lp.T @ np.diag(rho * chain.pi) @ lp)
    return 0.5 * (h + h.T)


def sharpness_probe(chain: MarkovChain, mean, k: float, dim,
                    seed: int = 0) -> VerifyReport:
    """Search for a violation of the gradient estimate at a candidate K.

    Coordinate descent over (rho, f, t): the f-block is minimized exactly
    (the residual is quadratic in f), t by scanning a log grid, rho by
    greedy multiplicative perturbations.  Seeds are the worst random sample
    plus smoothed Dirac densities, because violations of a barely-too-large
    K can hide arbitrarily close to the boundary of the density simplex.
    The report's trials count the triples scored and its violations those
    scored below -1e-9.
    """
    mean = get_mean(mean)
    rng = np.random.default_rng(seed)
    dim = float(dim)

    report = verify_gradient_estimate(chain, mean, k, dim, trials=40,
                                      t_grid=(1e-3, 1e-2, 0.1, 1.0), seed=seed)

    # both sides of the estimate are invariant under f -> f + const, so the
    # search lives in the complement of constants (whose rounding-level
    # kernel direction would otherwise win every eigendecomposition)
    n = chain.n_states
    basis = np.linalg.qr(
        np.hstack([np.ones((n, 1)) / math.sqrt(n), np.eye(n)[:, :n - 1]]))[0][:, 1:]

    def best_f_at(cand, tc):
        h = _gradient_estimate_f_matrix(chain, mean, k, dim, cand, tc)
        v = np.linalg.eigh(basis.T @ h @ basis)[1][:, 0]
        f = basis @ v
        return f / np.linalg.norm(f)

    probe = VerifyReport("gradient_estimate", 0, math.inf)
    rho = t = None

    def consider(cand, tc, f=None):
        # score (cand, f, tc), f the exact minimizer unless given; the
        # search moves to the worst triple so far
        nonlocal rho, t
        f = best_f_at(cand, tc) if f is None else f
        r = gradient_estimate_residual(chain, mean, k, dim, cand, f, tc)
        probe.trials += 1
        if probe._score(r, int(r < -1e-9), rho=cand, f=f, t=float(tc)):
            rho, t = cand, float(tc)

    consider(np.asarray(report.witness["rho"]), report.witness["t"],
             np.asarray(report.witness["f"]))
    t_candidates = np.geomspace(1e-4, 10.0, 24)
    seeds = [rho]
    eps = 1e-6
    for ix in range(min(chain.n_states, 8)):
        bump = np.full(chain.n_states, eps)
        bump[ix] += (1.0 - eps) / chain.pi[ix]
        seeds.append(bump / float(np.dot(bump, chain.pi)))
    for cand in seeds:
        for tc in t_candidates:
            consider(cand, tc)
    for _ in range(200):
        before = probe.worst_residual
        # exact f step at fixed rho, scanning t
        for tc in t_candidates:
            consider(rho, tc)
        if probe.violations:
            break
        # greedy multiplicative rho proposals
        for _ in range(8):
            prop = rho * np.exp(0.5 * rng.standard_normal(chain.n_states))
            consider(prop / float(np.dot(prop, chain.pi)), t)
        if probe.violations or probe.worst_residual == before:
            break
    return probe


def _rp_coeff1(k: float, t: float) -> float:
    """(exp(2Kt) - 1)/K with the K -> 0 limit 2t."""
    if k == 0.0:
        return 2.0 * t
    return math.expm1(2.0 * k * t) / k


def _rp_coeff2(k: float, dim: float, t: float) -> float:
    """((exp(2Kt)-1)/K - 2t) / (K dim); series for small Kt, limit 2t^2/dim."""
    if np.isinf(dim):
        return 0.0
    kt = k * t
    if abs(kt) < 1e-6:
        return (2.0 * t * t + (4.0 / 3.0) * kt * t * t + (2.0 / 3.0) * kt * kt * t * t) / dim
    return (_rp_coeff1(k, t) - 2.0 * t) / (k * dim)


def reverse_poincare_residual(chain: MarkovChain, mean, k: float, dim: float,
                              rho, f, t: float) -> float:
    """Normalized residual of
    <f^2, P_t rho>_pi - <(P_t f)^2, rho>_pi
        >= c1(K,t) A_rho(P_t f) + c2(K,dim,t) <rho, (Delta P_t f)^2>_pi."""
    rho_t = heat_apply(chain, t, rho)
    f_t = heat_apply(chain, t, f)
    lhs = func_inner(chain, f * f, rho_t) - func_inner(chain, f_t * f_t, rho)
    lf = laplacian(chain, f_t)
    rhs = _rp_coeff1(k, t) * a_form(chain, mean, rho, f_t) \
        + _rp_coeff2(k, dim, t) * func_inner(chain, rho, lf * lf)
    return (lhs - rhs) / _residual_scale(abs(lhs) + abs(rhs), f)


def verify_reverse_poincare(chain: MarkovChain, mean, k: float, dim,
                            trials: int = 50, t_grid=(0.1, 0.5, 1.0, 3.0),
                            seed: int = 0) -> VerifyReport:
    """Check the reverse Poincare inequality (needs a mean below arithmetic)."""
    mean = get_mean(mean)
    _check_below_arithmetic(mean)
    residual = partial(reverse_poincare_residual, chain, mean, k, float(dim))
    return _worst_trial("reverse_poincare", residual, chain, trials, t_grid,
                        seed)


def _check_below_arithmetic(mean):
    """theta <= arithmetic: exact for the built-ins, sampled otherwise."""
    if mean.kind in ("arithmetic", "logarithmic", "geometric"):
        return
    from .errors import DomainError

    rng = np.random.default_rng(1)
    r = np.exp(rng.uniform(-6, 6, 512))
    s = np.exp(rng.uniform(-6, 6, 512))
    excess = np.max(np.asarray(mean.value(r, s)) - 0.5 * (r + s))
    if excess > 1e-12 * np.max(np.maximum(r, s)):
        raise DomainError("the reverse Poincare inequality needs a mean "
                          "below the arithmetic one")
    warnings.warn("mean <= arithmetic verified only on samples",
                  PreconditionHeuristic)


def check_linf_gradient_bound(chain: MarkovChain, trials: int = 20,
                              t_grid=(0.1, 1.0, 5.0), seed: int = 0,
                              curvature_status: str = "exact") -> VerifyReport:
    """sup-norm gradient decay under nonnegative curvature:
    max over edges |P_t f(y) - P_t f(x)| <= ||f||_inf / sqrt(t q_min)."""
    if curvature_status == "heuristic":
        warnings.warn("nonnegative curvature is heuristic for this chain/mean",
                      PreconditionHeuristic)
    rng = np.random.default_rng(seed)
    q_min = chain.stats().q_min
    ex, ey, _ = chain.edges
    report = VerifyReport("linf_gradient_bound", trials, math.inf)
    for _ in range(trials):
        f = rng.standard_normal(chain.n_states)
        for t in t_grid:
            f_t = heat_apply(chain, t, f)
            lhs = float(np.abs(f_t[ey] - f_t[ex]).max())
            rhs = float(np.abs(f).max()) / math.sqrt(t * q_min)
            r = (rhs - lhs) / max(abs(lhs) + abs(rhs), 1e-300)
            report._score(r, int(lhs > rhs + 1e-9), f=f, t=float(t))
    return report


def check_heat_kernel_bound(chain: MarkovChain,
                            t_grid=(0.1, 0.5, 1.0, 2.0)) -> VerifyReport:
    """Off-diagonal kernel bound p_t(x,y) <= (1/pi(x)) t^r / r! for r = d(x,y).

    A bound that overflows (t^r = inf) holds, with residual 1, the limit of
    the normalized residual as it grows; past r = 170 it is exp(r log t - log r!).
    A kernel value within the spectral kernel's resolution (_KERNEL_REL_RES
    times its largest entry) of 0 is 0 as far as the kernel can tell, and the
    bound holds there with residual 1 too: rounding noise of ~1e-14 against a
    bound of ~1e-31 would otherwise read as a near-violation of -1.
    """
    dist = distance_matrix(chain)
    pi = chain.pi
    report = VerifyReport("heat_kernel_bound", len(t_grid), math.inf)
    fact = np.array([math.factorial(min(r, 170)) for r in range(int(dist.max()) + 1)],
                    dtype=float)
    log_fact = np.array([math.lgamma(r + 1.0) for r in range(int(dist.max()) + 1)])
    for t in t_grid:
        p = heat_kernel(chain, t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bound = np.where(dist <= 170, float(t) ** dist / fact[dist],
                             np.exp(dist * np.log(float(t)) - log_fact[dist])) / pi[:, None]
            resid = (bound - p) / np.maximum(np.abs(bound) + np.abs(p), 1e-300)
        resid[np.isinf(bound) | (np.abs(p) <= _KERNEL_REL_RES * p.max())] = 1.0
        i, j = np.unravel_index(np.argmin(resid), resid.shape)
        report._score(float(resid[i, j]), int(np.sum(p > bound + 1e-12)),
                      x=chain.states[i], y=chain.states[j], t=float(t))
    return report
