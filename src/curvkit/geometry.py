"""Intrinsic metric, Cheeger constant, and the spectral-geometric
inequality battery.

The intrinsic distance maximizes f(y) - f(x) subject to the pointwise energy
constraint Gamma f <= 1 everywhere; a log-barrier Newton method solves the
convex program from the edge arrays, its Hessian a weighted Laplacian plus
the outer products of the constraint gradients.  Each barrier stage ends on
its Newton decrement relative to the barrier objective's scale t f(y):
loosely (1e-12) in the stages that only lead to the last, and at the
rounding floor (1e-20) in the last, which alone sets the accuracy (Boyd &
Vandenberghe, Convex Optimization, sec. 11.3).  The diameter solves the
pairs in order of decreasing upper bound U (Gamma f <= 1 at either end of
an edge caps its increment at sqrt(2 / max(Q(x,y), Q(y,x))); U is the
shortest path in those lengths) and stops at the first pair whose U is
strictly below the best value so far; no skipped pair can exceed that
value.  It solves one pair per orbit of the pairs under the automorphisms
that the generators supply and that hold bit for bit (`pair_orbits`): an
automorphism leaves Q, and so Gamma, U and d_Gamma, unchanged.  Each
solved pair is also cut short once a weak-duality bound (Boyd &
Vandenberghe, ch. 5) at the barrier's multipliers falls strictly below
that best value: the cut returns a feasible value below it, which
cannot change the maximum, so the result is the maximum over the solved
orbit representatives of their complete solves bit for bit.  The Cheeger constant is an exact minimum
over subsets, found by a vectorized block enumeration: subset-sum tables,
built by doubling, hold pi and the cut of every pattern of each vertex
block, and each block step scores 2^16 subsets by one ratio apiece.
Inequality checks take the chain alone: the spectrum, tau(1/4), h, diam_Gamma
and global curvature they need are memoized on the chain (`chain.derived`).
They return reports that carry the status of every precondition, so
proof-backed and heuristic-backed results stay distinguishable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chain import MarkovChain, derived, distance_matrix, pair_orbits
from .curvature import AGREE_TOL, bakry_emery_global
from .errors import ConvergenceWarning, PreconditionHeuristic, TooLarge
from .gamma import _edge_laplacian
from .heat import _first_min, avg_mixing_time, l1_distance_from_equilibrium, lambda1

#: inequality slacks are compared against this times the sides' magnitudes
SLACK_REL_TOL = 1e-9
#: exact cheeger enumeration guard: 2^(n-1) subsets, 2^31 at the cap (Q^5: 8-12 s)
CHEEGER_MAX_STATES = 32
#: the d_Gamma barrier method stops once its duality gap bound is below this
GAP_TOL = 1e-9
#: a d_Gamma barrier stage ends once its Newton decrement / 2 is at most this
#: times max(1, t f(y)), the barrier objective's scale
_STAGE_DEC_TOL = 1e-12
#: the same for the final stage, which alone sets the accuracy: its rounding floor
_FINAL_DEC_TOL = 1e-20
#: the Cheeger enumeration scores 2^16 low patterns per step (the arrays stay in cache)
_CHEEGER_LOW_BITS = 16


# -- intrinsic metric -------------------------------------------------------

def d_gamma(chain: MarkovChain, x, y, *, below: float = -math.inf) -> float:
    """Intrinsic distance sup{f(y) - f(x) : Gamma f <= 1 pointwise}.

    Log-barrier Newton on the gauge-fixed program (f(x) = 0, start f = 0,
    barrier parameter t grows tenfold per stage, stop when the duality gap
    bound m/t falls below GAP_TOL).  A stage ends once the Newton decrement
    / 2 is at most 1e-12 max(1, t f(y)), the final stage (m/t <= GAP_TOL)
    once it is at most 1e-20 max(1, t f(y)), its rounding floor; either way
    a stage takes at most 30 Newton steps.  Everything is
    read from the edge arrays: the slacks 1 - Gamma f are a bincount, the
    constraint gradients the rows of one n x n matrix G, and the barrier
    Hessian the edge Laplacian weighted by q_e / s(x) plus the outer
    products G' diag(1/s^2) G of the gradients.

    With `below` > 0 the weak-duality bound `_dual_bound` at the barrier's
    multipliers is checked before every Newton step, and the solve stops
    once it is strictly below `below` (by a relative 1e-12, for rounding),
    returning its current feasible f(y): a value below `below`, though not
    d_Gamma itself.  Every bound is positive, so under below <= 0, the
    default included, the bound is never evaluated.
    """
    ix, iy = chain.index(x), chain.index(y)
    if ix == iy:
        return 0.0
    run = _barrier(chain, ix, iy, below)
    if not run.converged:
        warnings.warn(f"d_gamma({x},{y}) stopped early; value is a lower bound",
                      ConvergenceWarning)
    return float(run.f[iy])


class _Barrier(NamedTuple):
    f: np.ndarray           # the last iterate: feasible, f[ix] = 0
    steps: int              # Newton steps taken
    cut: bool               # stopped by the dual bound
    converged: bool


def _dual_bound(lap: np.ndarray, slacks: np.ndarray, k: int) -> float:
    """Weak-duality bound on d_Gamma at the multipliers lambda ~ 1/slacks.

    For multipliers lambda > 0 the Lagrangian f(y) + sum_z lambda(z)
    (1 - Gamma f(z)) is sum(lambda) + f(y) - f' L f / 2, L the edge
    Laplacian with weights lambda(x) q_e; its supremum over f with
    f(x) = 0 is sum(lambda) + e' L^-1 e / 2 on the rows other than x, e the
    target's unit vector, and by weak duality it is >= d_Gamma.  `lap` is
    L at lambda = 1/slacks on those rows and k the target's row in it;
    minimizing over the scale of lambda gives
    sqrt(2 sum(1/slacks) e' lap^-1 e).  The barrier's multipliers are
    1/(t slacks), so at its central point the bound is within the m/t gap
    of f(y).
    """
    e = np.zeros(len(lap))
    e[k] = 1.0
    return math.sqrt(2.0 * float((1.0 / slacks).sum())
                     * float(np.linalg.solve(lap, e)[k]))


def _barrier(chain: MarkovChain, ix: int, iy: int, below: float) -> _Barrier:
    """The barrier Newton method of `d_gamma`, from source ix to target iy."""
    n = chain.n_states
    ex, ey, qe = chain.edges
    kept = np.flatnonzero(np.arange(n) != ix)
    block = np.ix_(kept, kept)
    k_target = iy - (iy > ix)
    cut_at = below * (1.0 - 1e-12) if below > 0 else None

    def slacks_of(v):
        return 1.0 - 0.5 * np.bincount(ex, weights=qe * (v[ey] - v[ex]) ** 2,
                                       minlength=n)

    f = np.zeros(n)
    slacks = slacks_of(f)
    t = 1.0
    m_constraints = n
    steps = 0
    converged = True
    while True:
        dec_tol = _FINAL_DEC_TOL if m_constraints / t <= GAP_TOL else _STAGE_DEC_TOL
        for _ in range(30):
            lap = _edge_laplacian(n, ex, ey, qe / slacks[ex])[block]
            if cut_at is not None:
                try:
                    if _dual_bound(lap, slacks, k_target) < cut_at:
                        return _Barrier(f, steps, True, True)
                except np.linalg.LinAlgError:
                    pass
            # row z of grads is the gradient of Gamma f(z)
            grads = np.zeros((n, n))
            grads[ex, ey] = qe * (f[ey] - f[ex])
            np.fill_diagonal(grads, -grads.sum(axis=1))
            g = grads.T @ (1.0 / slacks)
            g[iy] -= t
            h = lap + (grads.T @ (grads / (slacks * slacks)[:, None]))[block]
            step = np.zeros(n)
            try:
                step[kept] = np.linalg.solve(h, -g[kept])
            except np.linalg.LinAlgError:
                step[kept] = np.linalg.lstsq(h, -g[kept], rcond=None)[0]
            steps += 1
            decrement = float(-g @ step)
            alpha = 1.0
            phi0 = -t * f[iy] - float(np.log(slacks).sum())
            for _ in range(60):
                f_new = f + alpha * step
                s_new = slacks_of(f_new)
                if (s_new > 0).all():
                    phi_new = -t * f_new[iy] - float(np.log(s_new).sum())
                    if phi_new <= phi0 - 0.25 * alpha * decrement + 1e-14:
                        break
                alpha *= 0.5
            else:
                converged = False
                break
            f, slacks = f_new, s_new
            if decrement / 2.0 <= dec_tol * max(1.0, t * f[iy]):
                break
        if m_constraints / t <= GAP_TOL:
            break
        t *= 10.0
        if t > 1e16:
            converged = False
            break
    return _Barrier(f, steps, False, converged)


def _d_gamma_upper(chain: MarkovChain) -> np.ndarray:
    """Upper bound U >= d_Gamma on every pair: Gamma f(x) <= 1 caps
    |f(y) - f(x)| at sqrt(2/Q(x,y)) on each edge, and Gamma f(y) <= 1 at
    sqrt(2/Q(y,x)), so U is the shortest-path distance with edge length
    sqrt(2 / max(Q(x,y), Q(y,x))), by Floyd-Warshall: n passes over the
    n x n array, cheap beside the barrier solves of diam_Gamma's chains."""
    ex, ey, qe = chain.edges
    upper = np.full((chain.n_states, chain.n_states), np.inf)
    np.fill_diagonal(upper, 0.0)
    upper[ex, ey] = np.sqrt(2.0 / np.maximum(qe, chain.q[ey, ex]))
    for k in range(chain.n_states):
        np.minimum(upper, upper[:, k, None] + upper[k], out=upper)
    return upper


@derived
def diam_gamma(chain: MarkovChain) -> float:
    """Diameter in the intrinsic metric (max over unordered pairs).

    Only one pair per orbit of the chain's checked automorphisms is solved
    (`pair_orbits`): the pair i < j whose code i n + j labels the orbit.
    An automorphism sigma leaves Q, and with it Gamma and the edge lengths
    of U, unchanged, so f is feasible iff f o sigma^-1 is, and every pair
    of an orbit has the representative's d_Gamma and U; a chain without
    automorphisms makes every pair its own orbit.  The representatives are
    solved in order of decreasing bound U (`_d_gamma_upper`), ties in
    (i, j) order, and the loop stops at the first pair with U < best.
    Every solved value is attained by a feasible f, so it is at most
    d_Gamma <= U: no skipped orbit exceeds best.  Each solve gets
    `below=best` and ends once its dual bound, itself >= d_Gamma, is
    strictly below best; its value then stays below best, while a pair
    whose complete solve would exceed best is never cut, so the result is
    bit for bit the maximum of the representatives' complete solves.  The
    other pairs of an orbit have the same d_Gamma, though their complete
    solves may differ from the representative's in the last bits.  The
    skip and the cut are strict, so a pair whose bound ties best is still
    solved; bounds can equal the diameter (the Hamming-2 pairs of Q^4).
    """
    n = chain.n_states
    iu, ju = np.triu_indices(n, 1)
    first = pair_orbits(chain).label[iu, ju] == iu * n + ju
    iu, ju = iu[first], ju[first]
    bound = _d_gamma_upper(chain)[iu, ju]
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] < best:
            break
        best = max(best, d_gamma(chain, int(iu[k]), int(ju[k]), below=best))
    return best


def diam_combinatorial(chain: MarkovChain) -> int:
    return int(distance_matrix(chain).max())


# -- Cheeger constant -------------------------------------------------------

@dataclass(frozen=True)
class CheegerResult:
    h: float
    subset: tuple[str, ...]


def cut_weight(chain: MarkovChain, subset_idx) -> float:
    """|boundary W| = sum of w(x,y) over x in W, y outside W."""
    mask = np.zeros(chain.n_states, dtype=bool)
    mask[list(subset_idx)] = True
    return float(chain.w[np.ix_(mask, ~mask)].sum())


@derived
def cheeger(chain: MarkovChain) -> CheegerResult:
    """Exact Cheeger constant inf_{pi(W) <= 1/2} |boundary W| / pi(W).

    Enumerates the 2^(n-1) subsets avoiding one fixed vertex and scores each
    by |boundary W| / min(pi(W), 1 - pi(W)): a set and its complement cut
    identically, so this covers every feasible W for any stationary measure.
    The subset reported is the one of the pair with pi(W) <= 1/2.
    """
    if chain.n_states > CHEEGER_MAX_STATES:
        raise TooLarge(f"exact cheeger enumeration capped at {CHEEGER_MAX_STATES} states")
    idx = _cheeger_block(chain)
    return CheegerResult(h=cut_weight(chain, idx) / float(chain.pi[idx].sum()),
                         subset=tuple(sorted((chain.states[i] for i in idx),
                                             key=chain.index)))


def _subset_sums(v: np.ndarray) -> np.ndarray:
    """out[S] = sum of v[a] over the bits a of S, by doubling: one add per bit."""
    out = np.zeros(1 << len(v))
    for a, x in enumerate(v):
        k = 1 << a
        np.add(out[:k], x, out=out[k:2 * k])
    return out


def _subset_cuts(w: np.ndarray, r: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """out[S] = weight leaving {verts[a] : a in S}, bit by bit: adding verts[a]
    to a set S of earlier bits adds its row sum r and takes back twice its
    weight into S, itself a subset-sum table over the earlier bits."""
    out = np.zeros(1 << len(verts))
    for a, x in enumerate(verts):
        k = 1 << a
        np.subtract(out[:k] + r[x], 2.0 * _subset_sums(w[x, verts[:a]]), out=out[k:2 * k])
    return out


def _cheeger_block(chain: MarkovChain) -> list[int]:
    """Vectorized enumeration: subsets split into low/high vertex blocks.

    Subset-sum tables give pi and the cut of every low pattern, and of every
    high pattern.  The high patterns are walked in Gray-code order, so the
    cut between the blocks moves by one table per step; each step scores
    all low patterns at once by cut / min(pi(S), 1 - pi(S)), one argmin.
    The empty set (0/0) is skipped.
    """
    n = chain.n_states
    w = chain.w
    r = w.sum(axis=1)
    pi = chain.pi
    verts = np.arange(1, n)          # vertex 0 fixed outside the enumerated set
    lo_verts = verts[:_CHEEGER_LOW_BITS]
    hi_verts = verts[_CHEEGER_LOW_BITS:]
    pi_lo = _subset_sums(pi[lo_verts])
    base = _subset_cuts(w, r, lo_verts)        # low cut minus the cross cut
    pi_hi = _subset_sums(pi[hi_verts])
    cut_hi = _subset_cuts(w, r, hi_verts)
    contrib = [_subset_sums(2.0 * w[x, lo_verts]) for x in hi_verts]

    best, best_lo, best_hi = math.inf, 0, 0
    cut = np.empty_like(pi_lo)
    den = np.empty_like(pi_lo)
    for m in range(1 << len(hi_verts)):
        gray = m ^ (m >> 1)
        if m:
            j = (m & -m).bit_length() - 1       # the bit the walk flips
            if (gray >> j) & 1:
                base -= contrib[j]
            else:
                base += contrib[j]
        np.add(base, cut_hi[gray], out=cut)
        np.add(pi_lo, pi_hi[gray], out=den)
        np.minimum(den, 1.0 - den, out=den)
        if not m:
            cut[0], den[0] = math.inf, 1.0
        np.divide(cut, den, out=cut)
        i = int(np.argmin(cut))
        if cut[i] < best:
            best, best_lo, best_hi = float(cut[i]), i, gray

    mask = np.zeros(n, dtype=bool)
    mask[lo_verts] = (best_lo >> np.arange(len(lo_verts))) & 1
    mask[hi_verts] = (best_hi >> np.arange(len(hi_verts))) & 1
    if pi[mask].sum() > 0.5:
        mask = ~mask
    return np.flatnonzero(mask).tolist()


# -- inequality reports -----------------------------------------------------

@dataclass
class InequalityReport:
    """Outcome of one inequality check, always oriented as lhs <= rhs.

    holds is None ("not applicable") when some precondition is unmet; a
    heuristic precondition keeps the check informative but not proof-backed.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool | None
    slack: float
    preconditions: list[dict] = field(default_factory=list)  # {"name", "status"}
    details: dict = field(default_factory=dict)


def _report(name, lhs, rhs, preconditions, details=None) -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    unmet = any(status == "unmet" for _, status in preconditions)
    if any(status == "heuristic" for _, status in preconditions):
        warnings.warn(f"{name}: checked under a heuristic precondition",
                      PreconditionHeuristic)
    holds = None if unmet else bool(slack >= -SLACK_REL_TOL * (abs(lhs) + abs(rhs)))
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, holds=holds,
                            slack=slack,
                            preconditions=[{"name": n, "status": s}
                                           for n, s in preconditions],
                            details=details or {})


def check_cheeger_l1(chain: MarkovChain, trials: int = 100,
                     seed: int = 0) -> InequalityReport:
    """L1 gradient bound ||grad f||_1 >= (h/2) ||f||_1 for pi-mean-zero f.

    The worst trial is reported; the indicator of the Cheeger minimizer is
    included among the trial functions (it is tight up to a factor <= 2).
    """
    res = cheeger(chain)
    pi = chain.pi
    ex, ey, qe = chain.edges
    rng = np.random.default_rng(seed)

    # the trial functions as rows: the indicator, then the random draws
    fs = np.zeros((trials + 1, chain.n_states))
    fs[0, [chain.index(s) for s in res.subset]] = 1.0
    fs[1:] = rng.standard_normal((trials, chain.n_states))
    fs -= (fs @ pi)[:, None]
    grad_l1 = 0.5 * (np.abs(fs[:, ey] - fs[:, ex]) @ (qe * pi[ex]))
    rhs_val = 0.5 * res.h * (np.abs(fs) @ pi)
    # the first strict minimum of the margin, as `margin < worst` finds it
    k = _first_min(grad_l1 - rhs_val)
    lhs, rhs = (0.0, 0.0) if k is None else (rhs_val[k], grad_l1[k])
    return _report("cheeger_l1", lhs, rhs, [("mean_zero_functions", "exact")],
                   {"h": res.h, "trials": len(fs)})


def check_diameter_bound_ent(chain: MarkovChain, k: float,
                             k_status: str = "exact") -> list[InequalityReport]:
    """Diameter bounds under positive entropic curvature K.

    Intrinsic:      diam_Gamma <= (2/K) sqrt(2 c) with c = D_pi log D_pi/(D_pi - 1)
    combinatorial:  diam       <= (2/K) sqrt(c);   c := 1 when D_pi = 1.
    """
    pre = [("entropic_curvature_positive", k_status if k > 0 else "unmet")]
    d_pi = chain.stats().deg_pi_max
    c = 1.0 if abs(d_pi - 1.0) < 1e-12 else d_pi * math.log(d_pi) / (d_pi - 1.0)
    bounds = None
    if k > 0:
        bounds = ((2.0 / k) * math.sqrt(2.0 * c), (2.0 / k) * math.sqrt(c))
    return _diameter_reports(chain, "diameter_ent", k, pre, bounds,
                             {"d_pi": d_pi})


def check_diameter_bound_finite_n(chain: MarkovChain,
                                  dim: float) -> list[InequalityReport]:
    """Finite-dimension diameter bounds pi sqrt(dim/K) and pi sqrt(D dim/(2K))
    at the chain's confirmed global curvature K (arithmetic mean) at dim.
    K counts as positive only when its PSD bracket excludes 0, so a K of
    rounding size leaves the precondition unmet."""
    k, _ = bakry_emery_global(chain, dim)
    # K is certified to within its widest PSD bracket, AGREE_TOL max(1, |K|)
    positive = k > AGREE_TOL * max(1.0, abs(k))
    pre = [("curvature_positive", "exact" if positive else "unmet"),
           ("dimension_finite", "exact" if np.isfinite(dim) else "unmet"),
           ("mean_below_arithmetic", "exact")]
    bounds = None
    if positive and np.isfinite(dim):
        dmax = chain.stats().deg_weighted_max
        bounds = (math.pi * math.sqrt(dim / k),
                  math.pi * math.sqrt(dmax * dim / (2.0 * k)))
    return _diameter_reports(chain, "diameter_finite_n", k, pre, bounds,
                             {"dim": dim})


def _diameter_reports(chain, name, k, pre, bounds, details):
    """The {name}_dgamma and {name}_d reports of diam_Gamma and the
    combinatorial diameter against bounds = (intrinsic, combinatorial);
    nan reports when a precondition is unmet (bounds None)."""
    if bounds is None:
        return [_report(f"{name}_dgamma", math.nan, math.nan, pre, {"k": k}),
                _report(f"{name}_d", math.nan, math.nan, pre, {"k": k})]
    dg, dd = diam_gamma(chain), diam_combinatorial(chain)
    return [_report(f"{name}_dgamma", dg, bounds[0], pre, {"k": k, **details}),
            _report(f"{name}_d", dd, bounds[1], pre, {"k": k, **details})]


def _r0(chain: MarkovChain):
    """(preconditions, R0) of the bounds that need pi_max < 1/4 and
    q_min < 1; R0 = log(4 pi_max)/log(q_min), None when either fails."""
    st = chain.stats()
    pre = [("pi_max_below_quarter", "exact" if st.pi_max < 0.25 else "unmet"),
           ("q_min_below_one", "exact" if st.q_min < 1.0 else "unmet")]
    if st.pi_max < 0.25 and st.q_min < 1.0:
        return pre, math.log(4.0 * st.pi_max) / math.log(st.q_min)
    return pre, None


def check_tau_lower_bound(chain: MarkovChain) -> InequalityReport:
    """Average-mixing-time lower bound
    tau(1/4) >= (pi_min/(8 pi_max))^(1/R0) (q_min/e) R0, R0 = log(4 pi_max)/log(q_min)."""
    st = chain.stats()
    pre, r0 = _r0(chain)
    if r0 is None:
        return _report("tau_avg_lower_bound", math.nan, math.nan, pre, {})
    bound = (st.pi_min / (8.0 * st.pi_max)) ** (1.0 / r0) * (st.q_min / math.e) * r0
    tau = avg_mixing_time(chain, 0.25)
    return _report("tau_avg_lower_bound", bound, tau, pre,
                   {"r0": r0, "tau_avg_quarter": tau})


def check_buser(chain: MarkovChain,
                curvature_status: str = "heuristic") -> InequalityReport:
    """Buser inequality lambda_1 <= (16 log 2 / q_min) h^2 under nonnegative
    entropic curvature."""
    pre = [("entropic_curvature_nonnegative", curvature_status)]
    hval = cheeger(chain).h
    lamval = lambda1(chain)
    q_min = chain.stats().q_min
    rhs = 16.0 * math.log(2.0) / q_min * hval * hval
    return _report("buser", lamval, rhs, pre, {"h": hval, "q_min": q_min})


def check_lambda_tau(chain: MarkovChain,
                     curvature_status: str = "heuristic") -> InequalityReport:
    """lambda_1 tau_avg(1/4) <= 256 log 2 / q_min^2 under nonnegative
    entropic curvature."""
    pre = [("entropic_curvature_nonnegative", curvature_status)]
    lamval = lambda1(chain)
    # a concentrated pi can start within 1/4 of equilibrium: then tau = 0
    mixed = l1_distance_from_equilibrium(chain, 0.0) <= 0.25
    tauval = 0.0 if mixed else avg_mixing_time(chain, 0.25)
    q_min = chain.stats().q_min
    rhs = 256.0 * math.log(2.0) / (q_min * q_min)
    return _report("lambda1_tau_avg", lamval * tauval, rhs, pre,
                   {"lambda1": lamval, "tau": tauval})


def _detect_regular_srw(chain: MarkovChain) -> int | None:
    """Degree d when the chain is the simple random walk on a d-regular graph."""
    if np.abs(np.diag(chain.q)).max() > 0:
        return None
    degs = chain.adjacency.sum(axis=1)
    d = int(degs[0])
    if not (degs == d).all():
        return None
    ex, ey, qe = chain.edges
    if np.abs(qe - 1.0 / d).max() > 1e-12:
        return None
    if np.abs(chain.pi - 1.0 / chain.n_states).max() > 1e-12:
        return None
    return d


def check_expander_bounds(chain: MarkovChain,
                          curvature_status: str = "heuristic") -> list[InequalityReport]:
    """Spectral-gap consequences of nonnegative entropic curvature.

    First: lambda_1 <= (483/q_min^3)(8 pi_max/pi_min)^(1/R0) / R0 (needs
    pi_max < 1/4, q_min < 1).  Second, for the SRW on a d-regular graph with
    |X| >= 4d, d >= 2: d - mu_2 = d lambda_1 <= 4000 d^4 log d / log(|X|/4).
    """
    st = chain.stats()
    lamval = lambda1(chain)
    out = []

    pre, r0 = _r0(chain)
    pre1 = [("entropic_curvature_nonnegative", curvature_status)] + pre
    if r0 is not None:
        rhs = (483.0 / st.q_min ** 3) \
            * (8.0 * st.pi_max / st.pi_min) ** (1.0 / r0) / r0
        out.append(_report("lambda1_upper_bound", lamval, rhs, pre1, {"r0": r0}))
    else:
        out.append(_report("lambda1_upper_bound", math.nan, math.nan, pre1, {}))

    d = _detect_regular_srw(chain)
    size_ok = d is not None and d >= 2 and chain.n_states >= 4 * d
    pre2 = [("entropic_curvature_nonnegative", curvature_status),
            ("regular_srw", "exact" if d is not None else "unmet"),
            ("size_at_least_4d", "exact" if size_ok else "unmet")]
    if size_ok:
        gap = d * lamval                     # d - mu_2 for the SRW generator
        rhs = 4000.0 * d ** 4 * math.log(d) / math.log(chain.n_states / 4.0)
        out.append(_report("regular_spectral_gap", gap, rhs, pre2, {"d": d}))
    else:
        out.append(_report("regular_spectral_gap", math.nan, math.nan, pre2,
                           {"d": d if d is not None else -1}))
    return out
