"""Box-constrained L-BFGS: the descent of the entropic curvature estimate.

box_lbfgs makes the decisions of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM
J. Sci. Comput. 16(5), 1995) wherever no bound is met: each iteration
searches the segment from x to the projection onto the box of the
quasi-Newton point x - H g, H the two-loop L-BFGS inverse Hessian (Nocedal
& Wright, Numerical Optimization, 2nd ed., alg. 7.4), with the line search
of Moré & Thuente (ACM Trans. Math. Softw. 20(3), 1994; MINPACK-2's
dcsrch and dcstep).  At a bound it holds the states that L-BFGS-B's
Cauchy point would fix, but it takes the step on the others from H, not
from L-BFGS-B's subspace minimization.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

#: curvature pairs kept (L-BFGS-B's maxcor)
MEMORY = 10
#: the line search's sufficient-decrease, curvature and interval
#: tolerances, and its evaluations per search (L-BFGS-B's maxls)
LS_FTOL, LS_GTOL, LS_XTOL, LS_MAX_EVALS = 1e-3, 0.9, 0.1, 20
#: L-BFGS-B's cap on a step that no bound limits
_BIG = 1e10


def _cubic(a, b):
    """(r, gamma) for the cubic that interpolates the value and slope of
    the (step, f, f') triples a and b: its minimizer is at
    a + r (b - a) when gamma is not 0; gamma = 0 when the cubic does not
    tend to infinity in the direction of the step."""
    (sa, fa, da), (sb, fb, db) = a, b
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    if sb < sa:
        gamma = -gamma
    return ((gamma - da) + theta) / (((gamma - da) + gamma) + db), gamma


def _dcstep(x, y, p, brackt, lo, hi):
    """Moré and Thuente's safeguarded step (dcstep).

    x is the best (step, f, f') so far, y the other end of the interval of
    uncertainty, p the trial; [lo, hi] bounds the new step.  Returns the
    updated x and y, the new step and whether a minimizer is bracketed.
    """
    (stx, fx, dx), (sty, _, _), (stp, fp, dp) = x, y, p
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        # a higher value: the minimizer is bracketed; take the cubic step
        # when it is closer to stx than the quadratic one, else their mean
        r, _ = _cubic(x, p)
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0:
        # a lower value and slopes of opposite sign: bracketed; the cubic
        # step when it is farther from stp than the secant step
        r, _ = _cubic(p, x)
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, slopes of one sign, the slope's size decreasing
        r, gamma = _cubic(p, x)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = hi if stp > stx else lo
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            cap = stp + 0.66 * (sty - stp)
            stpf = min(cap, stpf) if stp > stx else max(cap, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(lo, min(hi, stpf))
    elif brackt:
        # a lower value, slopes of one sign, the slope's size not decreasing
        r, _ = _cubic(p, y)
        stpf = stp + r * (sty - stp)
    else:
        stpf = hi if stp > stx else lo
    if fp > fx:
        y = p
    else:
        if sgnd < 0:
            y = x
        x = p
    return x, y, stpf, brackt


def _tilt(point, c):
    """A (step, f, f') triple of f - c step."""
    t, f, g = point
    return t, f - t * c, g - c


def _line_search(phi, f0, g0, stp, stpmax):
    """Moré and Thuente's search (dcsrch) over steps in [0, stpmax] from stp.

    phi(t) returns (f, f', extra) at step t, f' the slope along the
    search direction, and f0, g0 < 0 are f and f' at 0.  The search ends
    at a step with f <= f0 + LS_FTOL t g0 and |f'| <= LS_GTOL |g0|, or at
    one of dcsrch's warnings (rounding prevents progress, the interval is
    below LS_XTOL, the step is at stpmax or 0), and returns the extra of
    its last evaluation; None when LS_MAX_EVALS evaluations end neither.
    """
    gtest = LS_FTOL * g0
    stage1, brackt = True, False
    width, width1 = stpmax, 2.0 * stpmax
    x = y = (0.0, f0, g0)
    stmin, stmax = 0.0, 5.0 * stp
    for evals in range(1, LS_MAX_EVALS + 1):
        f, g, extra = phi(stp)
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and g >= 0:
            stage1 = False
        if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax)
                or stp == stpmax and f <= ftest and g <= gtest
                or stp == 0 and (f > ftest or g >= gtest)
                or f <= ftest and abs(g) <= LS_GTOL * -g0):
            return extra
        if evals == LS_MAX_EVALS:
            return None
        # in the first stage, a lower value whose decrease is not sufficient
        # steps on the function f - gtest t
        c = gtest if stage1 and x[1] >= f > ftest else 0.0
        x, y, stp, brackt = _dcstep(_tilt(x, c), _tilt(y, c), (stp, f - stp * c, g - c),
                                    brackt, stmin, stmax)
        x, y = _tilt(x, -c), _tilt(y, -c)
        if brackt:
            if abs(y[0] - x[0]) >= 0.66 * width1:
                stp = x[0] + 0.5 * (y[0] - x[0])
            width1, width = width, abs(y[0] - x[0])
            stmin, stmax = min(x[0], y[0]), max(x[0], y[0])
        else:
            stmin, stmax = stp + 1.1 * (stp - x[0]), stp + 4.0 * (stp - x[0])
        stp = min(max(stp, 0.0), stpmax)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax):
            stp = x[0]      # no further progress: the best step so far
    return None


def _direction(g, pairs):
    """-H g for the L-BFGS inverse Hessian H of the (s, y, s'y, y'y) pairs,
    H0 = s'y / y'y of the newest pair (the identity without one)."""
    q, alphas = -g, []
    for s, y, sy, _ in reversed(pairs):
        alphas.append(float(s @ q) / sy)
        q = q - alphas[-1] * y
    if pairs:
        q = q * (pairs[-1][2] / pairs[-1][3])
    for (s, y, sy, _), a in zip(pairs, reversed(alphas)):
        q = q + (a - float(y @ q) / sy) * s
    return q


def _projected_gradient_norm(x, g, lo, hi) -> float:
    """The infinity norm of the gradient projected onto the box."""
    return float(np.abs(np.where(g < 0, np.maximum(x - hi, g), np.minimum(x - lo, g))).max())


def _max_step(x, d, lo, hi) -> float:
    """The largest t <= _BIG with x + t d in the box, d not 0."""
    moving = d != 0
    room = np.where(d > 0, hi - x, lo - x)[moving]
    return min(_BIG, float((room / d[moving]).min()))


def box_lbfgs(fun, x0, lo: float, hi: float, ftol: float, gtol: float, max_iters: int):
    """Minimize fun over the box [lo, hi]^n from x0 (clipped into it), by
    L-BFGS-B's rules; fun(x) returns (f, gradient).

    Each iteration searches from x to the projection z of x - H g onto the
    box (_line_search), with a first trial step of 1 capped at the largest
    step inside the box, and that cap 1 on the first iteration.  States at
    a bound that the gradient does not push inward are held there, as
    L-BFGS-B's Cauchy point fixes them: their entries of g and of H g are
    taken as 0.  The pair (s, y) of the step is kept unless
    s'y <= eps y'y.  A search that fails clears the pairs and retries once
    from the projected steepest-descent point.  A point equal to the last
    evaluated one is not evaluated again.  Returns (x, f, converged):
    converged when the projected gradient's infinity norm is at most gtol
    or the step reduced f by at most ftol max(|f|, |f_new|, 1); not
    converged after max_iters iterations or when the retry fails too.
    """
    last = None

    def evaluate(x):
        nonlocal last
        if last is None or not np.array_equal(x, last[0]):
            f, g = fun(x)
            last = (x, float(f), np.asarray(g, dtype=float))
        return last

    x, f, g = evaluate(np.clip(np.asarray(x0, dtype=float), lo, hi))
    if _projected_gradient_norm(x, g, lo, hi) <= gtol:
        return x, f, True
    pairs, first, iters = deque(maxlen=MEMORY), True, 0
    while True:
        pinned = (x <= lo) & (g >= 0) | (x >= hi) & (g <= 0)
        z = np.clip(x + np.where(pinned, 0.0, _direction(np.where(pinned, 0.0, g), pairs)),
                    lo, hi)
        d = z - x
        gd = float(g @ d)
        found = None
        if gd < 0:
            cap = 1.0 if first else _max_step(x, d, lo, hi)

            def phi(t):
                point = evaluate(z if t == 1.0 else x + t * d)
                return point[1], float(point[2] @ d), point

            found = _line_search(phi, f, gd, min(1.0, cap), cap)
        first = False
        if found is None:
            if not pairs:
                return x, f, False
            pairs.clear()
            continue
        (x_new, f_new, g_new), iters = found, iters + 1
        if iters >= max_iters:
            return x_new, f_new, False
        if (_projected_gradient_norm(x_new, g_new, lo, hi) <= gtol
                or f - f_new <= ftol * max(abs(f), abs(f_new), 1.0)):
            return x_new, f_new, True
        y, s = g_new - g, x_new - x
        sy, yy = float(s @ y), float(y @ y)
        if sy > np.finfo(float).eps * yy:
            pairs.append((s, y, sy, yy))
        x, f, g = x_new, f_new, g_new
