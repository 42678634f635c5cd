"""Means on [0, inf)^2: evaluation, first and second partials, axiom checks.

A mean is symmetric, homogeneous, monotone, normalized (theta(1,1) = 1) and
smooth on the open quadrant.  Its admissible density domain is
I = (0, inf) when theta(0, s) = 0 for s > 0 (logarithmic, geometric) and
I = [0, inf) when theta(0, s) > 0 (arithmetic).

Arguments are converted once, in Mean.value, d1 and d11: every mean
function, built-in or custom, receives r and s as nonnegative float arrays
broadcast to one shape (0-d for scalars), so a scalar call returns np.float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NegativeInput

#: relative diagonal width below which the logarithmic closed forms
#: lose precision to cancellation and the Taylor path takes over
_SERIES_REL = 1e-6
#: |u| = |s-r|/(s+r) below which the logarithmic d11 uses its Taylor band;
#: the closed form cancels to about 3e-16/u^2 relative, the series is
#: truncated at O(u^10)
_D11_SERIES_U = 1e-2
#: relative step of the central difference that gives a custom mean its d11
_D11_FD_REL = 6e-6


def _arguments(r, s):
    """r and s as nonnegative float arrays broadcast to one shape."""
    r, s = np.asarray(r, float), np.asarray(s, float)
    if (r < 0).any() or (s < 0).any():
        raise NegativeInput("mean arguments must be nonnegative")
    return np.broadcast_arrays(r, s)


def _arith_eval(r, s):
    return 0.5 * (r + s)


def _arith_d1(r, s):
    return np.full(r.shape, 0.5)[()]


def _arith_d11(r, s):
    return np.zeros(r.shape)[()]


def _log_eval(r, s):
    out = np.zeros(r.shape)
    pos = (r > 0) & (s > 0)
    # diagonal band: theta = m * u/artanh(u) with u = (s-r)/(s+r)
    near = pos & (np.abs(r - s) <= _SERIES_REL * np.maximum(r, s))
    if near.any():
        u2 = ((s[near] - r[near]) / (r[near] + s[near])) ** 2
        g = 1.0 - u2 * (1.0 / 3.0 + u2 * (4.0 / 45.0 + u2 * (44.0 / 945.0)))
        out[near] = 0.5 * (r[near] + s[near]) * g
    far = pos & ~near
    if far.any():
        out[far] = (r[far] - s[far]) / _log_ratio(r[far], s[far])
    return out[()]


def _log_ratio(r, s):
    """log(r) - log(s) without cancellation.

    Inside the Sterbenz band r/s in [1/2, 2] the subtraction r - s is exact
    and log1p keeps full precision; outside it |log(r/s)| >= log 2 and the
    direct difference of logs is accurate.
    """
    ratio = r / s
    band = (ratio >= 0.5) & (ratio <= 2.0)
    out = np.empty(r.shape)
    out[band] = np.log1p((r[band] - s[band]) / s[band])
    out[~band] = np.log(r[~band]) - np.log(s[~band])
    return out


def _log_d1(r, s):
    if (r == 0).any():
        raise DomainError("d1 of the logarithmic mean needs r > 0")
    out = np.zeros(r.shape)  # limit s -> 0 is 0
    pos = s > 0
    near = pos & (np.abs(r - s) <= _SERIES_REL * np.maximum(r, s))
    if near.any():
        u = (s[near] - r[near]) / (r[near] + s[near])
        u2 = u * u
        g = 1.0 - u2 * (1.0 / 3.0 + u2 * (4.0 / 45.0 + u2 * (44.0 / 945.0)))
        gp = -u * (2.0 / 3.0 + u2 * (16.0 / 45.0 + u2 * (88.0 / 315.0)))
        out[near] = 0.5 * g - 0.5 * (1.0 + u) * gp
    far = pos & ~near
    if far.any():
        d = r[far] - s[far]
        ell = _log_ratio(r[far], s[far])
        out[far] = (ell - d / r[far]) / (ell * ell)
    return out[()]


def _log_d1_err(r, s):
    """A bound on the relative error of _log_d1(r, s) as evaluated.

    The series band costs a few roundings (8u; its truncation, O(u^8) at
    |u| <= 5e-7, is far below).  Outside it d1 = N / ell^2 with
    N = ell - d/r, ell = log(r/s): ell is off by 4u |ell| inside the
    Sterbenz band (log1p of a rounded quotient, the library log1p within
    an ulp) and by 4u (|log r| + |log s|) outside it, d/r by 2u |d/r|.
    Near the band N cancels to ell^2 / 2, so those absolute errors over
    |N| dominate (about 12u / |ell|, below 2e-9 since |ell| > 1e-6 there);
    the factor 2 covers the computed N in the denominator, and ell^2 and
    the quotient add 2 e_ell + 3u.
    """
    u, far = np.finfo(float).eps / 2, (s > 0) & (np.abs(r - s) > _SERIES_REL * np.maximum(r, s))
    out, rf, sf = np.full(r.shape, 8.0 * u), r[far], s[far]
    ell, dr = np.abs(_log_ratio(rf, sf)), np.abs(rf - sf) / rf
    e_ell = 4.0 * u * np.where((rf <= 2.0 * sf) & (sf <= 2.0 * rf), 1.0,
                               (np.abs(np.log(rf)) + np.abs(np.log(sf))) / ell)
    out[far] = 2.0 * (e_ell * ell + 2.0 * u * dr) / np.abs(ell - dr) + 2.0 * e_ell + 3.0 * u
    return out


def _log_d11(r, s):
    if (r == 0).any():
        raise DomainError("d11 of the logarithmic mean needs r > 0")
    out = np.zeros(r.shape)  # d1(r, 0) = 0 for every r
    pos = s > 0
    u = np.zeros(r.shape)
    u[pos] = (s[pos] - r[pos]) / (r[pos] + s[pos])
    # diagonal band: theta = m g(u) gives d11 = (1/2)(1+u)^2 g''(u) / (r+s)
    near = pos & (np.abs(u) <= _D11_SERIES_U)
    if near.any():
        un = u[near]
        u2 = un * un
        gpp = -(2.0 / 3.0 + u2 * (16.0 / 15.0 + u2 * (88.0 / 63.0
                + u2 * (3424.0 / 2025.0 + u2 * (20392.0 / 10395.0)))))
        out[near] = 0.5 * (1.0 + un) ** 2 * gpp / (r[near] + s[near])
    far = pos & ~near
    if far.any():
        rf, sf = r[far], s[far]
        ell = _log_ratio(rf, sf)
        out[far] = (2.0 * (rf - sf) - (rf + sf) * ell) / (rf * rf * ell ** 3)
    return out[()]


def _geom_eval(r, s):
    return np.sqrt(r * s)[()]


def _geom_d1(r, s):
    if (r == 0).any():
        raise DomainError("d1 of the geometric mean diverges at r = 0")
    return (0.5 * np.sqrt(s / r))[()]


def _geom_d11(r, s):
    if (r == 0).any():
        raise DomainError("d11 of the geometric mean diverges at r = 0")
    return (-0.25 * np.sqrt(s / r) / r)[()]


def _central_d11(d1_fn, r, s):
    """d11 as a central difference of d1 in r (one-sided at r = 0)."""
    h = _D11_FD_REL * np.where(r > 0, r, 1.0)
    lo = np.maximum(r - h, 0.0)
    hi = r + h
    return ((np.asarray(d1_fn(hi, s), float) - np.asarray(d1_fn(lo, s), float))
            / (hi - lo))[()]


@dataclass(frozen=True)
class Mean:
    """A mean with its partials d1 = dtheta/dr and d11 = d^2theta/dr^2.

    domain_class "open" means densities must be strictly positive
    (I = (0, inf)); "closed" admits zeros (I = [0, inf)).

    d1 is 0-homogeneous because theta is 1-homogeneous, so
    r d11(r, s) + s d12(r, s) = 0: d11 alone gives every second partial.
    The built-ins carry closed forms for d11; a mean without d11_fn (every
    custom_mean) takes a central difference of its own d1_fn in r.
    d1_err(r, s) bounds the relative error of d1 as evaluated against the
    exact partial of theta, for the curvature certificate; it reads 0 for
    the arithmetic mean, whose d1 is exact, and for every custom_mean,
    whose d1 the certificate takes as given.

    value, d1 and d11 raise NegativeInput on a negative entry and hand the
    functions broadcast float arrays, so a scalar call returns np.float64.
    """

    kind: str
    domain_class: str
    eval_fn: Callable = field(repr=False)
    d1_fn: Callable = field(repr=False)
    d11_fn: Callable | None = field(default=None, repr=False)
    d1_err: Callable = field(default=lambda r, s: 0.0, repr=False)

    def value(self, r, s):
        return self.eval_fn(*_arguments(r, s))

    def d1(self, r, s):
        return self.d1_fn(*_arguments(r, s))

    def d11(self, r, s):
        r, s = _arguments(r, s)
        if self.d11_fn is None:
            return _central_d11(self.d1_fn, r, s)
        return self.d11_fn(r, s)


ARITHMETIC = Mean("arithmetic", "closed", _arith_eval, _arith_d1, _arith_d11)
LOGARITHMIC = Mean("logarithmic", "open", _log_eval, _log_d1, _log_d11, _log_d1_err)
# d1 = 0.5 sqrt(s / r): a quotient and a square root, within 2.5u = 1.25 eps
GEOMETRIC = Mean("geometric", "open", _geom_eval, _geom_d1, _geom_d11,
                 lambda r, s: 2.0 * np.finfo(float).eps)

BUILTIN_MEANS = {m.kind: m for m in (ARITHMETIC, LOGARITHMIC, GEOMETRIC)}


def get_mean(name_or_mean) -> Mean:
    if isinstance(name_or_mean, Mean):
        return name_or_mean
    try:
        return BUILTIN_MEANS[name_or_mean]
    except KeyError:
        raise DomainError(f"unknown mean {name_or_mean!r}") from None


def custom_mean(eval_fn, d1_fn, domain_class: str, kind: str = "custom") -> Mean:
    """Wrap user callables of two broadcast float arrays as a Mean.

    Axioms of custom means are only checked statistically via
    check_mean_axioms, never proven.  The second partial d11 is a central
    difference of d1_fn.
    """
    if domain_class not in ("open", "closed"):
        raise DomainError("domain_class must be 'open' or 'closed'")
    return Mean(kind, domain_class, eval_fn, d1_fn)


def eval_mean(mean, r, s):
    """theta(r, s); relative error <= 1e-13 including near the diagonal."""
    return get_mean(mean).value(r, s)


def d1_mean(mean, r, s):
    """First partial derivative d theta / dr at (r, s)."""
    return get_mean(mean).d1(r, s)


@dataclass(frozen=True)
class MeanAxiomReport:
    """Max violations over the sampled arguments, one entry per axiom.

    Violations are relative to the local scale; vanish_at_zero records the
    largest value of theta(0, s)/s (property (vi), which the arithmetic
    mean intentionally fails).
    """

    kind: str
    domain_class: str
    symmetry: float
    homogeneity: float
    monotonicity: float
    normalization: float
    diagonal_derivative: float
    euler_identity: float
    vanish_at_zero: float
    ordering: float

    def passes_core(self, tol: float = 1e-9) -> bool:
        """Axioms (i)-(v) plus the derivative identities."""
        return max(self.symmetry, self.homogeneity, self.monotonicity,
                   self.normalization, self.diagonal_derivative,
                   self.euler_identity) <= tol

    def passes_vanishing(self, tol: float = 1e-12) -> bool:
        """Property (vi): theta(0, s) = 0 for s > 0."""
        return self.vanish_at_zero <= tol


def check_mean_axioms(mean, sample_count: int = 10_000, seed: int = 0) -> MeanAxiomReport:
    """Statistically check the mean axioms over log-uniform samples.

    Also evaluates the pointwise ordering geometric <= logarithmic <=
    arithmetic on the same samples (a property of the built-ins, reported
    regardless of the mean under test).
    """
    mean = get_mean(mean)
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), sample_count))
    s = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), sample_count))
    th = mean.value(r, s)
    scale = np.maximum(np.maximum(r, s), 1e-300)

    symmetry = float(np.max(np.abs(th - mean.value(s, r)) / scale))

    homog = 0.0
    for lam in (1e-3, 1.0, 1e3):
        v = np.abs(mean.value(lam * r, lam * s) - lam * th) / (lam * scale)
        homog = max(homog, float(np.max(v)))

    r2 = r * (1.0 + rng.uniform(0.0, 1.0, sample_count))          # r2 >= r
    mono = float(np.max((th - mean.value(r2, s)) / scale))        # needs theta(r2,s) >= theta(r,s)
    monotonicity = max(0.0, mono)

    normalization = float(abs(mean.value(1.0, 1.0) - 1.0))

    diag = np.abs(np.asarray(mean.d1(r, r)) - 0.5)
    diagonal_derivative = float(np.max(diag))

    d1 = mean.d1(r, s)
    d2 = mean.d1(s, r)
    euler = float(np.max(np.abs(th - (r * d1 + s * d2)) / scale))

    vanish = float(np.max(np.asarray(mean.value(np.zeros_like(s), s)) / s))

    g = GEOMETRIC.value(r, s)
    lo = LOGARITHMIC.value(r, s)
    a = ARITHMETIC.value(r, s)
    ordering = float(max(np.max((g - lo) / scale), np.max((lo - a) / scale), 0.0))

    return MeanAxiomReport(
        kind=mean.kind, domain_class=mean.domain_class,
        symmetry=symmetry, homogeneity=homog, monotonicity=monotonicity,
        normalization=normalization, diagonal_derivative=diagonal_derivative,
        euler_identity=euler, vanish_at_zero=vanish, ordering=ordering,
    )
