"""The entropic descent's box L-BFGS against scipy's L-BFGS-B."""

import numpy as np
import pytest
import scipy.optimize

from curvkit import _lbfgs, entropic_curvature_estimate, generate

#: the chains of the `entropic` benchmark workload
ENTROPIC_CHAINS = ["cycle:6", "cycle:9", "hypercube:4", "complete:6", "path:8",
                   "random-regular:3:12:1", "random-regular:3:16:1"]


def _rosenbrock(x):
    return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)


def _scipy_descent(fun, x0, lo, hi, ftol, gtol, max_iters):
    """box_lbfgs's contract, met by scipy's L-BFGS-B."""
    res = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                  bounds=[(lo, hi)] * len(x0),
                                  options={"maxiter": max_iters, "ftol": ftol, "gtol": gtol})
    return res.x, res.fun, bool(res.success)


@pytest.mark.parametrize("n, lo, hi", [(5, -30.0, 30.0), (2, -1.0, 0.7), (5, -2.0, 0.5)],
                         ids=["inactive", "binding2", "binding5"])
def test_box_lbfgs_reaches_lbfgsb_minimizer_of_rosenbrock(n, lo, hi):
    # the inactive box holds the minimizer (1, ..., 1); the others bind
    # there, at x_1 = hi
    x0 = np.where(np.arange(n) % 2, 1.0, -1.2)
    calls = []

    def counted(x):
        calls.append(1)
        return _rosenbrock(x)

    ref, f_ref, ok = _scipy_descent(counted, x0, lo, hi, 1e-14, 1e-10, 500)
    ref_calls, calls[:] = len(calls), []
    x, f, converged = _lbfgs.box_lbfgs(counted, x0, lo, hi, ftol=1e-14, gtol=1e-10,
                                       max_iters=500)
    assert ok and converged
    if hi > 1.0:
        # no bound is met: the same decisions, so the same evaluations
        assert len(calls) == ref_calls
    assert np.abs(x - ref).max() <= 1e-6
    assert f == pytest.approx(f_ref, rel=1e-9, abs=1e-12)
    if hi < 1.0:
        assert x[0] == hi


def test_box_lbfgs_stops_unconverged_at_the_iteration_cap():
    x0 = np.array([-1.2, 1.0])
    x, f, converged = _lbfgs.box_lbfgs(_rosenbrock, x0, -30.0, 30.0, ftol=1e-14,
                                       gtol=1e-10, max_iters=3)
    assert not converged and f < _rosenbrock(x0)[0]


@pytest.mark.parametrize("stp", [1e-3, 1.0, 30.0])
def test_line_search_ends_at_a_strong_wolfe_step(stp):
    # Moré and Thuente's first test function, phi(a) = -a / (a^2 + 2),
    # minimized at a = sqrt(2)
    def phi(a):
        return -a / (a * a + 2.0), (a * a - 2.0) / (a * a + 2.0) ** 2, a

    f0, g0, _ = phi(0.0)
    a = _lbfgs._line_search(phi, f0, g0, stp, 1e10)
    assert a is not None
    f, g, _ = phi(a)
    assert f <= f0 + _lbfgs.LS_FTOL * a * g0
    assert abs(g) <= _lbfgs.LS_GTOL * abs(g0)


@pytest.mark.parametrize("spec", ENTROPIC_CHAINS)
def test_entropic_estimate_is_no_worse_than_lbfgsb(spec, monkeypatch):
    est = entropic_curvature_estimate(generate(spec), np.inf, starts=2, seed=1)
    monkeypatch.setattr(_lbfgs, "box_lbfgs", _scipy_descent)
    ref = entropic_curvature_estimate(generate(spec), np.inf, starts=2, seed=1)
    assert est.k_hat <= ref.k_hat + 1e-9 * max(1.0, abs(est.k_hat))
