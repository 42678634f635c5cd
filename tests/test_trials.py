"""The randomized verify suites score their trials as one batch.

Each batched suite is compared with a loop over the public one-function
calls, one trial at a time, drawing from the generator in the same order:
the witness bytes and the violation counts must be the same, and the
values must agree to 1e-12 relative to the sides they compare.  A
normalized residual r = (lhs - rhs) / (|lhs| + |rhs|) (or over the
terms' aggregate) lies in [-1, 1], so that is 1e-12 on r itself: where
the sides nearly cancel, r carries their rounding magnified (the reverse
Poincare residual of a-b-c-d with weights 1, 1e-10, 1 at K = 2 and t = 3
is -1.2e-4 and moves 1.2e-9 relative to itself between one-row and
many-row products).  Identity residuals (rounding noise) must agree to
1e-14 absolute.  The scoring rule is pinned on its own: the first of tied
minima wins, a NaN residual is never the worst, and no trials give the
empty report.
"""

import argparse
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import curvkit.cli as cli
import curvkit.heat as heat
from curvkit import (BUILTIN_MEANS, a_form, b_form, chain_from_edgelist,
                     chain_from_json, check_cheeger_l1, check_geometric_green,
                     check_linf_gradient_bound, cheeger, func_inner, gamma2_rho,
                     gamma_rho, generate, gradient_field, heat_apply,
                     rho_laplacian, verify_gradient_estimate,
                     verify_reverse_poincare, vf_inner_rho)
from curvkit.heat import (VerifyReport, _random_density, _worst_trial,
                          gradient_estimate_residual, reverse_poincare_residual)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _birth_death(e):
    spec = importlib.util.spec_from_file_location("report_matrix", TOOLS / "report_matrix.py")
    report_matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_matrix)
    return chain_from_json(report_matrix._birth_death(e))


POOL = {spec: (lambda spec=spec: generate(spec))
        for spec in ("hypercube:3", "cycle:12", "complete:8", "random-regular:3:16:1")}
POOL["bd6"] = lambda: _birth_death(6)
POOL["thin"] = lambda: chain_from_edgelist("a\tb\t1\nb\tc\t1e-10\nc\td\t1\n")


@pytest.fixture(scope="module", params=sorted(POOL))
def chain(request):
    return POOL[request.param]()


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _same_report(batched, looped):
    # a normalized residual: 1e-12 relative to its sides
    assert batched.trials == looped.trials
    assert batched.violations == looped.violations
    assert abs(batched.worst_residual - looped.worst_residual) <= 1e-12
    assert batched.witness.keys() == looped.witness.keys()
    for key, v in looped.witness.items():
        if isinstance(v, np.ndarray):
            assert batched.witness[key].tobytes() == v.tobytes(), key
        else:
            assert batched.witness[key] == v, key


def _looped_heat(residual, chain, trials, t_grid, seed, name):
    rng = np.random.default_rng(seed)
    report = VerifyReport(name, trials, math.inf)
    for _ in range(trials):
        rho = _random_density(chain, rng)
        f = rng.standard_normal(chain.n_states)
        for t in t_grid:
            r = residual(rho, f, t)
            report._score(r, int(r < -1e-9), rho=rho, f=f, t=float(t))
    return report


# a K of 5 lies far above every pool chain's curvature: both suites count
# violations there, so the counts are compared, not only zeros
@pytest.mark.parametrize("k, dim", [(0.0, math.inf), (2.0, math.inf), (5.0, math.inf),
                                    (0.5, 4.0)])
@pytest.mark.parametrize("mean", sorted(BUILTIN_MEANS))
def test_heat_suites_match_the_per_trial_loop(chain, mean, k, dim):
    for verify, residual, t_grid in (
            (verify_gradient_estimate, gradient_estimate_residual, (0.1, 1.0, 10.0)),
            (verify_reverse_poincare, reverse_poincare_residual, (0.1, 0.5, 1.0, 3.0))):
        batched = verify(chain, mean, k, dim, trials=12, t_grid=t_grid, seed=3)
        looped = _looped_heat(lambda rho, f, t: residual(chain, mean, k, dim, rho, f, t),
                              chain, 12, t_grid, 3, batched.inequality)
        _same_report(batched, looped)
        assert batched.violations > 0 or k < 5.0


def test_linf_bound_matches_the_per_trial_loop(chain):
    t_grid = (0.1, 1.0, 5.0)
    batched = check_linf_gradient_bound(chain, trials=15, t_grid=t_grid, seed=2)
    rng = np.random.default_rng(2)
    q_min = chain.stats().q_min
    ex, ey, _ = chain.edges
    looped = VerifyReport("linf_gradient_bound", 15, math.inf)
    for _ in range(15):
        f = rng.standard_normal(chain.n_states)
        for t in t_grid:
            f_t = heat_apply(chain, t, f)
            lhs = float(np.abs(f_t[ey] - f_t[ex]).max())
            rhs = float(np.abs(f).max()) / math.sqrt(t * q_min)
            r = (rhs - lhs) / max(abs(lhs) + abs(rhs), 1e-300)
            looped._score(r, int(lhs > rhs + 1e-9), f=f, t=float(t))
    _same_report(batched, looped)


def test_cheeger_l1_matches_the_per_trial_loop(chain):
    rep = check_cheeger_l1(chain, trials=30, seed=4)
    res, pi = cheeger(chain), chain.pi
    ex, ey, qe = chain.edges
    rng = np.random.default_rng(4)
    ind = np.zeros(chain.n_states)
    ind[[chain.index(s) for s in res.subset]] = 1.0
    fs = [ind - float(ind @ pi)]
    for _ in range(30):
        f = rng.standard_normal(chain.n_states)
        fs.append(f - float(f @ pi))
    worst = (math.inf, 0.0, 0.0)
    for f in fs:
        grad_l1 = 0.5 * float(np.abs(f[ey] - f[ex]) @ (qe * pi[ex]))
        rhs_val = 0.5 * res.h * float(np.abs(f) @ pi)
        if grad_l1 - rhs_val < worst[0]:
            worst = (grad_l1 - rhs_val, rhs_val, grad_l1)
    assert _close(rep.lhs, worst[1]) and _close(rep.rhs, worst[2])
    assert rep.details["trials"] == 31


def test_geometric_green_matches_the_per_trial_loop(chain):
    rho = _random_density(chain, np.random.default_rng(5))
    batched = check_geometric_green(chain, rho, trials=9, seed=6)
    rng = np.random.default_rng(6)
    for kind, mean in BUILTIN_MEANS.items():
        worst = 0.0
        for _ in range(9):
            f1 = rng.standard_normal(chain.n_states)
            f2 = rng.standard_normal(chain.n_states)
            lhs = float(np.sum(rho_laplacian(chain, mean, rho, f1) * f2 * rho * chain.pi))
            rhs = vf_inner_rho(chain, mean, rho, gradient_field(chain, f1),
                               gradient_field(chain, f2))
            worst = max(worst, abs(lhs + rhs) / max(abs(lhs), abs(rhs), 1e-30))
        # the geometric mean's residual is rounding noise, the others order one
        assert abs(batched[kind] - worst) <= max(1e-14, 1e-12 * worst), kind


def test_identities_match_the_per_trial_loop(chain):
    args = argparse.Namespace(suite="identities", trials=11, seed=7, k_ent=None, starts=1)
    res = cli._cmd_verify(chain, args)[1]["identities"]
    rng = np.random.default_rng(7)
    rho = _random_density(chain, rng)
    worst_a = worst_b = 0.0
    for _ in range(11):
        f = rng.standard_normal(chain.n_states)
        for mean in BUILTIN_MEANS.values():
            g1 = func_inner(chain, rho, gamma_rho(chain, mean, rho, f))
            g2 = func_inner(chain, rho, gamma2_rho(chain, mean, rho, f))
            worst_a = max(worst_a, abs(a_form(chain, mean, rho, f) - g1) / max(1.0, abs(g1)))
            worst_b = max(worst_b, abs(b_form(chain, mean, rho, f) - g2) / max(1.0, abs(g2)))
    assert abs(res["a_form_residual"] - worst_a) <= 1e-14
    assert abs(res["b_form_residual"] - worst_b) <= 1e-14
    assert res["holds"] is True


# -- the scoring rule -------------------------------------------------------

def _grid_report(res, t_grid=(0.5, 2.0)):
    res = np.asarray(res, dtype=float)
    rows = np.arange(res.shape[0], dtype=float)[:, None] * np.ones(3)
    report = VerifyReport("grid", res.shape[0], math.inf)
    report._score_grid(res, int(np.sum(res < -1e-9)), t_grid, f=rows)
    return report


def test_tied_minima_keep_the_first_trial():
    # trial-major order: (1, 0) comes before (2, 1) and (3, 0)
    rep = _grid_report([[0.3, 0.2], [-0.5, 0.1], [0.4, -0.5], [-0.5, 0.0]])
    assert rep.worst_residual == -0.5 and rep.violations == 3
    assert rep.witness["f"].tolist() == [1.0, 1.0, 1.0] and rep.witness["t"] == 0.5


def test_a_nan_residual_is_never_the_worst():
    rep = _grid_report([[math.nan, 0.2], [0.1, math.nan]])
    assert rep.worst_residual == 0.1 and rep.violations == 0
    assert rep.witness["f"].tolist() == [1.0, 1.0, 1.0] and rep.witness["t"] == 0.5
    # nothing but NaN and +inf: no worst trial, as `not r < worst` keeps none
    rep = _grid_report([[math.nan, math.inf]])
    assert rep.worst_residual == math.inf and rep.witness == {}


def test_a_nan_residual_is_skipped_by_the_suites():
    # the worst trial's residuals made NaN: the batch and the per-trial
    # loop both pass over them to the same next worst
    ch, mean, t_grid = generate("cycle:6"), BUILTIN_MEANS["arithmetic"], (0.1, 1.0)
    worst = verify_gradient_estimate(ch, mean, 2.0, math.inf, trials=6, t_grid=t_grid,
                                     seed=2).witness["rho"]

    def rows(rho, f, t):
        out = heat._gradient_rows(ch, mean, 2.0, math.inf, rho, f, t)
        out[(rho == worst).all(axis=1)] = math.nan
        return out

    batched = _worst_trial("gradient_estimate", rows, ch, 6, t_grid, 2)
    looped = _looped_heat(lambda rho, f, t: float(rows(rho[None], f[None], t)[0]),
                          ch, 6, t_grid, 2, "gradient_estimate")
    _same_report(batched, looped)
    assert not np.array_equal(batched.witness["rho"], worst)


def test_no_trials_give_the_empty_report():
    ch = generate("hypercube:2")
    for rep in (verify_gradient_estimate(ch, "arithmetic", 0.5, math.inf, trials=0),
                verify_reverse_poincare(ch, "logarithmic", 0.5, 4.0, trials=0),
                check_linf_gradient_bound(ch, trials=0)):
        assert (rep.trials, rep.worst_residual, rep.witness, rep.violations) == \
            (0, math.inf, {}, 0)
    assert check_geometric_green(ch, np.ones(4), trials=0) == {
        kind: 0.0 for kind in BUILTIN_MEANS}
    assert check_cheeger_l1(ch, trials=0).details["trials"] == 1
