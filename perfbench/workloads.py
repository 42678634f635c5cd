"""Benchmark workloads: fixed lists of curvkit CLI commands with reference checks.

Each task is one argv list for `curvkit.cli.main` plus a check of its
report.  A check raises `Mismatch` when the report disagrees with its
reference.  `exact=True` marks a closed form or a proven inequality: a
report that contradicts one is a wrong answer.  `exact=False` marks the
two-route certification of the heuristic entropic estimate: the program's
own pencil and bisection routes disagree at the density it reported.
Both kinds count as failed tasks; only the first makes the run incorrect.

Checks import curvkit and numpy, so this module is imported only after the
BLAS thread count has been fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import curvkit as ck

SQRT2 = math.sqrt(2.0)


class Mismatch(Exception):
    """A report disagrees with its reference."""

    def __init__(self, message: str, exact: bool = True):
        super().__init__(message)
        self.exact = exact


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    out: str | None = None          # the report goes to this file, not stdout

    @property
    def name(self) -> str:
        return " ".join(a if "/" not in a else a.rsplit("/", 1)[1]
                        for a in self.argv)


# -- reference helpers -------------------------------------------------------

def _expect(cond: bool, message: str, exact: bool = True) -> None:
    if not cond:
        raise Mismatch(message, exact)


def _close(value, ref: float, tol: float, what: str) -> None:
    _expect(isinstance(value, (int, float)) and abs(value - ref) <= tol * max(1.0, abs(ref)),
            f"{what} = {value!r}, expected {ref!r}")


def _lambda1(chain) -> float:
    """Spectral gap from the symmetrized kernel, independent of curvkit.heat."""
    s = np.sqrt(chain.pi)
    sym = np.eye(chain.n_states) - chain.q * (s[:, None] / s[None, :])
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[1])


def _family(spec: str) -> tuple[str, int]:
    kind, *params = spec.split(":")
    return kind, int(params[-1] if kind != "random-regular" else params[1])


def _cheeger_h(chain, h, subset, what: str) -> None:
    """lambda1/2 <= h, and h is the score of the reported subset."""
    lam = _lambda1(chain)
    _expect(lam / 2 <= h * (1 + 1e-9), f"{what}: lambda1/2 = {lam / 2!r} > h = {h!r}")
    idx = [chain.index(s) for s in subset]
    mask = np.zeros(chain.n_states, dtype=bool)
    mask[idx] = True
    piw = float(chain.pi[mask].sum())
    _expect(piw <= 0.5 + 1e-12, f"{what}: argmin subset has pi(W) = {piw!r} > 1/2")
    score = float(chain.w[np.ix_(mask, ~mask)].sum()) / piw
    _close(score, h, 1e-12, f"{what}: score of the argmin subset")


def _full_form_vertex(chain, state, dim) -> float:
    """Vertex curvature from the full n x n forms with bisection confirmation,
    an independent route to the 2-ball slicing of bakry_emery_vertex."""
    return ck.curvature_of_measure(chain, "arithmetic", ck.dirac(chain, state),
                                   dim, confirm=True).value


def _cycle_runs(n: int) -> set[frozenset[str]]:
    return {frozenset(str((m + j) % n) for j in range(n - 4)) for m in range(n)}


# -- checks, one factory per command ----------------------------------------

def check_entropic(spec: str, seed: int):
    def check(rep):
        res = rep["results"]
        k_hat = res["k_hat"]
        chain = ck.generate(spec, seed=seed)
        rho = np.asarray(res["rho_star"], dtype=float)
        kind, size = _family(spec)
        if res["per_start"] and kind == "cycle":
            # the constant density is the first start: K(1) = lambda1 bounds k_hat
            lam = 1.0 - math.cos(2.0 * math.pi / size)
            _expect(k_hat <= lam + 1e-9, f"k_hat = {k_hat!r} exceeds K(1) = {lam!r}")
        try:
            again = ck.curvature_of_measure(chain, "logarithmic", rho, math.inf,
                                            confirm=True).value
        except ck.NumericalFailure as exc:
            raise Mismatch(f"two-route check rejects k_hat = {k_hat!r}: {exc}",
                           exact=False) from None
        _expect(abs(again - k_hat) <= 1e-6 * max(1.0, abs(k_hat)),
                f"k_hat = {k_hat!r} but the confirmed re-solve at rho_star "
                f"gives {again!r}", exact=False)
    return check


def check_verify(spec: str, seed: int):
    def check(rep):
        res = rep["results"]
        _expect(res["identities"]["holds"] is True, "form identities do not hold")
        _expect(res["heat"]["holds"] is True, "heat suite does not hold")
        k_arith = res["curvature_inputs"]["k_arithmetic_inf"]
        geo = {r["name"]: r for r in res["geometry"]}
        h = geo["cheeger_l1"]["details"]["h"]
        kind, size = _family(spec)
        if kind == "hypercube":
            _close(k_arith, 2.0 / size, 1e-8, "K_inf(Q^N)")
            _close(h, 1.0 / size, 1e-12, "h(Q^N)")
            _close(geo["diameter_ent_dgamma"]["lhs"], size * SQRT2, 1e-6,
                   "diam_Gamma(Q^N)")
        elif kind == "cycle":
            _close(k_arith, 0.0, 1e-8, "K_inf(C_n)")
            _close(h, 2.0 / size, 1e-12, "h(C_n)")
        elif kind == "complete":
            _close(k_arith, (size + 2) / (2.0 * (size - 1)), 1e-8, "K_inf(K_n)")
            _close(h, math.ceil(size / 2) / (size - 1), 1e-12, "h(K_n)")
        else:
            chain = ck.generate(spec, seed=seed)
            _expect(_lambda1(chain) / 2 <= h * (1 + 1e-9), "lambda1/2 > h")
            ref = min(_full_form_vertex(chain, s, math.inf) for s in chain.states)
            _close(k_arith, ref, 1e-8, "K_inf against the full-form route")
    return check


def check_cheeger(spec: str, seed: int):
    def check(rep):
        res = rep["results"]
        kind, size = _family(spec)
        chain = ck.generate(spec, seed=seed)
        if kind == "hypercube":
            _close(res["h"], 1.0 / size, 1e-12, "h(Q^N)")
        _cheeger_h(chain, res["h"], res["argmin_subset"], "cheeger")
    return check


def check_diameter(spec: str):
    def check(rep):
        kind, size = _family(spec)
        res = rep["results"]
        if kind == "cycle":
            _close(res["diam_gamma"], (size / 2) * SQRT2, 1e-6, "diam_Gamma(C_n)")
            _expect(res["diam_combinatorial"] == size // 2, "diam(C_n) != n/2")
        else:
            _close(res["d_gamma"], size * SQRT2, 1e-6, "d_Gamma of an antipodal pair")
    return check


def check_vertex(spec: str, seed: int, dim: float, probes: int = 0):
    """Closed forms on hypercubes and cycles; on other chains the full-form
    route at `probes` evenly spaced vertices."""
    def check(rep):
        res = rep["results"]
        per = res["per_vertex"]
        values = [v["value"] for v in per.values()]
        _expect(all(isinstance(v, float) for v in values), "non-finite vertex curvature")
        _close(res["k_global"], min(values), 0.0, "k_global against the vertex minimum")
        kind, size = _family(spec)
        if kind == "hypercube" and math.isinf(dim):
            for v in values:
                _close(v, 2.0 / size, 1e-8, "K_inf(Q^N) at a vertex")
        elif kind == "cycle" and math.isinf(dim):
            for v in values:
                _close(v, 0.0, 1e-8, "K_inf(C_n) at a vertex")
        chain = ck.generate(spec, seed=seed)
        if kind == "hypercube":        # vertex-transitive: one probe suffices
            _expect(max(values) - min(values) <= 1e-8, "hypercube vertices disagree")
            probes_at = [chain.states[0]]
        else:
            step = max(1, chain.n_states // max(probes, 1))
            probes_at = list(chain.states[::step][:probes])
        for state in probes_at:
            _close(per[state]["value"], _full_form_vertex(chain, state, dim), 1e-8,
                   f"K at {state} against the full-form route")
    return check


def check_optimal_cycle(n: int):
    def check(rep):
        res = rep["results"]
        top = {frozenset(f) for f in res["facets"] if len(f) == n - 4}
        _expect(top == _cycle_runs(n), "top facets are not the n runs of n-4 vertices")
        _expect(res["dimension"] == n - 5, f"dimension {res['dimension']} != n-5")
    return check


def check_measure_ones(lam: float, grid: tuple[float, ...]):
    """At the constant density K_n = lambda1 (1 - 1/n) for every mean."""
    def check(rep):
        res = rep["results"]
        _close(res["curvature"]["value"], lam, 1e-8, "K_inf(1)")
        points = res["profile"]["points"]
        _expect(len(points) == len(grid), "profile has the wrong number of points")
        for (s, k), dim in zip(points, sorted(grid, reverse=True)):
            _close(k, lam * (1.0 - s), 1e-8, f"K_{dim}(1)")
    return check


def check_spectrum(spec: str, seed: int):
    def check(rep):
        chain = ck.generate(spec, seed=seed)
        got = np.asarray(rep["results"]["eigenvalues"])
        kind, size = _family(spec)
        if kind == "cycle":
            ref = np.sort(1.0 - np.cos(2.0 * np.pi * np.arange(size) / size))
        else:
            s = np.sqrt(chain.pi)
            sym = np.eye(chain.n_states) - chain.q * (s[:, None] / s[None, :])
            ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        _expect(got.shape == ref.shape and np.allclose(got, ref, atol=1e-12),
                "spectrum differs from the reference")
    return check


def check_heat(rep):
    _expect(rep["results"]["heat_kernel_bound"]["violations"] == 0,
            "heat kernel bound violated")


def check_mixing(spec: str, eps: float):
    """The L1 distance to equilibrium, from a direct matrix exponential,
    crosses eps at the reported time."""
    import scipy.linalg

    def dist(chain, t):
        p = scipy.linalg.expm(t * (chain.q - np.eye(chain.n_states))) / chain.pi[None, :]
        return float(np.sum(np.abs(p - 1.0) * chain.pi[:, None] * chain.pi[None, :]))

    def check(rep):
        chain = ck.generate(spec)
        tau = rep["results"]["tau_avg"]
        _expect(dist(chain, tau) <= eps + 1e-9, "distance above eps at tau")
        _expect(dist(chain, tau * (1 - 1e-6)) > eps - 1e-9, "tau is not the first crossing")
    return check


def check_gen(n_states: int):
    def check(rep):
        q = np.asarray(rep["results"]["chain"]["Q"])
        _expect(q.shape == (n_states, n_states) and np.allclose(q.sum(axis=1), 1.0),
                "generated kernel is not a stochastic matrix of the right size")
    return check


# -- workloads -----------------------------------------------------------------

def _entropic(seed: int, work: str) -> list[Task]:
    # The graph seeds stay at 1: the rr:3:12 failure is reported for that
    # graph, and the optimiser's path length varies several-fold between
    # random graphs, which would swamp the timing.  The workload seed goes
    # to --seed, which only draws starts beyond the constant density and
    # the Dirac bumps, so with two starts it changes nothing.
    specs = ["cycle:6", "cycle:9", "hypercube:4", "complete:6", "path:8",
             "random-regular:3:12:1", "random-regular:3:16:1"]
    return [Task(("curv-entropic", "--gen", s, "--starts", "2", "--seed", str(seed)),
                 check_entropic(s, seed)) for s in specs]


def _battery(seed: int, work: str) -> list[Task]:
    # The verified random-regular graph keeps graph seed 1 for the reason
    # given in _entropic: its entropic input and its d_Gamma solves take up
    # to half as long again on some graphs as on others.
    tasks = []
    for spec in ("hypercube:3", "hypercube:4", "cycle:12", "complete:8",
                 "random-regular:3:16:1"):
        tasks.append(Task(("verify", "--gen", spec, "--suite", "all", "--starts", "1",
                           "--seed", str(seed)), check_verify(spec, seed)))
    for spec in ("hypercube:4", f"random-regular:3:24:{seed}"):
        tasks.append(Task(("cheeger", "--gen", spec, "--seed", str(seed)),
                          check_cheeger(spec, seed)))
    tasks.append(Task(("dgamma", "--gen", "cycle:16", "--seed", str(seed)),
                      check_diameter("cycle:16")))
    return tasks


def _vertex(seed: int, work: str) -> list[Task]:
    inf = math.inf
    rows = [("hypercube:8", "inf", inf, 0), ("hypercube:7", "14", 14.0, 0),
            (f"random-regular:4:128:{seed}", "inf", inf, 4), ("cycle:128", "inf", inf, 2)]
    tasks = [Task(("curv-vertex", "--gen", spec, "--n", n, "--seed", str(seed)),
                  check_vertex(spec, seed, dim, probes))
             for spec, n, dim, probes in rows]
    for n in (14, 16):
        tasks.append(Task(("optimal-sets", "--gen", f"cycle:{n}", "--seed", str(seed)),
                          check_optimal_cycle(n)))
    return tasks


def _smallcalls(seed: int, work: str) -> list[Task]:
    # As in `battery`, curv-entropic and verify run one optimiser start: the
    # optimiser is `entropic`'s subject, and the random starts beyond the
    # first take a seed-dependent time that would swamp the per-call costs.
    # The README feeds the report of `gen --out cube.json` to `--in`, which
    # rejects it (the chain sits under "results"); that command is kept as
    # written.  chain.json holds the bare chain document, so the density
    # path is exercised as well.
    cube, bare = f"{work}/cube.json", f"{work}/chain.json"
    with open(bare, "w", encoding="utf-8") as fh:
        json.dump(ck.chain_to_json(ck.hypercube(3)), fh)
    s = str(seed)
    measure = ("--mean", "logarithmic", "--rho", "ones", "--n-grid", "inf,8,4",
               "--csv", f"{work}/profile.csv", "--seed", s)
    check_measure = check_measure_ones(2.0 / 3.0, (math.inf, 8.0, 4.0))
    return [
        Task(("gen", "hypercube:3", "--seed", s, "--out", cube), check_gen(8), out=cube),
        Task(("curv-vertex", "--gen", "hypercube:3", "--n", "inf", "--seed", s),
             check_vertex("hypercube:3", seed, math.inf)),
        Task(("curv-measure", "--in", cube) + measure, check_measure),
        Task(("curv-measure", "--in", bare) + measure, check_measure),
        Task(("curv-entropic", "--gen", "cycle:6", "--starts", "1", "--seed", s),
             check_entropic("cycle:6", seed)),
        Task(("spectrum", "--gen", "cycle:8", "--seed", s), check_spectrum("cycle:8", seed)),
        Task(("spectrum", "--gen", f"random-regular:3:10:{seed}", "--seed", s),
             check_spectrum(f"random-regular:3:10:{seed}", seed)),
        Task(("optimal-sets", "--gen", "cycle:6", "--seed", s), check_optimal_cycle(6)),
        Task(("heat", "--gen", "hypercube:2", "--t-grid", "0.1,1,2", "--seed", s),
             check_heat),
        Task(("mixing", "--gen", "hypercube:3", "--eps", "0.25", "--seed", s),
             check_mixing("hypercube:3", 0.25)),
        Task(("dgamma", "--gen", "hypercube:2", "--pair", "00,11", "--seed", s),
             check_diameter("hypercube:2")),
        Task(("cheeger", "--gen", "hypercube:4", "--seed", s),
             check_cheeger("hypercube:4", seed)),
        Task(("cheeger", "--gen", f"random-regular:3:12:{seed}", "--seed", s),
             check_cheeger(f"random-regular:3:12:{seed}", seed)),
        Task(("verify", "--gen", "hypercube:2", "--suite", "all", "--starts", "1",
              "--seed", s),
             check_verify("hypercube:2", seed)),
    ]


WORKLOADS = {"entropic": _entropic, "battery": _battery, "vertex": _vertex,
             "smallcalls": _smallcalls}


def build(workload: str, seed: int, work: str) -> list[Task]:
    """The task list of a workload; `work` is a scratch directory for files."""
    return WORKLOADS[workload](seed, work)
