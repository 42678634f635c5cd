"""Time one of curvkit's exact engines in fresh interpreters, alternating this
checkout with a base checkout.

    python3 tools/bench.py CASE [--base DIR] [--repeats N] [OUT.json]

CASE is one of
  cheeger  `geometry.cheeger` on random-regular:3:24:s (s = 1..10), C20,
           Q^4 and Q^5; the result is h's repr and the reported subset;
  dgamma   `geometry.diam_gamma` on Q^4, Q^5, C16, C20, rr:3:24:1 and K10;
           the result is the diameter's repr, and the counters are the
           pairs solved (calls of `geometry.d_gamma`), the pairs cut by the
           dual bound and the Newton steps (both from `geometry._barrier`),
           and the `np.linalg.solve` calls of the whole diameter;
  optimal  `optimal.optimal_complex(chain, inf)` on C14, C16, C20 and C24,
           vertex curvatures included; the result is the facet count, and
           the counter is the calls of `is_optimal_set`;
  vertex   `curvature.bakry_emery_global(chain, inf)` on Q^8, Q^9,
           rr:4:128:1 and C256; the result is K's repr and the argmin
           state, and the counters are the vertex pencils solved (calls of
           `bakry_emery_vertex`) and the tests that `_psd_bracket`
           returns with its bracket: shifted Cholesky tests of the
           unreduced 2-ball matrix at the lower end k - h and comparisons
           of the witness's Rayleigh quotient with the upper end k + h, at
           most one each per pair tried;
  entropic `curvature.entropic_curvature_estimate(chain, inf, starts=2,
           seed=1)` on the seven chains of the `entropic` benchmark
           workload; the result is k_hat's repr, and the counters are the
           calls of `curvature_grad_rho` and of `curvature_of_measure`
           and the starts that a NumericalFailure of the gradient ended.

DIR is the root of another checkout holding `src/curvkit` (a `git archive`
tree records no commit).  Every run is a fresh interpreter with one BLAS
thread and PYTHONPATH set to its side's `src`.  Per side and chain, one
counted run records the counters, the result and the environment.  Then N
timed rounds (default 5) run, in which the sides take turns on every chain
and the side that goes first alternates.  A timed run installs no counter
and must reproduce its side's counted result.  The record, written to
OUT.json (default BENCH_CASE.json), holds each side's time quartiles and
samples, peak RSS, result and counters, and `same_result`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cheeger(ck, chain) -> dict:
    res = ck.geometry.cheeger(chain)
    return {"h": repr(res.h), "subset": list(res.subset)}


def _diam_gamma(ck, chain) -> dict:
    return {"diam_gamma": repr(ck.geometry.diam_gamma(chain))}


def _optimal_complex(ck, chain) -> dict:
    return {"facets": len(ck.optimal.optimal_complex(chain, float("inf")).facets)}


def _vertex_global(ck, chain) -> dict:
    k, state = ck.curvature.bakry_emery_global(chain, float("inf"))
    return {"k": repr(k), "argmin": state}


def _wrap(obj, name: str, after) -> None:
    """Replace obj.name by a wrapper that hands each call's result to `after`."""
    real = getattr(obj, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        after(out)
        return out

    setattr(obj, name, wrapper)


def _count_dgamma(ck) -> Counter:
    """Install the dgamma counters; a counted child makes one call and exits."""
    import numpy as np

    stats = Counter(pairs_solved=0, pairs_cut=0, newton_steps=0, linalg_solves=0)
    _wrap(ck.geometry, "d_gamma", lambda _: stats.update(pairs_solved=1))
    _wrap(ck.geometry, "_barrier",
          lambda run: stats.update(pairs_cut=int(run.cut), newton_steps=run.steps))
    _wrap(np.linalg, "solve", lambda _: stats.update(linalg_solves=1))
    return stats


def _count_optimal(ck) -> Counter:
    """Install the optimal counter; a counted child makes one call and exits."""
    stats = Counter(is_optimal_set_calls=0)
    _wrap(ck.optimal, "is_optimal_set", lambda _: stats.update(is_optimal_set_calls=1))
    return stats


def _count_vertex(ck) -> Counter:
    """Install the vertex counters; a counted child makes one call and exits."""
    stats = Counter(pencil_calls=0, psd_tests=0)
    _wrap(ck.curvature, "bakry_emery_vertex", lambda _: stats.update(pencil_calls=1))
    _wrap(ck.curvature, "_psd_bracket", lambda out: stats.update(psd_tests=out[0]))
    return stats


def _entropic(ck, chain) -> dict:
    est = ck.curvature.entropic_curvature_estimate(chain, float("inf"), starts=2, seed=1)
    return {"k_hat": repr(est.k_hat)}


def _count_entropic(ck) -> Counter:
    """Install the entropic counters; a counted child makes one call and exits."""
    stats = Counter(grad_calls=0, measure_calls=0, failed_starts=0)
    grad, measure = ck.curvature.curvature_grad_rho, ck.curvature.curvature_of_measure

    def counted_grad(*args):
        stats.update(grad_calls=1)
        try:
            return grad(*args)
        except ck.NumericalFailure:     # ends the descent of this start
            stats.update(failed_starts=1)
            raise

    def counted_measure(*args, **kwargs):
        stats.update(measure_calls=1)
        return measure(*args, **kwargs)

    ck.curvature.curvature_grad_rho = counted_grad
    ck.curvature.curvature_of_measure = counted_measure
    return stats


# case: (chains, call, counters)
CASES = {
    "cheeger": (tuple(f"random-regular:3:24:{s}" for s in range(1, 11))
                + ("cycle:20", "hypercube:4", "hypercube:5"),
                _cheeger, lambda ck: Counter()),
    "dgamma": (("hypercube:4", "hypercube:5", "cycle:16", "cycle:20",
                "random-regular:3:24:1", "complete:10"), _diam_gamma, _count_dgamma),
    "optimal": (("cycle:14", "cycle:16", "cycle:20", "cycle:24"),
                _optimal_complex, _count_optimal),
    "vertex": (("hypercube:8", "hypercube:9", "random-regular:4:128:1", "cycle:256"),
               _vertex_global, _count_vertex),
    "entropic": (("cycle:6", "cycle:9", "hypercube:4", "complete:6", "path:8",
                  "random-regular:3:12:1", "random-regular:3:16:1"),
                 _entropic, _count_entropic),
}


def _environment(ck) -> dict:
    import numpy as np
    import scipy

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    git = subprocess.run(["git", "-C", str(Path(ck.__file__).parent), "describe",
                          "--always", "--dirty"], capture_output=True, text=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": {"machine": platform.machine(), "cpu": cpu,
                     "cpus": os.cpu_count(), "system": platform.platform()},
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": 1},
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git.stdout.strip() if git.returncode == 0 else None}


def _child(case: str, spec: str, counted: bool) -> dict:
    """Run in the child interpreter: one counted or one timed call."""
    import curvkit as ck

    _, call, counters = CASES[case]
    chain = ck.generate(spec)
    if counted:
        stats = counters(ck)
        return {"result": call(ck, chain), "counts": stats, "environment": _environment(ck)}
    before = _peak_mb()
    t0 = time.perf_counter()
    result = call(ck, chain)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rss_before_mb": before, "peak_rss_mb": _peak_mb(),
            "result": result}


def _run(case: str, root: Path, spec: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, case, "--child", spec] + ["--counted"] * counted
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{spec} under {root} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def _side(counted: dict, timed: list[dict]) -> dict:
    samples = [run["wall_s"] for run in timed]
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples,
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in timed),
            "rss_before_mb": statistics.median(run["rss_before_mb"] for run in timed),
            **counted["result"], **counted["counts"]}


def _line(side: str, out: dict) -> str:
    shown = "".join(f", {k} {v}" for k, v in out.items()
                    if not k.endswith(("_s", "_mb")) and not isinstance(v, list))
    return f"{side} {out['median_s']:.3f} s, {out['peak_rss_mb']:.0f} MB{shown}"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case", choices=sorted(CASES))
    ap.add_argument("--base", type=Path, help="root of the checkout to alternate with")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("out", nargs="?")
    args = ap.parse_intermixed_args(argv)
    if args.child:
        print(json.dumps(_child(args.case, args.child, args.counted)))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sides = {"change": ROOT}
    if args.base is not None:
        if not (args.base / "src" / "curvkit").is_dir():
            ap.error(f"{args.base} holds no src/curvkit")
        sides = {"base": args.base.resolve(), "change": ROOT}

    chains = CASES[args.case][0]
    counted = {spec: {side: _run(args.case, root, spec, counted=True)
                      for side, root in sides.items()} for spec in chains}
    timed = {spec: {side: [] for side in sides} for spec in chains}
    for r in range(args.repeats):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for spec in chains:
            for side in order:
                run = _run(args.case, sides[side], spec, counted=False)
                if run["result"] != counted[spec][side]["result"]:
                    raise RuntimeError(f"{spec}: {side} runs disagree")
                timed[spec][side].append(run)

    envs = {side: run["environment"] for side, run in counted[chains[0]].items()}
    environment = dict(envs["change"], commit={side: env["commit"] for side, env in envs.items()})
    record = {"benchmark": f"{args.case}, one call on a fresh chain in a fresh process",
              "repeats": args.repeats, "environment": environment, "chains": []}
    for spec in chains:
        row = {"chain": spec, **{side: _side(counted[spec][side], timed[spec][side])
                                 for side in sides}}
        if len(sides) == 2:
            row["same_result"] = (counted[spec]["base"]["result"]
                                  == counted[spec]["change"]["result"])
        record["chains"].append(row)
        print(f"{spec}: " + "; ".join(_line(side, row[side]) for side in sides)
              + (f"; same_result {row['same_result']}" if len(sides) == 2 else ""), flush=True)
    out = args.out or f"BENCH_{args.case}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
