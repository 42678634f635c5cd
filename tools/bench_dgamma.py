"""Time `diam_gamma` on Q^4, Q^5, C16, C20, rr:3:24:1 and K10, alternating
this checkout with a base checkout.

    python3 tools/bench_dgamma.py [--base DIR] [--repeats N] [OUT.json]

DIR is the root of another checkout (holding `src/curvkit`), for instance
a `git clone` checked out at the parent commit; a tree exported with
`git archive` works too, but records no commit.  Every measurement runs in
a fresh interpreter with one BLAS thread and PYTHONPATH set to its
checkout's `src`, so each side imports its own curvkit.  For each of N
rounds (default 5) and each chain the two sides take turns, and the one
that goes first alternates from round to round.  A child times one
`diam_gamma` of a freshly built chain, after the scipy.sparse import it
needs is done; the first round also makes a counted run, which records
the pairs solved (calls of `geometry.d_gamma`), the pairs cut by the dual
bound, the real Newton steps and the `np.linalg.solve` calls inside
`d_gamma` (what the benchmark tracer's `geometry.newton_steps_per_pair`
counts, the dual-bound solves included).  A checkout without the cut (no
`geometry._barrier`) cuts no pair and solves once per Newton step.  The
record holds each side's median, quartiles and samples, the counts, the
diameter's repr (the two sides must match bit for bit), the host, the BLAS
build and threads, the numpy and scipy versions and both commits (as
`tools/bench_optimal.py` records them); it is written to OUT.json (default
BENCH_dgamma.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHAINS = ("hypercube:4", "hypercube:5", "cycle:16", "cycle:20",
          "random-regular:3:24:1", "complete:10")


def _child(spec: str, counted: bool) -> dict:
    """Run in the child interpreter: one timed or one counted diameter."""
    import numpy as np
    import scipy.sparse.csgraph  # noqa: F401  (imported by the U bound)

    import curvkit
    from curvkit import geometry

    chain = curvkit.generate(spec)
    if not counted:
        t0 = time.perf_counter()
        value = geometry.diam_gamma(chain)
        return {"wall_s": time.perf_counter() - t0, "diam_gamma": repr(value)}

    stats = {"pairs_solved": 0, "pairs_cut": 0, "newton_steps": 0, "linalg_solves": 0}
    real_d, real_solve = geometry.d_gamma, np.linalg.solve
    real_barrier = getattr(geometry, "_barrier", None)
    inside = [False]

    def d_gamma(*args, **kwargs):
        stats["pairs_solved"] += 1
        inside[0] = True
        try:
            return real_d(*args, **kwargs)
        finally:
            inside[0] = False

    def solve(*args, **kwargs):
        stats["linalg_solves"] += inside[0]
        return real_solve(*args, **kwargs)

    def barrier(*args, **kwargs):
        run = real_barrier(*args, **kwargs)
        stats["pairs_cut"] += run.cut
        stats["newton_steps"] += run.steps
        return run

    geometry.d_gamma, np.linalg.solve = d_gamma, solve
    if real_barrier is not None:
        geometry._barrier = barrier
    try:
        value = geometry.diam_gamma(chain)
    finally:
        geometry.d_gamma, np.linalg.solve = real_d, real_solve
        if real_barrier is not None:
            geometry._barrier = real_barrier
    if real_barrier is None:
        stats["newton_steps"] = stats["linalg_solves"]
    from bench_optimal import environment

    return {**stats, "diam_gamma": repr(value), "environment": environment()}


def _run(root: Path, spec: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", spec] + (["--counted"] if counted else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="root of the checkout to alternate with")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--counted", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("out", nargs="?", default="BENCH_dgamma.json")
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.counted)))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sides = {"change": ROOT}
    if args.base is not None:
        if not (args.base / "src" / "curvkit").is_dir():
            ap.error(f"{args.base} holds no src/curvkit")
        sides = {"base": args.base.resolve(), "change": ROOT}

    rows = []
    for spec in CHAINS:
        row = {"chain": spec}
        for side, root in sides.items():
            row[side] = {"counts": _run(root, spec, counted=True), "samples": []}
        rows.append(row)
    for r in range(args.repeats):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for row in rows:
            for side in order:
                run = _run(sides[side], row["chain"], counted=False)
                if run["diam_gamma"] != row[side]["counts"]["diam_gamma"]:
                    raise RuntimeError(f"{row['chain']}: {side} runs disagree")
                row[side]["samples"].append(run["wall_s"])

    envs = {}
    for row in rows:
        for side in sides:
            envs[side] = row[side]["counts"].pop("environment")
    environment = envs["change"]
    environment["commit"] = {side: env["commit"] for side, env in envs.items()}
    record = {"benchmark": "diam_gamma, one call on a fresh chain",
              "repeats": args.repeats, "environment": environment, "chains": []}
    for row in rows:
        out = {"chain": row["chain"]}
        for side in sides:
            out[side] = {**_summary(row[side]["samples"]), **row[side]["counts"]}
        if len(sides) == 2:
            out["identical"] = out["base"]["diam_gamma"] == out["change"]["diam_gamma"]
        record["chains"].append(out)
        print(row["chain"] + ": " + ", ".join(
            f"{side} {out[side]['median_s']:.3f} s, {out[side]['pairs_solved']} pairs, "
            f"{out[side]['pairs_cut']} cut, {out[side]['newton_steps']} steps"
            for side in sides), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
