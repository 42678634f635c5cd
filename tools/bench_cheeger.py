"""Time the exact Cheeger enumeration on random-regular:3:24:s (s = 1..10),
C20, Q^4 and Q^5, alternating this checkout with a base checkout.

    python3 tools/bench_cheeger.py [--base DIR] [--repeats N] [OUT.json]

DIR is the root of another checkout (holding `src/curvkit`), for instance
a `git clone` checked out at the parent commit.  Every measurement runs in
a fresh interpreter with one BLAS thread and PYTHONPATH set to its
checkout's `src`, so each side imports its own curvkit.  For each of N
rounds (default 5) and each chain the two sides take turns, and the one
that goes first alternates from round to round.  A child builds the chain,
then times one `cheeger` call and reads the process's peak RSS before and
after it (`ru_maxrss`; the difference is what the call added over the
interpreter, numpy and the chain).  The record holds each side's median,
quartiles and samples of the time, the median peak RSS, h's repr and the
reported subset (every run of a side must agree), whether the two sides'
h and subsets match, the host, the BLAS build and threads, the numpy and
scipy versions and both commits (as `tools/bench_optimal.py` records
them); it is written to OUT.json (default BENCH_cheeger.json).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHAINS = tuple(f"random-regular:3:24:{s}" for s in range(1, 11)) + (
    "cycle:20", "hypercube:4", "hypercube:5")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(spec: str, with_environment: bool) -> dict:
    """Run in the child interpreter: one timed Cheeger enumeration."""
    import curvkit
    from curvkit import geometry

    chain = curvkit.generate(spec)
    before = _peak_mb()
    t0 = time.perf_counter()
    res = geometry.cheeger(chain)
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "rss_before_mb": before, "peak_rss_mb": _peak_mb(),
           "h": repr(res.h), "subset": list(res.subset)}
    if with_environment:
        from bench_optimal import environment

        out["environment"] = environment()
    return out


def _run(root: Path, spec: str, with_environment: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", spec]
    argv += ["--environment"] if with_environment else []
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _summary(runs: list[dict]) -> dict:
    samples = [run["wall_s"] for run in runs]
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples,
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
            "rss_before_mb": statistics.median(run["rss_before_mb"] for run in runs),
            "h": runs[0]["h"], "subset": runs[0]["subset"]}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, help="root of the checkout to alternate with")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--environment", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("out", nargs="?", default="BENCH_cheeger.json")
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.environment)))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sides = {"change": ROOT}
    if args.base is not None:
        if not (args.base / "src" / "curvkit").is_dir():
            ap.error(f"{args.base} holds no src/curvkit")
        sides = {"base": args.base.resolve(), "change": ROOT}

    environment = {side: _run(root, "cycle:4", with_environment=True)["environment"]
                   for side, root in sides.items()}
    runs = {spec: {side: [] for side in sides} for spec in CHAINS}
    for r in range(args.repeats):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for spec in CHAINS:
            for side in order:
                run = _run(sides[side], spec)
                first = runs[spec][side][:1]
                if first and (run["h"], run["subset"]) != (first[0]["h"], first[0]["subset"]):
                    raise RuntimeError(f"{spec}: {side} runs disagree")
                runs[spec][side].append(run)

    record_env = environment["change"]
    record_env["commit"] = {side: env["commit"] for side, env in environment.items()}
    record = {"benchmark": "cheeger, one call on a fresh chain",
              "repeats": args.repeats, "environment": record_env, "chains": []}
    for spec in CHAINS:
        out = {"chain": spec}
        for side in sides:
            out[side] = _summary(runs[spec][side])
        if len(sides) == 2:
            out["same_h"] = out["base"]["h"] == out["change"]["h"]
            out["same_subset"] = out["base"]["subset"] == out["change"]["subset"]
        record["chains"].append(out)
        print(spec + ": " + ", ".join(
            f"{side} {out[side]['median_s']:.3f} s, {out[side]['peak_rss_mb']:.0f} MB, "
            f"h {out[side]['h']}" for side in sides), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
