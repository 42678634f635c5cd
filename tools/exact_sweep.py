"""Count curvature brackets against the exact rational oracle, per checkout.

    python3 tools/exact_sweep.py [--sweep NAME ...] [ROOT ...]

Each ROOT is a checkout holding src/curvkit (default: this one); every ROOT
runs in a fresh interpreter with one BLAS thread, so one command counts a
change and its parent side by side.  The graphs, densities and oracle are
this checkout's: the generators of tests/test_curvature.py and
tests/conftest.py's exact_measure_pencil, exact_ball_pencil and exact_psd,
a floor-free Fraction LDL'.  The sweeps (all by default):

  vertex   bakry_emery_vertex at dim inf on 300 graphs of
           _path_chord_graphs(seed=1), against the exact 2-ball pencil;
  measure  curvature_of_measure under the arithmetic mean at the densities
           _sweep_densities lists (every Dirac, a two-point, a three-point
           and a positive density) on 120 graphs of
           _path_chord_graphs(seed=5), at dims inf and 4;
  small    the same densities on 60 graphs of _power_weighted_graphs(seed=7)
           at dims 1e-3, 1e-6 and 2.

A value is confirmed when it returns a bracket, refused when it raises
NumericalFailure, and wrong when its bracket fails the exact test: m - K n
not PSD at the lower end, or PSD at the upper end.  The exact dimension is
the float dimension's own value.  It prints confirmed / refused / wrong per
sweep and dimension and per ROOT, and a wrong bracket's graph, state or
density, and dimension on stderr.  It is not part of the test suite: the
three sweeps take some minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SWEEPS = ("vertex", "measure", "small")


def _count(sweep: str) -> dict:
    """{dim: [confirmed, refused, wrong]} of one sweep, in this interpreter."""
    sys.path.insert(0, str(HERE / "tests"))
    import numpy as np
    from conftest import exact_ball_pencil, exact_measure_pencil, exact_psd
    from test_curvature import _path_chord_graphs, _power_weighted_graphs, _sweep_densities

    import curvkit as ck
    from curvkit.gamma import _dirac_ball_forms

    counts: dict = {}

    def tally(dim, bracket, exact, where):
        row = counts.setdefault(repr(dim), [0, 0, 0])
        if bracket is None:
            row[1] += 1
            return
        lo, hi = map(Fraction, bracket)
        if exact_psd(*exact, lo) and not exact_psd(*exact, hi):
            row[0] += 1
        else:
            row[2] += 1
            print(f"wrong bracket {bracket} at {where}, dim {dim!r}", file=sys.stderr)

    def attempt(solve):
        try:
            return solve().bracket
        except ck.NumericalFailure:
            return None

    if sweep == "vertex":
        for exact, weights in _path_chord_graphs(seed=1, count=300):
            ch = ck.srw_from_graph(weights)
            for x in range(ch.n_states):
                bracket = attempt(lambda: ck.bakry_emery_vertex(ch, x, np.inf))
                pencil = (None if bracket is None else exact_ball_pencil(
                    exact, x, _dirac_ball_forms(ch, x, np.inf)[0]))
                tally(np.inf, bracket, pencil, f"{weights.tolist()} vertex {x}")
        return counts
    graphs, dims = ((_path_chord_graphs(seed=5, count=120), (np.inf, 4.0))
                    if sweep == "measure" else
                    (_power_weighted_graphs(seed=7, count=60), (1e-3, 1e-6, 2.0)))
    for exact, weights in graphs:
        ch = ck.srw_from_graph(weights)
        for rho in _sweep_densities(ch):
            for dim in dims:
                bracket = attempt(lambda: ck.curvature_of_measure(ch, ck.ARITHMETIC, rho, dim))
                pencil = None if bracket is None else exact_measure_pencil(
                    exact, [Fraction(r) for r in rho],
                    None if np.isinf(dim) else Fraction(dim))
                tally(dim, bracket, pencil, f"{weights.tolist()} rho {rho.tolist()}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=[str(HERE)])
    parser.add_argument("--sweep", action="append", choices=SWEEPS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_count(args.child)))
        return 0
    wrong = 0
    for sweep in args.sweep or SWEEPS:
        for root in args.roots:
            env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
                       OPENBLAS_NUM_THREADS="1")
            out = subprocess.run([sys.executable, __file__, "--child", sweep], env=env,
                                 capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            if out.returncode:
                return out.returncode
            counts = json.loads(out.stdout)
            total = [sum(col) for col in zip(*counts.values())]
            wrong += total[2]
            cells = "  ".join(f"dim {dim}: {c}/{r}/{w}" for dim, (c, r, w) in counts.items())
            print(f"{sweep:8} {root}: {cells}  total: {total[0]}/{total[1]}/{total[2]}"
                  "  (confirmed/refused/wrong)", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
