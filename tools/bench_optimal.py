"""Wall time of `optimal_complex` on the cycles C14, C16, C20 and C24.

    PYTHONPATH=ROOT/src python3 tools/bench_optimal.py [OUT.json]

curvkit is imported from PYTHONPATH, so the same script measures any
checkout.  For each cycle it builds a fresh chain three times and times
`optimal_complex(chain, inf)` on each, the vertex curvatures included,
with one BLAS thread.  It counts the calls of `is_optimal_set` (the dense
decision, the one oracle of the border search) in every run, and writes
the median time, the samples, the call count and the facet count per
chain, together with the host, the BLAS build, the numpy and scipy
versions and the checkout's git commit, to OUT.json (default
BENCH_optimal.json).
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before anything imports numpy, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import curvkit
from curvkit import optimal

CYCLES = (14, 16, 20, 24)
REPEATS = 3


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": {"machine": platform.machine(), "cpu": _cpu_model(),
                     "cpus": os.cpu_count(), "system": platform.platform()},
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": 1},
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": _commit(Path(curvkit.__file__).parent)}


def measure(n: int) -> dict:
    real = optimal.is_optimal_set
    calls = []

    def counted(*args, **kwargs):
        calls[-1] += 1
        return real(*args, **kwargs)

    samples, facets = [], set()
    optimal.is_optimal_set = counted
    try:
        for _ in range(REPEATS):
            chain = curvkit.cycle(n)
            calls.append(0)
            t0 = time.perf_counter()
            cx = optimal.optimal_complex(chain, np.inf)
            samples.append(time.perf_counter() - t0)
            facets.add(len(cx.facets))
    finally:
        optimal.is_optimal_set = real
    if len(set(calls)) != 1 or len(facets) != 1:
        raise RuntimeError(f"C{n}: runs disagree: calls {calls}, facets {facets}")
    return {"chain": f"cycle:{n}", "wall_s": statistics.median(samples),
            "samples_s": samples, "is_optimal_set_calls": calls[0],
            "facets": facets.pop()}


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print("usage: bench_optimal.py [OUT.json]", file=sys.stderr)
        return 2
    out = argv[0] if argv else "BENCH_optimal.json"
    record = {"benchmark": "optimal_complex on cycles at dim inf",
              "repeats": REPEATS, "environment": environment(), "chains": []}
    for n in CYCLES:
        row = measure(n)
        record["chains"].append(row)
        print(f"C{n}: {row['wall_s']:.3f} s, {row['is_optimal_set_calls']} "
              f"is_optimal_set calls, {row['facets']} facets", flush=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
