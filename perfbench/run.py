"""curvkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a curvkit checkout; the package is imported from its
`src/`.  The run is a closed loop with one client: the workload's task list
(curvkit CLI commands, see workloads.py) goes through `curvkit.cli.main`
in-process, one command after another, round after round, for about S
seconds; a round that has started always finishes.  Every report is
checked against its reference after the timed rounds.

Every time is scaled to the speed of a reference host (see pace.py): a
reference loop runs right before and right after each timed step and, on
long untraced steps, within it, and the step's time is scaled by how much
slower or faster than on the reference host the loop ran.  The raw times
are in the record line.

--trace 0 prints the end-to-end metrics:
  setup_s      median over 5 fresh interpreters of the time to import curvkit.cli
  wall_s       median round time: the time to the workload's full set of reports
  task_p50_ms, task_p90_ms   percentiles over the commands of each command's
               median latency across the rounds
  peak_rss_mb  peak resident memory of this process
--trace 1 spends the first half of the time on untraced rounds and the
second half on rounds traced by tracing.py, and prints the per-layer
metrics, each the median over the traced rounds.

The line before the last is a JSON record of the environment, the failing
tasks and, when traced, the tracing overhead.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
the run completed, whatever its checks found; it is 2 when the checkout
holds no curvkit source.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import curvkit.cli; "
                "print(time.perf_counter() - t0)")


def measure_setup(pace) -> tuple[list[float], list[float]]:
    """Seconds to import curvkit.cli, each in a fresh interpreter: raw, and
    scaled by the reference loops run just before and after the interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    before = pace.loop()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        after = pace.loop()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(pace.scale(raw[-1], [before, after]))
        before = after
    return raw, scaled


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)

    def blas(mod):
        dep = mod.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy),
            "scipy_blas": blas(scipy), "blas_threads": int(BLAS_THREADS)}


class Round:
    """Reports, exit codes and latencies of one pass over the task list."""

    def __init__(self):
        self.reports: list[bytes] = []
        self.codes: list[int | str] = []
        self.errors: list[list[str]] = []   # last stderr line, if any
        self.latency: list[float] = []    # scaled to the reference host
        self.raw_latency: list[float] = []

    @property
    def wall(self) -> float:
        """The round's time to every report, scaled to the reference host."""
        return sum(self.latency)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_latency)


def run_round(cli, tasks, meter) -> Round:
    rnd = Round()
    for task in tasks:
        out, err = io.StringIO(), io.StringIO()

        def step():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli.main(list(task.argv))
            except Exception as exc:      # a crash is a failed task, not a failed run
                return f"raised {type(exc).__name__}: {exc}"

        code, raw, scaled = meter.time(step)
        rnd.raw_latency.append(raw)
        rnd.latency.append(scaled)
        text = out.getvalue()
        if task.out is not None and os.path.exists(task.out):
            text = Path(task.out).read_text(encoding="utf-8")
        rnd.reports.append(text.encode())
        rnd.codes.append(code)
        rnd.errors.append(err.getvalue().strip().splitlines()[-1:])
    return rnd


def run_rounds(cli, tasks, pace, seconds: float, tracer_factory=None):
    """Rounds for about `seconds`: a round starts only while it is expected
    to end less than half a round past the deadline.  With a tracer factory
    each round is traced by a fresh tracer, returned alongside it; the
    reference loop then runs only between commands, outside the tracer's
    view."""
    meter = pace.Meter(sample=tracer_factory is None)
    rounds, tracers = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or (time.perf_counter()
                         + 0.5 * statistics.median(r.raw_wall for r in rounds) < deadline):
        tracer = None
        if tracer_factory is not None:
            tracer = tracer_factory()
        try:
            rounds.append(run_round(cli, tasks, meter))
        finally:
            if tracer is not None:
                tracer.uninstall()
        tracers.append(tracer)
    return rounds, tracers


def judge(tasks, rounds):
    """Per task and round: None when it passed, else (reason, exact)."""
    check_cache = {}
    verdicts = []
    for rnd in rounds:
        row = []
        for i, task in enumerate(tasks):
            code, report = rnd.codes[i], rnd.reports[i]
            if code != 0:
                what = code if isinstance(code, str) else f"exit {code}"
                row.append((" ".join([what] + rnd.errors[i]), False))
            elif report != rounds[0].reports[i]:
                row.append(("report bytes differ from the first round", True))
            else:
                key = (i, report)
                if key not in check_cache:
                    check_cache[key] = run_check(task, report)
                row.append(check_cache[key])
        verdicts.append(row)
    return verdicts


def run_check(task, report: bytes):
    from workloads import Mismatch

    try:
        task.check(json.loads(report))
    except Mismatch as exc:
        return (str(exc), exc.exact)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return (f"report does not parse: {type(exc).__name__}: {exc}", True)
    return None


def layer_metrics(tracer, tasks, rnd) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    calls, incl, self_s, extra = tracer.calls, tracer.incl, tracer.self_s, tracer.extra
    reports = [json.loads(r) if r else {} for r in rnd.reports]
    starts = converged = facets = iters = 0
    for task, rep in zip(tasks, reports):
        res = rep.get("results", {})
        cmd = task.argv[0]
        if cmd == "curv-entropic":
            starts += len(res.get("per_start", []))
            converged += sum(bool(p["converged"]) for p in res.get("per_start", []))
        elif cmd == "optimal-sets":
            facets += len(res.get("facets", []))
        elif cmd == "curv-vertex":
            iters += sum(v["iterations"] for v in res.get("per_vertex", {}).values())
        elif cmd == "curv-measure" and "curvature" in res:
            iters += res["curvature"]["iterations"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "means.d1.calls": calls["means.d1"],
        "means.d1.s": incl["means.d1"],
        "means.value.calls": calls["means.value"],
        "gamma.validate_density.calls": calls["gamma.validate_density"],
        "gamma.gamma_rho.calls": calls["gamma.gamma_rho"],
        "gamma.gamma_rho.self_s": self_s["gamma.gamma_rho"],
        "gamma.cd_quadratic.calls": calls["gamma.cd_quadratic"],
        "gamma.cd_quadratic.s": incl["gamma.cd_quadratic"],
        "gamma.assemble_forms.calls": calls["gamma.assemble_forms"],
        "gamma.assemble_forms.s": incl["gamma.assemble_forms"],
        "curvature.curvature_grad_rho.calls": calls["curvature.curvature_grad_rho"],
        "curvature.curvature_grad_rho.self_s": self_s["curvature.curvature_grad_rho"],
        "curvature.entropic_curvature_estimate.s":
            incl["curvature.entropic_curvature_estimate"],
        "curvature.bakry_emery_vertex.calls": calls["curvature.bakry_emery_vertex"],
        "curvature.bakry_emery_vertex.self_s": self_s["curvature.bakry_emery_vertex"],
        "curvature.solve_pencil.calls": calls["curvature.solve_pencil"],
        "curvature.solve_pencil.self_s": self_s["curvature.solve_pencil"],
        "curvature.bisect_iters": iters,
        "optimize.minimize.calls": calls["optimize.minimize"],
        "optimize.minimize.self_s": self_s["optimize.minimize"],
        "optimize.nfev_per_start": ratio(extra["optimize.nfev"], extra["optimize.returned"]),
        "optimize.converged_ratio": ratio(converged, starts),
        "geometry.d_gamma.calls": calls["geometry.d_gamma"],
        "geometry.d_gamma.self_s": self_s["geometry.d_gamma"],
        "geometry.newton_steps_per_pair":
            ratio(extra["geometry.d_gamma>linalg.solve"], calls["geometry.d_gamma"]),
        "geometry.cheeger.s": incl["geometry.cheeger"],
        "geometry.checks.s": incl["geometry.checks"],
        "heat.spectral_decompose.calls": calls["heat.spectral_decompose"],
        "heat.verify.s": incl["heat.verify"],
        "chain.generate.calls": calls["chain.generate"],
        "chain.generate.s": incl["chain.generate"],
        "chain.distance_matrix.s": incl["chain.distance_matrix"],
        "optimal.optimal_complex.s": incl["optimal.optimal_complex"],
        "optimal.is_optimal_set.calls": calls["optimal.is_optimal_set"],
        "optimal.accept_ratio": ratio(facets, calls["optimal.is_optimal_set"]),
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.s": incl["linalg"],
        "linalg.n3_computed": extra["linalg.n3_computed"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.report_bytes": sum(len(r) for r in rnd.reports),
    }
    return {k: float(v) for k, v in m.items()}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' why and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def outcome_digest(tasks, verdicts) -> str:
    """Hash of every task's pass/fail outcome, equal across runs that agree."""
    rows = [[t.name, v is None] for t, v in zip(tasks, verdicts)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "curvkit" / "cli.py").is_file():
        print(f"error: no curvkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import pace
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    setup_raw, setup = ([], []) if args.trace else measure_setup(pace)
    import curvkit
    import curvkit.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: curvkit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        tasks = workloads.build(args.workload, seed, work)
        if args.trace:
            from tracing import Tracer

            def traced():
                tracer = Tracer()
                tracer.install(curvkit)
                return tracer

            plain, _ = run_rounds(cli, tasks, pace, args.seconds / 2)
            traced_rounds, tracers = run_rounds(cli, tasks, pace, args.seconds / 2,
                                                traced)
            rounds = plain + traced_rounds
        else:
            rounds, _ = run_rounds(cli, tasks, pace, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = judge(tasks, rounds)
    attempted = len(tasks) * len(rounds)
    failing = {}
    for row in verdicts:
        for task, v in zip(tasks, row):
            if v is not None:
                failing.setdefault(task.name, {"reason": v[0], "exact": v[1], "rounds": 0})
                failing[task.name]["rounds"] += 1
    failed = sum(f["rounds"] for f in failing.values())
    correct = not any(f["exact"] for f in failing.values())
    digests = sorted({outcome_digest(tasks, row) for row in verdicts})
    correct &= len(digests) == 1

    info = {"workload": args.workload,
            "why": next((w["why"] for w in spec["workloads"]
                         if w["name"] == args.workload), None),
            "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "rounds": len(rounds), "tasks": len(tasks),
            "round_wall_s": [r.wall for r in rounds],
            "round_wall_raw_s": [r.raw_wall for r in rounds],
            "pace_ref_s": pace.REF_S,
            "fail_ratio": failed / attempted, "failing_tasks": failing,
            "outcome_digest": digests[0] if len(digests) == 1 else digests,
            "environment": environment()}

    if args.trace:
        per_round = [layer_metrics(tr, tasks, rnd)
                     for tr, rnd in zip(tracers, traced_rounds)]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        counts = [{k: v for k, v in r.items() if units[k] != "s"} for r in per_round]
        info["counts_repeat"] = all(c == counts[0] for c in counts)
        correct &= info["counts_repeat"]
        wall_plain = statistics.median(r.wall for r in plain)
        wall_traced = statistics.median(r.wall for r in traced_rounds)
        info["wall_s_untraced"] = wall_plain
        info["wall_s_traced"] = wall_traced
        info["trace_overhead_s"] = wall_traced - wall_plain
    else:
        # each command's median over the rounds, so that a command's share
        # of the percentiles does not hinge on how many rounds fitted
        latency = [statistics.median(r.latency[i] for r in rounds)
                   for i in range(len(tasks))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in rounds),
            "task_p50_ms": 1e3 * statistics.median(latency),
            "task_p90_ms": 1e3 * statistics.quantiles(latency, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        info["setup_samples_s"] = setup
        info["setup_samples_raw_s"] = setup_raw
        info["task_median_ms"] = {t.name: 1e3 * x for t, x in zip(tasks, latency)}
        info["task_median_raw_ms"] = {
            t.name: 1e3 * statistics.median(r.raw_latency[i] for r in rounds)
            for i, t in enumerate(tasks)}

    info["run_s"] = time.perf_counter() - t_start
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
