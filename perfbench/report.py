"""Run the curvkit benchmark over workloads and seeds and summarize it.

    python3 perfbench/report.py                      # every workload, seed 1, both modes
    python3 perfbench/report.py --workloads battery --seeds 1-5 --trace 0
    python3 perfbench/report.py --seeds 1-10 --out perfbench/results/run.json
    python3 perfbench/report.py --compare parent.json change.json

Each (workload, seed, trace mode) is one `run.py` subprocess, one after
another.  The summary prints, per workload and metric, the median over the
seeds, the quartiles from `statistics.quantiles(values, n=4)` and their
distance as a share of the median, next to the bound in BENCHMARK.json.
It also checks that the task outcomes of the traced and untraced run of a
seed agree and, with --repeat, that a second traced run of the first seed
repeats every per-layer count exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs: list[dict]) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for trace in (0, 1):
            rows = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not rows:
                continue
            res = [r["result"] for r in rows]
            lines.append(f"== {workload} trace={trace}: {len(rows)} runs, "
                         f"correct={all(x['correct'] for x in res)}, "
                         f"failed/attempted={sum(x['failed'] for x in res)}/"
                         f"{sum(x['attempted'] for x in res)}")
            for name, meta in res[0]["metrics"].items():
                med, q1, q3, rel = spread([x["metrics"][name]["value"] for x in res])
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound:.2f}" + (
                    "  SPREAD>BOUND/3" if rel > bound / 3 and name != "setup_s" else "")
                lines.append(f"  {name:42s} {med:14.6g} {meta['unit']:10s} "
                             f"q1 {q1:.6g} q3 {q3:.6g} spread {rel:.3f}{flag}")
            if trace == 1:
                over = [r["info"]["trace_overhead_s"] for r in rows]
                lines.append(f"  tracing overhead (traced - untraced wall_s): "
                             f"median {statistics.median(over):.3f} s")
    return lines


def consistency(runs: list[dict]) -> list[str]:
    """Outcome agreement between modes and count repeats between traced runs."""
    lines = []
    by_key = {}
    for r in runs:
        by_key.setdefault((r["workload"], r["seed"]), []).append(r)
    for (workload, seed), group in by_key.items():
        digests = {json.dumps(r["info"]["outcome_digest"]) for r in group}
        if len({r["trace"] for r in group}) == 2:
            lines.append(f"{workload} seed {seed}: outcomes "
                         f"{'agree' if len(digests) == 1 else 'DIFFER'} between modes")
        traced = [r for r in group if r["trace"] == 1]
        if len(traced) >= 2:
            counts = [{k: v["value"] for k, v in r["result"]["metrics"].items()
                       if v["unit"] != "s"} for r in traced]
            same = all(c == counts[0] for c in counts)
            lines.append(f"{workload} seed {seed}: per-layer counts "
                         f"{'repeat exactly' if same else 'DIFFER'} over {len(traced)} traced runs")
    return lines


def compare(old_path: str, new_path: str) -> list[str]:
    """Per workload and end-to-end metric: the change of the median from the
    first record set to the second, against the metric's bound."""
    sets = [json.loads(Path(p).read_text(encoding="utf-8"))["runs"]
            for p in (old_path, new_path)]
    lines = []
    for m in SPEC["end_to_end"]:
        for workload in dict.fromkeys(r["workload"] for r in sets[0]):
            med = [statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                     for r in runs
                                     if r["workload"] == workload and r["trace"] == 0)
                   for runs in sets]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            verdict = "WORSE THAN BOUND" if worse > m["bound"] else "within bound"
            lines.append(f"{workload:10s} {m['name']:12s} {med[0]:12.6g} -> {med[1]:12.6g} "
                         f"{m['unit']:3s} worse by {worse:+.3f} (bound {m['bound']}) {verdict}")
    return lines


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seeds_arg, default=[1])
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--repeat", action="store_true",
                    help="run the first seed traced a second time")
    ap.add_argument("--out", help="write every run's records here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare the medians of two --out files instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0

    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for trace in modes:
                runs.append(run_once(workload, seed, args.seconds, trace))
                r = runs[-1]["result"]
                print(f"{workload} seed {seed} trace {trace}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
        if args.repeat and 1 in modes:
            runs.append(run_once(workload, args.seeds[0], args.seconds, 1))
    lines = summarize(runs) + consistency(runs)
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": lines, "runs": runs}, indent=1)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
