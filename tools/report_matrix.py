"""Byte-identity matrix of curvkit CLI reports.

    python3 tools/report_matrix.py ROOT OUT.json
    python3 tools/report_matrix.py --compare A.json B.json

The first form imports curvkit from ROOT/src and runs a fixed matrix of
commands through `curvkit.cli.main` in-process, one after another, in a
scratch directory that is also the working directory:

  * the CLI block of ROOT/README.md, in order;
  * every task of the four benchmark workloads at seed 1, as listed by
    ROOT/perfbench/workloads.py;
  * edge cases: a one-state chain through curv-vertex, curv-measure and
    curv-entropic (exit 2: a chain needs two states), a chain too large for
    the exact Cheeger enumeration, an unknown generator, a verify run whose
    exact preconditions fail, a weighted edge list (one state first seen in
    the second column) under the geometric mean, the full forms of a Dirac
    density over a dimension grid, a Dirac density evolved by the heat
    semigroup, the non-pure optimal-set complex of the 8-cycle (its maximal
    antipodal pairs), optimal sets at a finite dimension on a cycle and on
    chains whose 2-balls miss some states, optimal sets whose zero cells
    are a proper subset of the states (path:8), whose complex is
    0-dimensional (complete:6) and whose one facet holds all 16 states
    (hypercube:4), and two entropic descents at a finite dimension (the
    (1/dim) terms of the forms and the curvature gradient along a descent);
  * a four-state birth-death chain with pi_max/pi_min = 1e6 (written to
    the scratch directory): the full verify battery, where pi is so
    concentrated that the chain starts within 1/4 of equilibrium and
    tau(1/4) = 0, and curv-measure at the constant density under the
    logarithmic mean, whose K = lambda_1 the bracket confirms (an
    eigenvalue floor refused it);
  * the edge list a-b-c-d with weights 1, 1e-10, 1 under the full verify
    battery with an exact entropic K of 0.1, which this chain's d_Gamma
    diameter refutes (exit 4), and the same list with a middle weight of
    1e-10 and of 1e-6 under curv-vertex, whose near-degenerate vertex
    pencils the degree coordinates resolve, and of 1e-10 under
    optimal-sets, whose oracle refuses both minimal singletons (exit 3);
  * the same list with a middle weight of 5e-324 under curv-vertex, whose
    forms lose their structure at every vertex (the n-weight of b-c or the
    2-sphere entry of m underflows), and of 4e-323, whose forms have
    subnormal entries and whose witness at b has an n-norm that
    underflows (both exit 3), and of 1e-100, 1e-12 and 5e-324 under
    curv-measure at the Dirac density of b: the bracket confirms the
    vertex value -1 at 1e-100 and 1e-12, and at 5e-324 the assembly
    refuses the n-weight that underflows to 0 (exit 3);
  * curv-measure on cycle:10 at dim 4 for the two-point densities on
    states 0 and 3, whose n has two components in one block of the forms,
    and on states 0 and 5, whose forms split into two blocks;
  * curv-vertex on complete:5, whose 2-spheres are empty, and on a lazy
    5-cycle read from a file;
  * the one-state chain under optimal-sets (exit 2 as well) and a chain of
    two components under spectrum (exit 2, naming a state the other
    component cannot reach);
  * the edge list a-b-c with weights 1, 1e-309 under spectrum: pi_c is
    about 5e-310, so D_pi overflows and chain_stats reads "inf"; under
    heat, whose heat kernel overflows there (exit 3); and under mixing,
    which reads pi(x) pi(y) p_t(x, y) from the orthonormal eigenvectors
    and finds tau = ln 2;
  * dgamma on complete:8, whose pairs are one orbit of its automorphisms,
    and on the bare chain document of hypercube:4, which carries none, so
    that diam_Gamma runs over orbit representatives and over all pairs;
  * a gen report of the earlier schema curvkit-report/1 under curv-measure
    --in (exit 2, naming both schemas);
  * a zero dimension as --n of curv-vertex and in the --n-grid of
    curv-measure (exit 2, in the library's words);
  * the heat kernel bound on the 6-cycle at t = 1e17 and 1e300, where the
    zero mode must not grow and the bound t^d overflows, and on path:172,
    whose distance 171 takes the bound past the largest float factorial;
  * curv-measure at the zero density of path:3 (exit 2: a density needs a
    positive entry) and at a density of 1e-320 on every state of cycle:5,
    read from a JSON file, whose form weights are subnormal: the pencil
    reads K = lambda_1, which the bracket refuses, since subnormal
    entries carry too few digits for its rounding bounds (exit 3);
  * curv-measure on cycle:5 at a density of 1e-10 on every state, where
    the bracket's rounding bounds scale with the density and confirm
    K = lambda_1 as at the density 1;
  * the same density at dim 4 under the logarithmic mean, confirmed as
    well;
  * the edge list a-b-c-d with weights 10, 1e-12, 10 under curv-measure at
    dim 4 and the density {a: 4, b: 4, d: 12}: the reduction reads
    K = 1.4999999999842142, but the exact value is 1.4999995718255186,
    and the bracket refuses it at the lower end (exit 3; an eigenvalue
    floor certified [1.499999996234214, 1.5000000037342143], which
    neither end of the exact PSD test passes).

For each command it records the exit code, stdout, stderr and the file
named by --out or --csv (removed before the command runs), with the
scratch path masked as <work> and ROOT as <root>, so that a warning naming
a source file reads the same from any checkout, and writes the records to
OUT.json.  A command that raises is recorded with exit null and the
exception's type and message appended to its stderr; the commands after it
still run.

The second form lists each command whose exit code, stdout, stderr or
files differ between two such records, naming each report leaf that
differs by its path (for example results.geometry[6].lhs) and, for a
number, the relative difference |a - b| / max(|a|, |b|); it exits 1 if
any command differs.  Compare records made on the same machine: last bits
depend on the BLAS build.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before anything imports numpy, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("entropic", "battery", "vertex", "smallcalls")
OUTPUT_FLAGS = ("--out", "--csv")


def readme_commands(root: Path) -> list[list[str]]:
    """The `curvkit ...` lines of the README's CLI block."""
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## CLI")
    argvs = []
    for line in lines[start:]:
        if line.startswith("curvkit "):
            argvs.append(line.split()[1:])
        elif argvs and line.startswith("```"):
            break
    return argvs


def workload_commands(root: Path, work: str) -> list[list[str]]:
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    return [list(task.argv) for name in WORKLOADS
            for task in workloads.build(name, 1, work)]


def _birth_death(e: int) -> dict:
    """Four-state birth-death chain, Q(x, x+1) = p = r/(1+r) and
    Q(x+1, x) = 1 - p with r = 10^(e/3), so pi is proportional to r^x and
    pi_max/pi_min = 10^e."""
    r = 10.0 ** (e / 3.0)
    p = r / (1.0 + r)
    q = [[0.0] * 4 for _ in range(4)]
    for x in range(3):
        q[x][x + 1], q[x + 1][x] = p, 1.0 - p
    for x in range(4):
        q[x][x] = 1.0 - sum(q[x])
    pi = [r ** x for x in range(4)]
    return {"Q": q, "pi": [v / sum(pi) for v in pi]}


def edge_commands(work: str) -> list[list[str]]:
    one = f"{work}/one.json"
    with open(one, "w", encoding="utf-8") as fh:
        fh.write('{"Q": [[1.0]]}')
    tsv = f"{work}/w.tsv"
    with open(tsv, "w", encoding="utf-8") as fh:
        fh.write("a\tb\t1.0\nc\tb\t2.0\nd\ta\t0.5\nc\td\t1.5\n")
    bd6 = f"{work}/bd6.json"
    with open(bd6, "w", encoding="utf-8") as fh:
        json.dump(_birth_death(6), fh)
    thin, thin6, thin12 = f"{work}/thin.tsv", f"{work}/thin6.tsv", f"{work}/thin12.tsv"
    thin100, tiny, tiny8 = (f"{work}/thin100.tsv", f"{work}/tiny.tsv",
                            f"{work}/tiny8.tsv")
    for path, weight in ((thin, "1e-10"), (thin6, "1e-6"), (thin100, "1e-100"),
                         (tiny, "5e-324"), (tiny8, "4e-323"), (thin12, "1e-12")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"a\tb\t1\nb\tc\t{weight}\nc\td\t1\n")
    heavy12 = f"{work}/heavy12.tsv"
    with open(heavy12, "w", encoding="utf-8") as fh:
        fh.write("a\tb\t10\nb\tc\t1e-12\nc\td\t10\n")
    lazy = f"{work}/lazy.json"
    with open(lazy, "w", encoding="utf-8") as fh:
        json.dump({"Q": [[0.5 if y == x else 0.25 if (y - x) % 5 in (1, 4)
                          else 0.0 for y in range(5)] for x in range(5)]}, fh)
    over = f"{work}/over.tsv"
    with open(over, "w", encoding="utf-8") as fh:
        fh.write("a\tb\t1\nb\tc\t1e-309\n")
    split = f"{work}/split.json"
    with open(split, "w", encoding="utf-8") as fh:
        fh.write('{"Q": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]}')
    from curvkit.chain import chain_to_json, hypercube

    cube4 = f"{work}/cube4.json"
    with open(cube4, "w", encoding="utf-8") as fh:
        json.dump(chain_to_json(hypercube(4)), fh)
    tiny_rho = f"{work}/tiny_rho.json"
    with open(tiny_rho, "w", encoding="utf-8") as fh:
        json.dump({str(x): 1e-320 for x in range(5)}, fh)
    small_rho = json.dumps({str(x): 1e-10 for x in range(5)})
    gen1 = f"{work}/gen1.json"
    with open(gen1, "w", encoding="utf-8") as fh:
        json.dump({"schema": "curvkit-report/1", "config": {"command": "gen"},
                   "results": {"chain": {"Q": [[0.5, 0.5], [0.5, 0.5]]}}}, fh)
    return [["curv-vertex", "--in", one],
            ["curv-measure", "--in", one],
            ["curv-entropic", "--in", one],
            ["cheeger", "--gen", "hypercube:6"],
            ["curv-vertex", "--gen", "moebius:7"],
            ["verify", "--gen", "hypercube:3", "--k-ent", "100"],
            ["curv-measure", "--in", tsv, "--mean", "geometric",
             "--rho", "uniform", "--n", "4"],
            ["curv-measure", "--gen", "path:5", "--rho", "dirac:2",
             "--n-grid", "inf,6"],
            ["heat", "--gen", "cycle:6", "--t-grid", "0.1,1", "--rho", "dirac:0"],
            ["optimal-sets", "--gen", "cycle:8"],
            ["optimal-sets", "--gen", "cycle:10", "--n", "4"],
            ["optimal-sets", "--gen", "hypercube:3", "--n", "4"],
            ["optimal-sets", "--gen", "random-regular:3:12:2", "--n", "4"],
            ["optimal-sets", "--gen", "path:8"],
            ["optimal-sets", "--gen", "complete:6"],
            ["optimal-sets", "--gen", "hypercube:4"],
            ["curv-entropic", "--gen", "path:5", "--starts", "4", "--n", "4"],
            ["curv-entropic", "--gen", "hypercube:3", "--starts", "2", "--n", "6"],
            ["verify", "--in", bd6, "--suite", "all", "--starts", "1"],
            ["curv-measure", "--in", bd6, "--mean", "logarithmic",
             "--rho", "ones"],
            ["verify", "--in", thin, "--suite", "all", "--k-ent", "0.1"],
            ["curv-vertex", "--in", thin],
            ["curv-vertex", "--in", thin6],
            ["curv-vertex", "--in", tiny],
            ["curv-vertex", "--in", tiny8],
            ["curv-measure", "--in", thin100, "--rho", "dirac:b"],
            ["curv-vertex", "--gen", "complete:5"],
            ["curv-vertex", "--in", lazy],
            ["optimal-sets", "--in", thin],
            ["optimal-sets", "--in", one],
            ["spectrum", "--in", split],
            ["spectrum", "--in", over],
            ["heat", "--in", over, "--t-grid", "0.1,1"],
            ["mixing", "--in", over, "--eps", "0.25"],
            ["dgamma", "--gen", "complete:8"],
            ["dgamma", "--in", cube4],
            ["curv-measure", "--in", gen1],
            ["curv-vertex", "--gen", "cycle:5", "--n", "0"],
            ["curv-measure", "--gen", "cycle:5", "--n-grid", "inf,0"],
            ["heat", "--gen", "cycle:6", "--t-grid", "1e17,1e300"],
            ["heat", "--gen", "path:172", "--t-grid", "0.5"],
            ["curv-measure", "--gen", "path:3", "--rho", '{"0": 0}'],
            ["curv-measure", "--gen", "cycle:5", "--rho", tiny_rho],
            ["curv-measure", "--gen", "cycle:5", "--rho", small_rho],
            ["curv-measure", "--gen", "cycle:5", "--rho", small_rho, "--n", "4",
             "--mean", "logarithmic"],
            ["curv-measure", "--in", thin12, "--rho", "dirac:b"],
            ["curv-measure", "--in", tiny, "--rho", "dirac:b"],
            ["curv-measure", "--gen", "cycle:10", "--n", "4", "--rho", '{"0": 1, "3": 2}'],
            ["curv-measure", "--gen", "cycle:10", "--n", "4", "--rho", '{"0": 1, "5": 2}'],
            ["curv-measure", "--in", heavy12, "--n", "4",
             "--rho", '{"a": 4, "b": 4, "d": 12}']]


def run_one(main, argv: list[str], work: str, root: str) -> dict:
    def mask(text: str) -> str:
        return text.replace(work, "<work>").replace(root, "<root>")

    outputs = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in OUTPUT_FLAGS]
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:    # the command's outcome, not the record's
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    files = {}
    for path in outputs:
        with contextlib.suppress(FileNotFoundError), open(path, encoding="utf-8") as fh:
            files[mask(path)] = mask(fh.read())
    return {"argv": [mask(a) for a in argv], "exit": code,
            "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue()),
            "files": files}


def record(root: Path, out_path: str) -> int:
    if not (root / "src" / "curvkit" / "cli.py").is_file():
        print(f"error: no curvkit source under {root}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from curvkit.cli import main

    work = os.path.realpath(tempfile.mkdtemp(prefix="report-matrix-"))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        argvs = (readme_commands(root) + workload_commands(root, work)
                 + edge_commands(work))
        commands = [run_one(main, argv, work, str(root)) for argv in argvs]
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands}, fh, indent=1)
        fh.write("\n")
    print(f"{len(commands)} commands recorded in {out_path}")
    return 0


def _leaves(a, b, path: str):
    """Describe each leaf at which two JSON values differ: its path, and for
    two numbers also their relative difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            sub = f"{path}.{k}" if path else k
            if k not in b or k not in a:
                yield f"{sub} (only in {'A' if k in a else 'B'})"
            else:
                yield from _leaves(a[k], b[k], sub)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]")
    elif a != b:
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (a, b)):
            yield f"{path} (rel {abs(a - b) / max(abs(a), abs(b)):.2g})"
        else:
            yield path


def _report_leaves(a: str, b: str) -> list[str] | None:
    """The leaves in which two JSON reports differ, or None if either text
    is not a report."""
    try:
        da, db = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return None
    if not (isinstance(da, dict) and isinstance(db, dict)):
        return None
    return list(_leaves(da, db, ""))


def differences(ra: dict, rb: dict) -> list[str]:
    fields = [k for k in ("exit", "stderr") if ra[k] != rb[k]]
    texts_a = dict(ra["files"], stdout=ra["stdout"])
    texts_b = dict(rb["files"], stdout=rb["stdout"])
    for name in sorted(texts_a.keys() | texts_b.keys()):
        ta, tb = texts_a.get(name), texts_b.get(name)
        if ta == tb:
            continue
        leaves = _report_leaves(ta, tb) if ta is not None and tb is not None else None
        fields.append(name if not leaves else f"{name} {{{', '.join(leaves)}}}")
    return fields


def compare(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
        a, b = json.load(fa)["commands"], json.load(fb)["commands"]
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        print("the two records run different command lists")
        return 1
    differ = 0
    for ra, rb in zip(a, b):
        fields = differences(ra, rb)
        if fields:
            differ += 1
            print(f"{' '.join(ra['argv'])}: {'; '.join(fields)}")
    print(f"{differ} of {len(a)} commands differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) == 2 and not argv[0].startswith("-"):
        return record(Path(argv[0]).resolve(), argv[1])
    print("usage: report_matrix.py ROOT OUT.json | --compare A.json B.json",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
