"""The scripts under tools/: one child run of each bench case, and the
report-matrix comparison."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvkit
from curvkit.cli import main

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = Path(curvkit.__file__).resolve().parents[1]


def _tool(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(TOOLS / argv[0]), *argv[1:]], env=env,
                          capture_output=True, text=True)


def _bench_child(case, spec, *flags):
    out = _tool("bench.py", case, "--child", spec, *flags)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _dgamma_counts(counts):
    # one Newton solve per step, and a dual-bound solve before most steps
    # of a pair solved under a positive best; the one orbit is solved first
    return (counts["pairs_solved"] == 1 and counts["pairs_cut"] == 0
            and counts["newton_steps"] <= counts["linalg_solves"] <= 2 * counts["newton_steps"])


@pytest.mark.parametrize("case, spec, check_result, check_counts", [
    ("cheeger", "hypercube:3",
     lambda result: float(result["h"]) == pytest.approx(1 / 3, rel=1e-15),
     lambda counts: counts == {}),
    ("dgamma", "cycle:6",        # the three antipodal pairs are one orbit
     lambda result: float(result["diam_gamma"]) == pytest.approx(3 * math.sqrt(2), rel=1e-9),
     _dgamma_counts),
    ("optimal", "cycle:6",       # 16 of the 30 oracle calls are failed extensions
     lambda result: result == {"facets": 6},
     lambda counts: counts == {"is_optimal_set_calls": 30}),
    ("vertex", "hypercube:3",    # every pencil confirmed by a two-point bracket
     lambda result: float(result["k"]) == pytest.approx(2 / 3, rel=1e-14),
     lambda counts: counts == {"pencil_calls": 8, "psd_tests": 16}),
    ("entropic", "cycle:6",      # the Dirac start ends where the pencil loses K
     lambda result: float(result["k_hat"]) == pytest.approx(0.38330140757, rel=1e-9),
     lambda counts: counts == {"grad_calls": 12, "measure_calls": 2, "failed_starts": 1}),
])
def test_bench_child_runs(case, spec, check_result, check_counts):
    counted = _bench_child(case, spec, "--counted")
    timed = _bench_child(case, spec)
    assert check_result(counted["result"]) and check_counts(counted["counts"])
    assert counted["environment"]["blas"]["threads"] == 1
    assert timed["result"] == counted["result"]
    assert "counts" not in timed
    assert timed["wall_s"] > 0 and timed["peak_rss_mb"] >= timed["rss_before_mb"]


def _record(tmp_path):
    """A report-matrix record of two real commands."""
    commands = []
    for argv in (["cheeger", "--gen", "cycle:6"], ["spectrum", "--gen", "path:3"]):
        out = tmp_path / "report.json"
        code = main(argv + ["--out", str(out)])
        commands.append({"argv": argv + ["--out", "<work>/report.json"], "exit": code,
                         "stdout": "", "stderr": "",
                         "files": {"<work>/report.json": out.read_text()}})
    return {"commands": commands}


def test_report_matrix_compare(tmp_path):
    record = _record(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record))
    same = _tool("report_matrix.py", "--compare", str(a), str(a))
    assert (same.returncode, same.stdout) == (0, "0 of 2 commands differ\n")

    report = json.loads(record["commands"][0]["files"]["<work>/report.json"])
    report["results"]["h"] *= 1 + 1e-9
    record["commands"][0]["files"]["<work>/report.json"] = json.dumps(report)
    b.write_text(json.dumps(record))
    differ = _tool("report_matrix.py", "--compare", str(a), str(b))
    assert differ.returncode == 1
    assert "<work>/report.json {results.h (rel 1e-09)}" in differ.stdout
    assert differ.stdout.endswith("1 of 2 commands differ\n")


def _report_matrix():
    spec = importlib.util.spec_from_file_location("report_matrix", TOOLS / "report_matrix.py")
    report_matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_matrix)
    return report_matrix


def test_report_matrix_records_a_crash(tmp_path):
    # an uncaught exception is the command's outcome: exit null, its type
    # and message as stderr
    def crash(argv):
        raise OverflowError("int too large to convert to float")

    rec = _report_matrix().run_one(crash, ["heat", "--gen", "path:172"],
                                   str(tmp_path), str(SRC.parent))
    assert (rec["exit"], rec["stdout"]) == (None, "")
    assert rec["stderr"] == "OverflowError: int too large to convert to float\n"


def test_report_matrix_masks_the_recorded_root(tmp_path):
    # a warning names the checkout's own source file; masked as <root>, the
    # same warning from two checkouts reads the same
    root, work = tmp_path / "checkout", tmp_path / "work"
    work.mkdir()
    where = f"{root}/src/curvkit/curvature.py:192"

    def warn(argv):
        print(where)
        print(f"{where}: RuntimeWarning: divide by zero", file=sys.stderr)
        Path(argv[-1]).write_text(f"{where}\n", encoding="utf-8")
        return 0

    rec = _report_matrix().run_one(warn, ["spectrum", "--out", f"{work}/report.json"],
                                   str(work), str(root))
    masked = "<root>/src/curvkit/curvature.py:192"
    assert rec == {"argv": ["spectrum", "--out", "<work>/report.json"], "exit": 0,
                   "stdout": f"{masked}\n",
                   "stderr": f"{masked}: RuntimeWarning: divide by zero\n",
                   "files": {"<work>/report.json": f"{masked}\n"}}


def test_loc_counts_code_lines_only(tmp_path):
    # module, class and function docstrings, comment lines and blank lines
    # are not code; a line with an inline comment is, and so is every line
    # of a string that is not a docstring
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text('''"""Module docstring,
over two lines."""

# a comment line
X = 1  # an inline comment


class C:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines.
        """
        return """not a
docstring"""
''')
    (pkg / "empty.py").write_text('"""Only a docstring."""\n')
    out = _tool("loc.py", str(pkg))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "     0  empty.py\n     5  mod.py\n     5  total\n"
