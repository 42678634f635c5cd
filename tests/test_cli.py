"""CLI: subcommand contracts, exit codes, report determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvkit
from curvkit import (ARITHMETIC, DomainError, bakry_emery_vertex,
                     chain_from_edgelist, chain_from_json, check_cheeger_l1,
                     curvature_of_measure, dirac, hypercube)
from curvkit.cli import SCHEMA, _ENCODER, _jsonable, build_parser, main

from conftest import cheeger_gray


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_gen_writes_chain(tmp_path):
    code, doc = run_cli(tmp_path, "gen", "cycle:5")
    assert code == 0
    assert doc["schema"] == "curvkit-report/2"
    chain = doc["results"]["chain"]
    assert len(chain["states"]) == 5
    assert chain["pi"] == pytest.approx([0.2] * 5)


def test_curv_vertex_hypercube(tmp_path):
    code, doc = run_cli(tmp_path, "curv-vertex", "--gen", "hypercube:3",
                        "--n", "inf")
    assert code == 0
    per_vertex = doc["results"]["per_vertex"]
    assert len(per_vertex) == 8
    for rec in per_vertex.values():
        assert rec["value"] == pytest.approx(2 / 3, abs=1e-8)
    assert doc["results"]["k_global"] == pytest.approx(2 / 3, abs=1e-8)


_RHO5 = {"0": 1.0, "1": 2.0, "2": 0.5, "3": 1.5, "4": 1.0}


def _vertex_records(ch):
    return {s: bakry_emery_vertex(ch, s, np.inf) for s in ch.states}


@pytest.mark.parametrize("argv, library", [
    (["curv-vertex", "--gen", "hypercube:3"], _vertex_records),
    (["curv-vertex", "--gen", "cycle:128"], _vertex_records),
    (["curv-measure", "--gen", "path:5", "--rho", "dirac:2"],
     lambda ch: {"curvature": curvature_of_measure(ch, ARITHMETIC, dirac(ch, "2"),
                                                   np.inf)}),
    (["curv-measure", "--gen", "cycle:5", "--mean", "logarithmic", "--n", "4",
      "--rho", json.dumps(_RHO5)],
     lambda ch: {"curvature": curvature_of_measure(
         ch, "logarithmic", [_RHO5[s] for s in ch.states], 4.0)}),
    (["curv-measure", "--gen", "path:3", "--rho", '{"0": 0}'],
     lambda ch: {"curvature": curvature_of_measure(ch, ARITHMETIC, np.zeros(3), np.inf)}),
], ids=["hypercube3", "cycle128", "path5-dirac", "cycle5-positive", "zero-density"])
def test_curvature_record_rebuilds_the_library_witness(tmp_path, capsys, argv, library):
    # a record is {value, bracket, iterations, null_dim, witness}; the witness
    # object holds exactly the entries whose bits are not those of +0.0, and
    # the states it omits read 0.  The zero density has no curvature record:
    # the library and the CLI refuse it where it enters (exit 2, no report)
    ch = curvkit.generate(argv[2])
    if argv[-1] == '{"0": 0}':
        with pytest.raises(DomainError, match="no positive entry"):
            library(ch)
        assert run_cli(tmp_path, *argv) == (2, None)
        assert capsys.readouterr().err == "error: density has no positive entry\n"
        return
    code, doc = run_cli(tmp_path, *argv)
    assert code == 0
    expected = library(ch)
    results = doc["results"]
    records = results.get("per_vertex") or {"curvature": results["curvature"]}
    assert records.keys() == expected.keys()
    for key, rec in records.items():
        assert rec.keys() == {"value", "bracket", "iterations", "null_dim", "witness"}
        res = expected[key]
        assert [rec[k] for k in ("value", "bracket", "iterations", "null_dim")] \
            == _jsonable([res.value, res.bracket, res.iterations, res.null_dim])
        lib = res.witness
        assert len(rec["witness"]) == np.count_nonzero(lib.view(np.int64))
        f = np.zeros(ch.n_states)
        for state, value in rec["witness"].items():
            f[ch.index(state)] = value
        assert f.tobytes() == lib.tobytes()


def test_curv_measure_with_profile_csv(tmp_path):
    csv = tmp_path / "profile.csv"
    code, doc = run_cli(tmp_path, "curv-measure", "--gen", "hypercube:2",
                        "--rho", "dirac:00", "--mean", "arithmetic",
                        "--n", "inf", "--n-grid", "inf,4,2", "--csv", str(csv))
    assert code == 0
    assert doc["results"]["curvature"]["value"] == pytest.approx(1.0, abs=1e-8)
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "inv_dim,curvature"
    assert len(rows) == 4


def test_curv_measure_csv_needs_n_grid(tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    code, doc = run_cli(tmp_path, "curv-measure", "--gen", "cycle:4", "--csv", str(csv))
    assert code == 2 and doc is None and not csv.exists()
    err = capsys.readouterr().err
    assert "--csv" in err and "--n-grid" in err


def test_curv_measure_rho_inline_json(tmp_path):
    # --rho takes the density inline or as the path of a JSON file
    rho = '{"0": 1.0, "1": 2.0, "2": 1.0, "3": 1.0, "4": 1.0}'
    code, doc = run_cli(tmp_path, "curv-measure", "--gen", "cycle:5",
                        "--rho", rho, "--mean", "logarithmic")
    assert code == 0
    (tmp_path / "rho.json").write_text(rho)
    code, from_file = run_cli(tmp_path, "curv-measure", "--gen", "cycle:5", "--rho",
                              str(tmp_path / "rho.json"), "--mean", "logarithmic")
    assert code == 0 and from_file["results"] == doc["results"]


@pytest.mark.parametrize("argv, message", [
    (["spectrum"], "error: either --gen or --in is required"),
    (["curv-entropic", "--gen", "cycle:6", "--starts", "x"],
     "error: argument --starts: invalid int value: 'x'"),
    (["verify", "--gen", "cycle:6", "--k-ent", "x"],
     "error: argument --k-ent: invalid float value: 'x'"),
    (["curv-measure", "--gen", "cycle:4", "--rho", "[1, 2]"],
     "error: rho JSON must map state ids to values"),
], ids=["no-chain", "starts", "k-ent", "rho-not-object"])
def test_malformed_input_exit2_with_its_message(tmp_path, capsys, argv, message):
    assert run_cli(tmp_path, *argv) == (2, None)
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(message)


def test_curv_measure_zero_rho_open_mean_exit2(tmp_path):
    code, _ = run_cli(tmp_path, "curv-measure", "--gen", "cycle:5",
                      "--rho", "dirac:0", "--mean", "logarithmic")
    assert code == 2


def test_curv_entropic(tmp_path):
    code, doc = run_cli(tmp_path, "curv-entropic", "--gen", "hypercube:1",
                        "--starts", "4", "--seed", "5")
    assert code == 0
    assert doc["results"]["k_hat"] == pytest.approx(2.0, abs=1e-3)
    assert doc["results"]["certified_nonnegative"]


@pytest.mark.parametrize("command", ["curv-vertex", "curv-measure",
                                     "curv-entropic", "optimal-sets"])
@pytest.mark.parametrize("dim, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
def test_non_positive_dimension_exit2_naming_it(tmp_path, capsys, command, dim, shown):
    code, doc = run_cli(tmp_path, command, "--gen", "cycle:5", f"--n={dim}")
    assert (code, doc) == (2, None)
    assert capsys.readouterr().err == f"error: dimension must be positive, got {shown}\n"


@pytest.mark.parametrize("argv", [["--n-grid", "inf,0"], ["--n-grid", "4,-0"],
                                  ["--n-grid", "nan,4"],
                                  ["--n", "0", "--n-grid", "inf,4"]])
def test_non_positive_dimension_writes_no_profile_csv(tmp_path, capsys, argv):
    csv = tmp_path / "profile.csv"
    code, doc = run_cli(tmp_path, "curv-measure", "--gen", "cycle:5", *argv,
                        "--csv", str(csv))
    assert (code, doc) == (2, None) and not csv.exists()
    err = capsys.readouterr().err
    assert "dimension must be positive" in err and "Traceback" not in err


def test_library_warning_in_every_report(tmp_path, capsys):
    # Python shows a warning once per location; the report lists it every time
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["verify", "--gen", "path:3", "--suite", "geometry",
                     "--starts", "1", "--trials", "2", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert "buser: checked under a heuristic precondition" in doc["warnings"]
    assert doc["warnings"] == sorted(set(doc["warnings"]))
    assert capsys.readouterr().err == ""


def test_other_warnings_pass_through(tmp_path, monkeypatch):
    import warnings

    import curvkit.heat as heat_mod

    real = heat_mod.avg_mixing_time

    def noisy(sys_, eps):
        warnings.warn("overflow in exp", RuntimeWarning)
        return real(sys_, eps)

    monkeypatch.setattr(heat_mod, "avg_mixing_time", noisy)
    with pytest.warns(RuntimeWarning, match="overflow in exp"):
        code, doc = run_cli(tmp_path, "mixing", "--gen", "cycle:5")
    assert code == 0
    assert doc["warnings"] == []


def test_dgamma_early_stop_is_a_convergence_warning(tmp_path, monkeypatch):
    import curvkit.geometry as geo
    from curvkit.errors import ConvergenceWarning

    # a zero gap tolerance is never met: the barrier gives up at t > 1e16
    monkeypatch.setattr(geo, "GAP_TOL", 0.0)
    with pytest.warns(ConvergenceWarning, match="stopped early"):
        geo.d_gamma(hypercube(2), "00", "11")
    code, doc = run_cli(tmp_path, "dgamma", "--gen", "hypercube:2",
                        "--pair", "00,11")
    assert code == 0
    assert doc["warnings"] == ["d_gamma(00,11) stopped early; value is a lower bound"]


def _loaded_by_cli_import(modules, argv=None):
    """Which of `modules`, or of their submodules, a fresh interpreter has
    loaded after importing the CLI, and after running `argv` through it."""
    run = (f"sys.stdout = io.StringIO(); code = curvkit.cli.main({argv!r}); "
           f"sys.stdout = sys.__stdout__; " if argv else "code = 0; ")
    probe = (f"import io, sys, curvkit.cli; {run}"
             f"print(code, sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') "
             f"for p in {sorted(modules)!r})))")
    paths = [str(Path(curvkit.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, loaded = out.strip().split(" ", 1)
    assert code == "0"
    return loaded


def test_cli_import_defers_networkx_and_scipy_optimize():
    # only random_regular needs networkx and only the entropic descent needs
    # scipy.optimize; a fresh interpreter importing the CLI loads neither
    assert _loaded_by_cli_import({"networkx", "scipy.optimize"}) == "[]"


def test_cli_import_leaves_scipy_sparse_out():
    # chains are searched and d_Gamma is bounded without csgraph; importing
    # the CLI loads no scipy.sparse
    assert _loaded_by_cli_import({"scipy.sparse", "scipy.sparse.csgraph"}) == "[]"


def test_cli_import_leaves_every_scipy_module_out():
    # numpy is the one linear-algebra backend and only the entropic descent
    # imports scipy (scipy.optimize), on first use; importing the CLI loads
    # no scipy module
    assert _loaded_by_cli_import({"scipy"}) == "[]"


@pytest.mark.parametrize("argv", [
    ["gen", "cycle:6"],
    ["curv-vertex", "--gen", "cycle:6"],
    ["curv-measure", "--gen", "cycle:6"],
    ["spectrum", "--gen", "cycle:6"],
    ["optimal-sets", "--gen", "cycle:6"],
    ["heat", "--gen", "cycle:6"],
    ["mixing", "--gen", "cycle:6"],
    ["dgamma", "--gen", "cycle:6"],
    ["cheeger", "--gen", "cycle:6"],
    ["verify", "--gen", "cycle:6", "--k-ent", "0.1", "--suite", "geometry"],
], ids=lambda argv: argv[0])
def test_command_loads_no_scipy_or_networkx(argv):
    # only the entropic descent imports scipy and only random_regular
    # networkx, so a fresh interpreter running any other command loads
    # neither
    assert _loaded_by_cli_import({"networkx", "scipy"}, argv) == "[]"


@pytest.mark.parametrize("out", [False, True])
def test_report_text_is_the_canonical_json_dump(tmp_path, out):
    # the report is streamed chunk by chunk from the encoder; its text must
    # be json.dumps of the document itself, also for a report of many
    # records (hypercube:7 has 128 vertices)
    argv = ["curv-vertex", "--gen", "hypercube:7"]
    if out:
        path = tmp_path / "report.json"
        assert main(argv + ["--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        text = buf.getvalue()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_spectrum(tmp_path):
    code, doc = run_cli(tmp_path, "spectrum", "--gen", "cycle:4")
    assert code == 0
    assert doc["results"]["lambda1"] == pytest.approx(1.0, abs=1e-10)


def test_optimal_sets(tmp_path):
    code, doc = run_cli(tmp_path, "optimal-sets", "--gen", "cycle:6")
    assert code == 0
    facets = [tuple(f) for f in doc["results"]["facets"]]
    assert len(facets) == 6
    assert doc["results"]["dimension"] == 1


def test_heat_and_mixing(tmp_path):
    code, doc = run_cli(tmp_path, "heat", "--gen", "hypercube:2",
                        "--t-grid", "0.1,1.0", "--rho", "ones")
    assert code == 0
    assert doc["results"]["heat_kernel_bound"]["violations"] == 0
    code, doc = run_cli(tmp_path, "mixing", "--gen", "hypercube:1",
                        "--eps", "0.25")
    assert code == 0
    import math
    assert doc["results"]["tau_avg"] == pytest.approx(math.log(4) / 2, abs=1e-8)


def test_heat_at_overflowing_time(tmp_path, capsys):
    code, doc = run_cli(tmp_path, "heat", "--gen", "cycle:6",
                        "--t-grid", "1e300")
    rep = doc["results"]["heat_kernel_bound"]
    assert code == 0 and rep["violations"] == 0 and rep["witness"]
    assert isinstance(rep["worst_residual"], float)
    assert capsys.readouterr().err == ""


def test_heat_beyond_distance_170(tmp_path, capsys):
    # 171! overflows a float; the bound at distance 171 is evaluated in logs
    code, doc = run_cli(tmp_path, "heat", "--gen", "path:172", "--t-grid", "0.5,1e3")
    rep = doc["results"]["heat_kernel_bound"]
    assert code == 0 and rep["violations"] == 0
    assert np.isfinite(rep["worst_residual"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["mixing", "--gen", "cycle:6", "--eps", "nan"], "eps must be positive"),
    (["heat", "--gen", "cycle:6", "--t-grid", "inf"], "finite t, got inf"),
    (["heat", "--gen", "cycle:6", "--t-grid", "0.1,nan"], "finite t, got nan"),
])
def test_non_finite_heat_input_exit2(tmp_path, capsys, argv, message):
    code, doc = run_cli(tmp_path, *argv)
    assert (code, doc) == (2, None)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["curv-entropic", "--gen", "cycle:6", "--starts", "0"], "--starts"),
    (["verify", "--gen", "cycle:6", "--starts", "-1"], "--starts"),
    (["verify", "--gen", "cycle:6", "--suite", "heat", "--trials", "0",
      "--k-ent", "0"], "--trials"),
])
def test_counts_below_one_exit2_naming_the_flag(tmp_path, capsys, argv, flag):
    code, doc = run_cli(tmp_path, *argv)
    assert (code, doc) == (2, None)
    assert f"argument {flag}: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("k_ent", ["nan", "inf", "-inf"])
def test_non_finite_k_ent_exit2_naming_the_flag(tmp_path, capsys, k_ent):
    code, doc = run_cli(tmp_path, "verify", "--gen", "cycle:6", "--suite",
                        "geometry", f"--k-ent={k_ent}")
    assert (code, doc) == (2, None)
    assert f"argument --k-ent: must be finite, got {k_ent}" in capsys.readouterr().err


_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("argv, late_message", [
    (["spectrum"], "spectral gap needs at least two states"),
    (["verify", "--suite", "heat"], "gradient bound needs at least two states"),
    (["verify", "--suite", "all"], "gradient bound needs at least two states"),
    (["verify", "--suite", "geometry", "--k-ent", "1"],
     "spectral gap needs at least two states"),
] + [pytest.param([command], None, id=command)
     for command in sorted(set(_SUBCOMMANDS) - {"gen", "spectrum"})])
def test_one_state_exit2_without_traceback(tmp_path, capsys, argv, late_message):
    # a chain has at least two states: every command refuses one as it
    # loads it, to --out and to stdout alike, before a later stage (the
    # spectral gap, the gradient bound) can meet it
    one = tmp_path / "one.json"
    one.write_text('{"Q": [[1.0]]}')
    code, doc = run_cli(tmp_path, *argv, "--in", str(one))
    assert (code, doc) == (2, None)
    assert main([*argv, "--in", str(one)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a chain needs at least two states, got 1\n" * 2
    assert late_message is None or late_message not in err


def test_overflowing_chain_stats_make_a_complete_report(tmp_path, capsys):
    # pi_c is about 5e-310, so D_pi(c) = pi_b / pi_c overflows: chain_stats
    # is encoded like the results, and no partial report is written.  The
    # heat kernel's basis v / sqrt(pi) overflows there too: heat refuses
    # the chain (exit 3) instead of reading an infinite p_t, while mixing
    # reads pi(x) pi(y) p_t(x, y) from the orthonormal eigenvectors and
    # finds that the chain mixes at ln 2.  No warning escapes: the overflow
    # to "inf" is the value D_pi reports
    tsv = tmp_path / "over.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1e-309\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in ("spectrum", "dgamma", "cheeger"):
            code, doc = run_cli(tmp_path, command, "--in", str(tsv))
            assert code == 0 and doc["chain_stats"]["deg_pi_max"] == "inf"
        (tmp_path / "report.json").unlink()
        assert run_cli(tmp_path, "heat", "--t-grid", "0.1,1", "--in", str(tsv)) == (3, None)
        code, doc = run_cli(tmp_path, "mixing", "--eps", "0.25", "--in", str(tsv))
        assert code == 0
        assert doc["results"]["tau_avg"] == pytest.approx(math.log(2), abs=1e-9)
        capsys.readouterr()
        assert main(["spectrum", "--in", str(tsv)]) == 0
    assert caught == []
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["chain_stats"]["deg_pi_max"] == "inf"
    assert doc["results"]["lambda1"] == pytest.approx(1.0)


@pytest.mark.parametrize("spec", ["complete:2", "path:2", "hypercube:1"])
def test_verify_heat_on_the_sharp_two_state_chain_exit0(tmp_path, spec):
    # at dim = inf the gradient estimate's two sides cancel to rounding on
    # two states; the residual scale must not turn that into a violation
    code, doc = run_cli(tmp_path, "verify", "--gen", spec, "--suite", "heat",
                        "--starts", "1")
    assert code == 0 and doc["results"]["heat"]["holds"]
    grad = doc["results"]["heat"]["gradient_estimate"]
    assert grad["violations"] == 0 and abs(grad["worst_residual"]) < 1e-9


def test_dgamma_pair(tmp_path):
    code, doc = run_cli(tmp_path, "dgamma", "--gen", "hypercube:1",
                        "--pair", "0,1")
    assert code == 0
    import math
    assert doc["results"]["d_gamma"] == pytest.approx(math.sqrt(2), abs=1e-8)


def test_cheeger_cmd(tmp_path):
    code, doc = run_cli(tmp_path, "cheeger", "--gen", "hypercube:3")
    assert code == 0
    assert doc["results"]["h"] == pytest.approx(1 / 3, abs=1e-12)


def test_verify_hypercube2_exit0(tmp_path):
    code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:2",
                        "--suite", "all", "--seed", "1")
    assert code == 0
    assert doc["results"]["identities"]["holds"]
    assert doc["results"]["heat"]["holds"]
    for rep in doc["results"]["geometry"]:
        assert rep["holds"] in (True, None)
        for pre in rep["preconditions"]:
            assert pre["status"] in ("exact", "heuristic", "unmet")


def test_verify_exact_geometry_failure_exit4(tmp_path):
    argv = ("verify", "--gen", "hypercube:3", "--suite", "geometry",
            "--trials", "3")
    code, doc = run_cli(tmp_path, *argv, "--k-ent", "100")
    assert code == 4
    failed = {r["name"] for r in doc["results"]["geometry"]
              if r["holds"] is False}
    assert failed == {"diameter_ent_dgamma", "diameter_ent_d"}
    code, _ = run_cli(tmp_path, *argv, "--k-ent", "0.1")
    assert code == 0


def test_verify_heat_violation_exit4_with_report(tmp_path, monkeypatch):
    import curvkit.heat as heat_mod

    real = heat_mod.verify_gradient_estimate

    def one_violation(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.violations = 1
        return rep

    monkeypatch.setattr(heat_mod, "verify_gradient_estimate", one_violation)
    code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:2",
                        "--suite", "heat", "--k-ent", "0.5", "--trials", "3")
    assert code == 4
    assert doc["results"]["heat"]["holds"] is False
    assert doc["results"]["heat"]["gradient_estimate"]["violations"] == 1


def test_verify_linf_violation_fails_only_under_an_exact_k(tmp_path, monkeypatch):
    import curvkit.heat as heat_mod

    real = heat_mod.check_linf_gradient_bound

    def one_violation(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.violations = 1
        return rep

    monkeypatch.setattr(heat_mod, "check_linf_gradient_bound", one_violation)
    argv = ("verify", "--gen", "hypercube:2", "--suite", "heat", "--trials", "3")
    code, doc = run_cli(tmp_path, *argv, "--k-ent", "0.5")
    assert code == 4
    assert doc["results"]["heat"]["holds"] is False
    # a heuristic K >= 0 keeps the bound informative only
    code, doc = run_cli(tmp_path, *argv, "--starts", "1")
    assert code == 0
    assert doc["results"]["curvature_inputs"]["k_entropic_status"] == "heuristic"
    assert doc["results"]["heat"]["linf_gradient_bound"]["violations"] == 1
    assert doc["results"]["heat"]["holds"] is True


def test_verify_unconfirmed_vertex_curvature_exit3(tmp_path, capsys):
    # a 1e-10 middle edge: the degree coordinates confirm every vertex
    # curvature, so verify reports the global K; the d_Gamma diameter
    # refutes the entropic K of 0.1 it takes as exact, a failed bound
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\t1\nb\tc\t1e-10\nc\td\t1\n")
    code, doc = run_cli(tmp_path, "verify", "--in", str(edges), "--suite",
                        "all", "--k-ent", "0.1", "--trials", "3")
    assert code == 4
    ch = chain_from_edgelist(edges.read_text())
    assert doc["results"]["curvature_inputs"]["k_arithmetic_inf"] == min(
        bakry_emery_vertex(ch, s, np.inf).value for s in ch.states)
    failed = [r["name"] for r in doc["results"]["geometry"] if r["holds"] is False]
    assert failed == ["diameter_ent_dgamma"]
    # a pencil value the PSD test refuses still exits 3 with no report: the
    # density {a: 4, b: 4, d: 12} of a-b-c-d with weights 10, 1e-12, 10 at
    # dim 4, whose reduced K is 4e-7 above the exact one
    thin = tmp_path / "thin12.tsv"
    thin.write_text("a\tb\t10\nb\tc\t1e-12\nc\td\t10\n")
    (tmp_path / "report.json").unlink()
    capsys.readouterr()
    code, doc = run_cli(tmp_path, "curv-measure", "--in", str(thin), "--n", "4",
                        "--rho", '{"a": 4, "b": 4, "d": 12}')
    assert code == 3 and doc is None
    assert "disagree beyond 1e-08" in capsys.readouterr().err


def test_verify_identity_violation_exit4_with_report(tmp_path, monkeypatch):
    import curvkit.cli as cli

    real = cli.b_form
    monkeypatch.setattr(cli, "b_form", lambda *args: real(*args) + 1e-6)
    code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:2",
                        "--suite", "identities", "--k-ent", "0.1")
    assert code == 4
    assert doc["results"]["identities"]["holds"] is False


def test_verify_identities_computes_no_curvature(tmp_path, monkeypatch):
    import curvkit.curvature as curv

    def unread(*args, **kwargs):
        raise AssertionError("the identities suite reads no curvature")

    monkeypatch.setattr(curv, "bakry_emery_global", unread)
    monkeypatch.setattr(curv, "entropic_curvature_estimate", unread)
    code, doc = run_cli(tmp_path, "verify", "--gen", "cycle:8",
                        "--suite", "identities", "--seed", "1")
    assert code == 0
    assert "curvature_inputs" not in doc["results"]
    assert doc["results"]["identities"]["holds"]


def test_verify_runs_the_starts_it_records(tmp_path, monkeypatch):
    import curvkit.curvature as curv

    seen = []
    real = curv.entropic_curvature_estimate

    def recording(*args, **kwargs):
        seen.append(kwargs["starts"])
        return real(*args, **kwargs)

    monkeypatch.setattr(curv, "entropic_curvature_estimate", recording)
    code, doc = run_cli(tmp_path, "verify", "--gen", "cycle:6",
                        "--suite", "heat", "--starts", "17")
    assert code == 0
    assert seen == [17]
    assert doc["config"]["starts"] == 17


def test_verify_cheeger_l1_matches_library(tmp_path):
    code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:4",
                        "--suite", "geometry", "--k-ent", "0.5", "--seed", "1")
    assert code == 0
    entry = next(r for r in doc["results"]["geometry"]
                 if r["name"] == "cheeger_l1")
    lib = check_cheeger_l1(hypercube(4), trials=25, seed=1)
    assert entry == json.loads(_ENCODER.encode(_jsonable(lib)))
    # the indicator of the Cheeger minimizer is the worst trial: factor two
    assert entry["lhs"] == pytest.approx(0.0625, abs=1e-12)
    assert entry["rhs"] == pytest.approx(0.125, abs=1e-12)
    assert entry["details"]["trials"] == 26


def test_verify_geometry_with_concentrated_pi_exit0(tmp_path):
    # the chain starts within 1/4 of equilibrium: tau(1/4) = 0
    two = tmp_path / "two.json"
    two.write_text('{"Q": [[0.95, 0.05], [0.95, 0.05]], "pi": [0.95, 0.05]}')
    code, doc = run_cli(tmp_path, "verify", "--in", str(two),
                        "--suite", "geometry", "--k-ent", "0.5")
    assert code == 0
    tau = [r for r in doc["results"]["geometry"]
           if r["name"] == "lambda1_tau_avg"]
    assert tau[0]["details"]["tau"] == 0.0


def _birth_death(e):
    """Four-state birth-death chain with pi proportional to r^x,
    r = 10^(e/3), so that pi_max / pi_min = 10^e."""
    r = 10.0 ** (e / 3.0)
    p = r / (1.0 + r)
    q = np.zeros((4, 4))
    for x in range(3):
        q[x, x + 1], q[x + 1, x] = p, 1.0 - p
    q += np.diag(1.0 - q.sum(axis=1))
    pi = r ** np.arange(4.0)
    return {"Q": q.tolist(), "pi": (pi / pi.sum()).tolist()}


@pytest.mark.parametrize("e", [6, 12])
def test_skewed_chain_gives_the_right_number_or_exit3(tmp_path, capsys, e):
    # each command reports the right number, or a numerical failure with
    # no report; none rejects the valid chain as bad input
    doc = _birth_death(e)
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(doc))
    ch = chain_from_json(doc)

    def run(*argv):
        capsys.readouterr()
        code = main([argv[0], "--in", str(path), *argv[1:]])
        out = capsys.readouterr().out
        assert code in (0, 3, 4)
        if code == 3:
            assert out == ""
        return code, json.loads(out) if out else None

    q, pi = np.array(doc["Q"]), np.array(doc["pi"])
    sqrt_pi = np.sqrt(pi)
    sym = (np.eye(4) - q) * (sqrt_pi[:, None] / sqrt_pi[None, :])
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.T))[1]

    code, rep = run("spectrum")
    assert code == 0
    assert rep["results"]["lambda1"] == pytest.approx(lam, abs=1e-12)
    code, rep = run("cheeger")
    assert code == 0
    assert rep["results"]["h"] == pytest.approx(cheeger_gray(ch).h, abs=1e-12)
    code, rep = run("curv-measure", "--mean", "logarithmic", "--rho", "ones")
    assert code in (0, 3)
    if code == 0:
        assert rep["results"]["curvature"]["value"] == pytest.approx(lam, abs=1e-8)
    code, rep = run("curv-vertex")
    assert code in (0, 3)
    if code == 0:
        for state in ch.states:
            full = curvature_of_measure(ch, ARITHMETIC, dirac(ch, state),
                                        np.inf, confirm=False).value
            value = rep["results"]["per_vertex"][str(state)]["value"]
            assert value == pytest.approx(full, abs=1e-8)
    code, _ = run("verify", "--suite", "all", "--starts", "1")
    assert code in (0, 3, 4)


def test_verify_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--gen", "cycle:5", "--suite", "geometry",
                 "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify", "--gen", "cycle:5", "--suite", "geometry",
                 "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_input_exit2(tmp_path):
    code, _ = run_cli(tmp_path, "curv-vertex", "--gen", "moebius:7")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"Q": [[0.4, 0.5], [0.5, 0.5]]}')
    code2 = main(["curv-vertex", "--in", str(bad)])
    assert code2 == 2
    code3 = main(["curv-vertex", "--in", str(tmp_path / "missing.json")])
    assert code3 == 2


def test_env_seed_override(tmp_path, monkeypatch):
    # the environment is read on every call, not once per process
    for seed in (123, 45):
        monkeypatch.setenv("CURVKIT_SEED", str(seed))
        code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:1",
                            "--suite", "identities")
        assert code == 0
        assert doc["config"]["seed"] == seed
    code, doc = run_cli(tmp_path, "verify", "--gen", "hypercube:1",
                        "--suite", "identities", "--seed", "7")
    assert doc["config"]["seed"] == 7


def test_in_reads_a_gen_report(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    assert main(["gen", "hypercube:3", "--out", str(cube)]) == 0
    argv = ["curv-measure", "--mean", "logarithmic", "--n-grid", "inf,8,4"]
    capsys.readouterr()
    assert main(argv + ["--in", str(cube)]) == 0
    from_report = capsys.readouterr().out
    assert main(argv + ["--gen", "hypercube:3"]) == 0
    assert from_report == capsys.readouterr().out


def test_in_rejects_other_reports(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.json"
    assert main(["spectrum", "--gen", "cycle:4", "--out", str(spectrum)]) == 0
    code, doc = run_cli(tmp_path, "spectrum", "--in", str(spectrum))
    assert code == 2 and doc is None
    assert "spectrum report" in capsys.readouterr().err


def test_in_rejects_a_report_of_another_schema(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"schema": "curvkit-report/1",
                               "config": {"command": "gen"},
                               "results": {"chain": {"Q": [[0.5, 0.5], [0.5, 0.5]]}}}))
    code, doc = run_cli(tmp_path, "curv-measure", "--in", str(old))
    assert code == 2 and doc is None
    assert capsys.readouterr().err == (
        f"error: --in reads {SCHEMA} reports, got curvkit-report/1\n")


_Q2 = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("doc", [
    ["Q"],
    {"Q": _Q2, "states": 3},
    {"Q": _Q2, "pi": {"a": 1}},
    {"schema": SCHEMA, "config": [], "results": {}},
    {"schema": SCHEMA, "config": {"command": "gen"}, "results": {}},
], ids=["list", "states-int", "pi-object", "config-list", "gen-no-chain"])
def test_malformed_in_document_is_bad_input(tmp_path, capsys, doc):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(tmp_path, "spectrum", "--in", str(path))
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("doc, entry", [
    ({"Q": [[{}]]}, '"Q"[0][0] = {}'),
    ({"Q": _Q2, "pi": [{}, 1]}, '"pi"[0] = {}'),
], ids=["q-object-entry", "pi-object-entry"])
def test_non_numeric_chain_entry_is_bad_input(tmp_path, capsys, doc, entry):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(tmp_path, "spectrum", "--in", str(path))
    assert code == 2 and report is None
    assert f"chain JSON {entry} is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("text, entry", [
    ('{"Q": [[NaN, 1.0], [1.0, 0.0]]}', "Q[0,0] = nan is not finite"),
    ('{"Q": [[0, 1], [1, 0]], "pi": [NaN, 0.5]}', "pi[0] = nan is not finite"),
], ids=["nan-q", "nan-pi"])
def test_non_finite_chain_entry_is_bad_input(tmp_path, text, entry):
    # a fresh interpreter, so that anything LAPACK prints to the process's
    # stdout shows up too
    path = tmp_path / "chain.json"
    path.write_text(text)
    paths = [str(Path(curvkit.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-m", "curvkit.cli", "spectrum",
                           "--in", str(path)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert entry in proc.stderr


def test_non_numeric_rho_entry_is_bad_input(tmp_path, capsys):
    code, report = run_cli(tmp_path, "curv-measure", "--gen", "cycle:4",
                           "--rho", '{"0": [1]}')
    assert code == 2 and report is None
    assert "rho['0'] = [1] is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["00", "00,11,01"])
def test_dgamma_pair_takes_two_states(tmp_path, capsys, pair):
    code, report = run_cli(tmp_path, "dgamma", "--gen", "hypercube:2",
                           "--pair", pair)
    assert code == 2 and report is None
    assert "--pair takes two states X,Y" in capsys.readouterr().err


def test_tsv_input(tmp_path):
    tsv = tmp_path / "chain.tsv"
    tsv.write_text("a\tb\t1.0\nb\tc\t1.0\n")
    code, doc = run_cli(tmp_path, "spectrum", "--in", str(tsv))
    assert code == 0
    assert doc["chain_stats"]["n_states"] == 3


def _geometry_names(doc):
    return {rep["name"] for rep in doc["results"]["geometry"]}


def test_verify_skips_cheeger_checks_only_when_too_large(tmp_path, monkeypatch):
    import curvkit.geometry as geo
    from curvkit.errors import TooLarge

    argv = ("verify", "--gen", "cycle:5", "--suite", "geometry",
            "--starts", "1", "--trials", "3")
    code, full = run_cli(tmp_path, *argv)
    assert code == 0 and "cheeger_l1" in _geometry_names(full)

    def too_large(chain):
        raise TooLarge("size guard")

    monkeypatch.setattr(geo, "cheeger", too_large)
    code, doc = run_cli(tmp_path, *argv)
    assert code == 0
    assert "cheeger_l1" not in _geometry_names(doc)
    assert _geometry_names(doc) < _geometry_names(full)


def test_verify_propagates_other_cheeger_errors(tmp_path, monkeypatch):
    import curvkit.geometry as geo

    def broken(chain):
        raise RuntimeError("bug in cheeger")

    monkeypatch.setattr(geo, "cheeger", broken)
    with pytest.raises(RuntimeError, match="bug in cheeger"):
        run_cli(tmp_path, "verify", "--gen", "cycle:5", "--suite", "geometry",
                "--starts", "1", "--trials", "3")


def test_mixing_non_monotone_trace_exit3(tmp_path, monkeypatch):
    import math

    import curvkit.heat as heat_mod

    # the distance rises between t = 1 and t = 2
    monkeypatch.setattr(heat_mod, "l1_distance_from_equilibrium",
                        lambda ch, t: math.exp(-t) + (0.5 if 2 <= t < 4 else 0.0))
    code, doc = run_cli(tmp_path, "mixing", "--gen", "cycle:5", "--eps", "0.25")
    assert code == 3 and doc is None


def test_jobs_flag_removed(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", "--gen", "cycle:5", "--jobs", "2")
    assert code == 2
