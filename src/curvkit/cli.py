"""Command-line front end.

`main` is the one path from argv to report.  It loads the chain (a chain
JSON, a `gen` report, a TSV edge list or a generator spec) and runs the
subcommand's handler, a function (chain, args) -> (config, results) that
does no I/O but its own --csv file.
It then streams a JSON report (schema "curvkit-report/2") whose "warnings"
lists every library `UserWarning` the handler raised.  Reports are
deterministic for a fixed (config, seed): no timestamps, sorted keys.
A curvature record is {value, bracket, iterations, null_dim, witness}:
a finite value and bracket, the witness an object {state: value} over its
nonzero entries.  A density with no positive entry is refused where it
enters (exit 2).  `--in` reads gen reports of this schema only.

Exit codes: 0 success; 2 invalid input; 3 numerical failure (neither writes
a report); 4 the report shows a failed `verify` suite (see `_failed`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import chain as chain_mod
from . import curvature as curv
from . import geometry as geo
from . import heat as heat_mod
from . import optimal as opt
from .gamma import (a_form, b_form, dirac, equilibrium, func_inner,
                    check_geometric_green, gamma2_rho, gamma_rho)
from .errors import CurvkitError, InvalidParameters, NumericalFailure, TooLarge
from .means import BUILTIN_MEANS

SCHEMA = "curvkit-report/2"

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY_FAILED = 4


def _load_chain(args) -> chain_mod.MarkovChain:
    if args.gen:
        return chain_mod.generate(args.gen, seed=args.seed)
    path = args.infile
    if not path:
        raise CurvkitError("either --gen or --in is required")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith((".tsv", ".txt")):
        return chain_mod.chain_from_edgelist(text)
    doc = json.loads(text)
    if isinstance(doc, dict) and "schema" in doc:
        if doc["schema"] != SCHEMA:
            raise CurvkitError(f"--in reads {SCHEMA} reports, got {doc['schema']}")
        config, results = doc.get("config"), doc.get("results")
        if not isinstance(config, dict):
            raise InvalidParameters('the report has no "config" object')
        command = config.get("command")
        if command != "gen":
            raise CurvkitError(f"--in takes a chain or a gen report, not a "
                               f"{command} report")
        if not isinstance(results, dict) or "chain" not in results:
            raise InvalidParameters("the gen report has no results.chain")
        doc = results["chain"]
    return chain_mod.chain_from_json(doc)


def _count(text: str) -> int:
    """argparse type of --starts and --trials: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite(text: str) -> float:
    """argparse type of --k-ent: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_rho(chain, spec: str) -> np.ndarray:
    """Density input: 'ones', 'uniform', 'dirac:STATE', inline JSON object
    keyed by state id, or a path to such a JSON file."""
    if spec == "ones":
        return equilibrium(chain)
    if spec == "uniform":
        return (1.0 / chain.n_states) / chain.pi
    if spec.startswith("dirac:"):
        return dirac(chain, spec.split(":", 1)[1])
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.loads(spec)
    if not isinstance(doc, dict):
        raise CurvkitError("rho JSON must map state ids to values")
    rho = np.zeros(chain.n_states)
    for state, value in doc.items():
        i = chain.index(state)
        try:
            rho[i] = float(value)
        except (TypeError, ValueError):
            raise InvalidParameters(
                f"rho[{state!r}] = {value!r} is not a number") from None
    return rho


def _chain_stats_doc(chain) -> dict:
    st = chain.stats()
    return {
        "n_states": chain.n_states,
        "q_min": st.q_min,
        "pi_min": st.pi_min,
        "pi_max": st.pi_max,
        "deg_weighted_max": st.deg_weighted_max,
        "deg_pi_max": st.deg_pi_max,
    }


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if type(obj) is float:          # not np.float64, which goes through item()
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


def _emit(args, config: dict, chain, results: dict, warnings_list: list[str]) -> None:
    report = {
        "schema": SCHEMA,
        "config": _jsonable(config),
        "chain_stats": _jsonable(_chain_stats_doc(chain)),
        "results": _jsonable(results),
        "warnings": warnings_list,
    }
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(_ENCODER.iterencode(report))
        fh.write("\n")


def _curv_result_doc(chain, res: curv.CurvatureResult) -> dict:
    """A curvature record.  The witness keeps the entries that are not +0.0
    (a -0.0 stays), so setting them in a vector of zeros rebuilds it bit
    for bit."""
    f = res.witness
    support = np.flatnonzero((f != 0) | np.signbit(f))
    return {
        "value": res.value,
        "bracket": res.bracket,
        "iterations": res.iterations,
        "null_dim": res.null_dim,
        "witness": {chain.states[i]: v for i, v in zip(support, f[support].tolist())},
    }


def _failed(results: dict) -> bool:
    """A `verify` suite failed: the identities or the heat suite, or a
    geometry inequality whose preconditions are all exact."""
    return (results.get("identities", {}).get("holds") is False
            or results.get("heat", {}).get("holds") is False
            or any(r.holds is False
                   and all(p["status"] == "exact" for p in r.preconditions)
                   for r in results.get("geometry", ())))


# -- subcommand handlers: (chain, args) -> (config, results) ---------------

def _cmd_gen(chain, args):
    return {"spec": args.gen}, {"chain": chain_mod.chain_to_json(chain)}


def _cmd_curv_vertex(chain, args):
    # each result becomes its record at once, so no two full-length
    # witnesses are held together
    dim = float(args.n)
    per_vertex, k_min = {}, math.inf
    for state in chain.states:
        res = curv.bakry_emery_vertex(chain, state, dim)
        per_vertex[state] = _curv_result_doc(chain, res)
        k_min = min(k_min, res.value)
    return ({"n": args.n, "mean": "arithmetic"},
            {"per_vertex": per_vertex, "k_global": k_min})


def _cmd_curv_measure(chain, args):
    if args.csv and not args.n_grid:
        raise InvalidParameters("--csv writes the --n-grid profile; give --n-grid too")
    rho = _parse_rho(chain, args.rho)
    # the --n record first: a bad --n writes no CSV
    res = curv.curvature_of_measure(chain, args.mean, rho, float(args.n))
    results = {"curvature": _curv_result_doc(chain, res)}
    if args.n_grid:
        grid = [float(tok) for tok in args.n_grid.split(",")]
        prof = curv.curvature_profile(chain, args.mean, rho, grid)
        results["profile"] = {"points": prof.points,
                              "midpoint_concave": prof.midpoint_concave}
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("inv_dim,curvature\n")
                for s, k in prof.points:
                    fh.write(f"{s!r},{k!r}\n")
    return {"n": args.n, "mean": args.mean, "rho": args.rho}, results


def _cmd_curv_entropic(chain, args):
    est = curv.entropic_curvature_estimate(
        chain, float(args.n), starts=args.starts, seed=args.seed)
    return ({"n": args.n, "starts": args.starts},
            {"k_hat": est.k_hat,
             "rho_star": est.rho_star,
             "per_start": [{"k": k, "converged": c} for k, c in est.per_start],
             "certified_nonnegative": est.certified_nonnegative,
             "note": "k_hat is an upper bound on the chain curvature; "
                     "the global infimum is not certified"})


def _cmd_spectrum(chain, args):
    return {}, {"eigenvalues": heat_mod.spectral_decompose(chain).eigenvalues,
                "lambda1": heat_mod.lambda1(chain)}


def _cmd_optimal_sets(chain, args):
    cx = opt.optimal_complex(chain, float(args.n))
    return ({"n": args.n},
            {"facets": [sorted(f) for f in cx.facets],
             "dimension": cx.dimension,
             "zero_cells": sorted(cx.zero_cells)})


def _cmd_heat(chain, args):
    t_grid = [float(tok) for tok in args.t_grid.split(",")]
    rep = heat_mod.check_heat_kernel_bound(chain, tuple(t_grid))
    results = {"heat_kernel_bound": rep}
    if args.rho:
        rho = _parse_rho(chain, args.rho)
        results["p_t_rho"] = {repr(t): heat_mod.heat_apply(chain, t, rho)
                              for t in t_grid}
    return {"t_grid": args.t_grid, "rho": args.rho}, results


def _cmd_mixing(chain, args):
    return {"eps": args.eps}, {"tau_avg": heat_mod.avg_mixing_time(chain, args.eps)}


def _cmd_dgamma(chain, args):
    results = {}
    if args.pair:
        pair = args.pair.split(",")
        if len(pair) != 2:
            raise InvalidParameters(
                f"--pair takes two states X,Y, got {args.pair!r}")
        u, v = pair
        results["d_gamma"] = geo.d_gamma(chain, u, v)
    else:
        results["diam_gamma"] = geo.diam_gamma(chain)
        results["diam_combinatorial"] = geo.diam_combinatorial(chain)
    return {"pair": args.pair}, results


def _cmd_cheeger(chain, args):
    res = geo.cheeger(chain)
    return {}, {"h": res.h, "argmin_subset": sorted(res.subset)}


def _cmd_verify(chain, args):
    """Inequality suites."""
    results = {}
    suite = args.suite

    if suite != "identities":
        k_arith, _ = curv.bakry_emery_global(chain, math.inf)
        if args.k_ent is not None:
            k_ent, ent_status = args.k_ent, "exact"
        else:
            est = curv.entropic_curvature_estimate(chain, math.inf,
                                                   starts=args.starts,
                                                   seed=args.seed)
            k_ent, ent_status = est.k_hat, "heuristic"
        nonneg_status = (ent_status if k_ent >= -curv.NONNEG_TOL else "unmet")
        results["curvature_inputs"] = {
            "k_arithmetic_inf": k_arith,
            "k_entropic": k_ent,
            "k_entropic_status": ent_status,
        }

    if suite in ("identities", "all"):
        rng = np.random.default_rng(args.seed)
        rho = heat_mod._random_density(chain, rng)
        worst_a = worst_b = 0.0
        for _ in range(args.trials):
            f = rng.standard_normal(chain.n_states)
            for mean in BUILTIN_MEANS.values():
                av = a_form(chain, mean, rho, f)
                bv = b_form(chain, mean, rho, f)
                g1 = func_inner(chain, rho, gamma_rho(chain, mean, rho, f))
                g2 = func_inner(chain, rho, gamma2_rho(chain, mean, rho, f))
                worst_a = max(worst_a, abs(av - g1) / max(1.0, abs(g1)))
                worst_b = max(worst_b, abs(bv - g2) / max(1.0, abs(g2)))
        green = check_geometric_green(chain, rho, trials=8, seed=args.seed)
        results["identities"] = {
            "a_form_residual": worst_a,
            "b_form_residual": worst_b,
            "geometric_green_residual": green["geometric"],
            "holds": bool(worst_a <= 1e-11 and worst_b <= 1e-11
                          and green["geometric"] <= 1e-11),
        }

    if suite in ("heat", "all"):
        grad = heat_mod.verify_gradient_estimate(
            chain, "arithmetic", k_arith, math.inf, trials=args.trials,
            seed=args.seed)
        rp = heat_mod.verify_reverse_poincare(
            chain, "arithmetic", k_arith, math.inf, trials=args.trials,
            seed=args.seed)
        hk = heat_mod.check_heat_kernel_bound(chain)
        results["heat"] = heat = {"gradient_estimate": grad,
                                  "reverse_poincare": rp,
                                  "heat_kernel_bound": hk}
        binding = [grad, rp, hk]
        if k_ent >= -curv.NONNEG_TOL:
            linf = heat_mod.check_linf_gradient_bound(
                chain, trials=args.trials, seed=args.seed,
                curvature_status=nonneg_status)
            heat["linf_gradient_bound"] = linf
            if nonneg_status == "exact":
                # under a heuristic K >= 0 the bound stays informative only
                binding.append(linf)
        heat["holds"] = not any(r.violations for r in binding)

    if suite in ("geometry", "all"):
        reports = results["geometry"] = []
        try:
            reports.append(geo.check_cheeger_l1(chain, trials=args.trials,
                                                seed=args.seed))
            reports.append(geo.check_buser(chain, nonneg_status))
        except TooLarge:
            pass
        reports.append(geo.check_tau_lower_bound(chain))
        reports.append(geo.check_lambda_tau(chain, nonneg_status))
        reports.extend(geo.check_expander_bounds(chain, nonneg_status))
        reports.extend(geo.check_diameter_bound_ent(chain, k_ent, ent_status))
        reports.extend(geo.check_diameter_bound_finite_n(chain,
                                                         2.0 * chain.n_states))

    return ({"suite": suite, "trials": args.trials, "k_ent": args.k_ent,
             "starts": args.starts}, results)


def _add_common(p, with_input=True):
    if with_input:
        src = p.add_mutually_exclusive_group()
        src.add_argument("--gen", help="generator spec, e.g. hypercube:3")
        src.add_argument("--in", dest="infile", help="chain JSON, gen report or edge-list TSV")
    p.add_argument("--seed", type=int,
                   help="random seed (env CURVKIT_SEED overrides the default)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvkit",
        description="curvature toolkit for finite reversible Markov chains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated chain as JSON")
    p.add_argument("gen", metavar="spec",
                   help="hypercube:N | cycle:n | complete:n | path:n "
                        "| random-regular:d:n[:seed]")
    _add_common(p, with_input=False)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("curv-vertex", help="vertex curvature at every state")
    p.add_argument("--n", default="inf", help='dimension ("inf" or positive float)')
    _add_common(p)
    p.set_defaults(fn=_cmd_curv_vertex)

    p = sub.add_parser("curv-measure", help="curvature of a density")
    p.add_argument("--n", default="inf")
    p.add_argument("--mean", default="arithmetic", choices=sorted(BUILTIN_MEANS))
    p.add_argument("--rho", default="ones",
                   help='"ones", "uniform", "dirac:STATE", JSON object, or file')
    p.add_argument("--n-grid", help="comma list of dimensions for a profile")
    p.add_argument("--csv", help="flatten the profile to CSV")
    _add_common(p)
    p.set_defaults(fn=_cmd_curv_measure)

    p = sub.add_parser("curv-entropic", help="multi-start entropic estimate")
    p.add_argument("--n", default="inf")
    p.add_argument("--starts", type=_count, default=32)
    _add_common(p)
    p.set_defaults(fn=_cmd_curv_entropic)

    p = sub.add_parser("spectrum", help="eigenvalues of minus the Laplacian")
    _add_common(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("optimal-sets", help="maximal optimal sets")
    p.add_argument("--n", default="inf")
    _add_common(p)
    p.set_defaults(fn=_cmd_optimal_sets)

    p = sub.add_parser("heat", help="heat kernel diagnostics")
    p.add_argument("--t-grid", default="0.1,0.5,1.0,2.0")
    p.add_argument("--rho", help="optional density to evolve")
    _add_common(p)
    p.set_defaults(fn=_cmd_heat)

    p = sub.add_parser("mixing", help="average mixing time")
    p.add_argument("--eps", type=float, default=0.25)
    _add_common(p)
    p.set_defaults(fn=_cmd_mixing)

    p = sub.add_parser("dgamma", help="intrinsic metric")
    p.add_argument("--pair", help="comma pair of states; omit for the diameter")
    _add_common(p)
    p.set_defaults(fn=_cmd_dgamma)

    p = sub.add_parser("cheeger", help="exact Cheeger constant")
    _add_common(p)
    p.set_defaults(fn=_cmd_cheeger)

    p = sub.add_parser("verify", help="inequality suites")
    p.add_argument("--suite", default="all",
                   choices=["identities", "heat", "geometry", "all"])
    p.add_argument("--trials", type=_count, default=25)
    p.add_argument("--starts", type=_count, default=8,
                   help="optimizer starts for the entropic curvature input")
    p.add_argument("--k-ent", type=_finite, default=None,
                   help="known entropic curvature bound (treated as exact)")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        if args.seed is None:
            args.seed = int(os.environ.get("CURVKIT_SEED", "0"))
        chain = _load_chain(args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            config, results = args.fn(chain, args)
        library = set()
        for w in caught:
            if issubclass(w.category, UserWarning):
                library.add(str(w.message))
            else:   # numpy's RuntimeWarnings and the like pass through
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        config.update(command=args.command, seed=args.seed)
        _emit(args, config, chain, results, sorted(library))
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CurvkitError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_VERIFY_FAILED if _failed(results) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
