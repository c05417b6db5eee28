"""Command-line surface.

Subcommands: pmf, table, moments, roots, verify, sample, bench.
Probabilities are accepted as decimal or fraction strings everywhere; exact
mode (the default for analytic subcommands) keeps every value a reduced
rational.  Exit codes: 0 success, 1 a verification check failed, 2 bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from fractions import Fraction

from . import bench as bench_mod
from . import moments as moments_mod
from . import roots as roots_mod
from . import simulate as sim_mod
from . import verify as verify_mod
from .numerics import (DomainError, GeomkError, Mode, ModeError, ParseError,
                       PrecisionWarning, coerce, parse_scalar)
from .params import make_params
from .pmf import Engine, _json_scalar, _render, build_table
from .pmf import pmf as pmf_eval

ENGINE_CHOICES = [e.value for e in Engine]


@contextlib.contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _add_common(parser, default_mode="exact", formats=("text", "json", "csv"),
                default_format="text"):
    parser.add_argument("--p", required=True,
                        help="success probability, decimal or fraction (e.g. 0.5 or 1/2)")
    parser.add_argument("--k", required=True, type=int, help="run length (>= 1)")
    parser.add_argument("--mode", choices=["float", "exact"], default=default_mode)
    parser.add_argument("--format", choices=list(formats), default=default_format)
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")


def _params_from(args):
    mode = Mode(args.mode)
    try:
        p = coerce(parse_scalar(args.p, mode), mode)
    except ParseError as exc:
        raise ParseError(f"--p: {exc}") from None
    if args.k < 1:
        raise DomainError(f"--k: must be a positive integer, got {args.k}")
    try:
        return make_params(p, args.k)
    except DomainError as exc:
        raise DomainError(f"--p: {exc}") from None


def _engine_from(args, mode):
    engine = Engine(args.engine)
    if mode is Mode.EXACT and engine is Engine.ROOT_SUM:
        raise ModeError(
            "--engine rootsum is float-only; rerun with --mode float or pick "
            "recurrence, muselli or closedform")
    return engine


def cmd_pmf(args):
    params = _params_from(args)
    engine = _engine_from(args, params.mode)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PrecisionWarning)
        value = pmf_eval(params, args.n, engine)
    degraded = any(issubclass(w.category, PrecisionWarning) for w in caught)
    payload = {"p": str(params.p), "k": params.k, "n": args.n,
               "engine": engine.value, "mode": params.mode.value,
               "value": _json_scalar(value), "decimal": float(value),
               "precision_degraded": degraded}
    with _out_stream(args.out) as out:
        if args.format == "json":
            json.dump(payload, out, indent=2)
            out.write("\n")
        elif args.format == "csv":
            out.write("n,f\n")
            out.write(f"{args.n},{_render(value)}\n")
        else:
            out.write(f"{_render(value)}\n")
            if isinstance(value, Fraction):
                out.write(f"decimal: {float(value)!r}\n")
            out.write(f"engine: {engine.value}, mode: {params.mode.value}\n")
            if degraded:
                out.write("note: precision degraded (heavy cancellation in "
                          "this formula at these arguments)\n")
    return 0


def cmd_table(args):
    params = _params_from(args)
    engine = _engine_from(args, params.mode)
    table = build_table(params, engine, args.n_max)
    with _out_stream(args.out) as out:
        if args.format == "json":
            table.to_json(out)
        elif args.format == "csv":
            table.to_csv(out)
        else:
            out.write(f"pmf table for p={params.p}, k={params.k} "
                      f"(engine={engine.value}, mode={params.mode.value})\n")
            for n, f, c in table.rows():
                out.write(f"  n={n:<5d} f={_render(f):<24} "
                          f"cumulative={_render(c)}\n")
            if table.tail_bound is not None:
                out.write(f"  tail bound beyond n_max: {table.tail_bound!r}\n")
    return 0


def cmd_moments(args):
    params = _params_from(args)
    engine = _engine_from(args, params.mode)
    report = moments_mod.moment_report(params, args.r_max, engine)
    with _out_stream(args.out) as out:
        if args.format == "json":
            json.dump(report.to_dict(), out, indent=2)
            out.write("\n")
        elif args.format == "csv":
            out.write("r,factorial,raw,central\n")
            for r in range(1, report.r_max + 1):
                central = "" if r < 2 else _render(report.central[r - 2])
                out.write(f"{r},{_render(report.factorial[r - 1])},"
                          f"{_render(report.raw[r - 1])},{central}\n")
        else:
            out.write(report.to_text() + "\n")
    return 0


def cmd_roots(args):
    if args.mode == "exact":
        raise ModeError("roots are solved in float mode only; use --mode float")
    params = _params_from(args)
    root_set = roots_mod.find_roots(params)
    cert = roots_mod.certify_roots(root_set, params)
    payload = {"p": str(params.p), "k": params.k,
               "roots": [{"re": z.real, "im": z.imag} for z in root_set.roots],
               "principal_index": root_set.principal_index}
    payload.update(cert.to_dict())
    with _out_stream(args.out) as out:
        if args.format == "csv":
            out.write("index,re,im,identity_residual\n")
            for i, z in enumerate(root_set.roots):
                out.write(f"{i},{z.real!r},{z.imag!r},"
                          f"{cert.identity_residuals[i]!r}\n")
        elif args.format == "text":
            out.write(f"roots for p={params.p}, k={params.k} "
                      f"(degenerate={cert.degenerate})\n")
            for i, z in enumerate(root_set.roots):
                tag = " (principal)" if i == root_set.principal_index else ""
                out.write(f"  {z.real:+.15f} {z.imag:+.15f}i{tag}\n")
            out.write(f"  certification: {'PASS' if cert.passed else 'FAIL'}\n")
        else:
            json.dump(payload, out, indent=2)
            out.write("\n")
    return 0 if cert.passed else 1


def cmd_verify(args):
    mode = Mode(args.mode)
    if args.p_grid:
        p_values = []
        for token in args.p_grid.split(","):
            p_values.append(coerce(parse_scalar(token.strip(), mode), mode))
    else:
        p_values = [coerce(p, mode) for p in verify_mod.DEFAULT_P_GRID]
    report = verify_mod.run_verify(p_values, args.k_max, args.n_max,
                                   args.r_max, mode,
                                   corrupt_engine=args.corrupt_engine)
    with _out_stream(args.out) as out:
        if args.format == "text":
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                out.write(f"{status} {check.name} ({check.cases} cases)\n")
                for failure in check.failures[:3]:
                    out.write(f"     failed at {failure}\n")
            out.write(f"{'PASS' if report.passed else 'FAIL'} overall\n")
        else:
            report.to_json(out)
    return 0 if report.passed else 1


def _or_na(value, spec=""):
    """`value` formatted by `spec`; n/a when too few trials completed."""
    return "n/a" if value is None else format(value, spec)


def cmd_sample(args):
    params = _params_from(args)
    config = sim_mod.SimConfig(params=params, trials=args.trials,
                               seed=args.seed,
                               max_steps_per_trial=args.max_steps)
    summary = sim_mod.run_simulation(config)
    gof = sim_mod.gof_report(summary, params)
    with _out_stream(args.out) as out:
        if args.format == "csv":
            summary.histogram_csv(out)
        elif args.format == "text":
            out.write(f"simulated {summary.trials} trials at p={params.p}, "
                      f"k={params.k} (seed={config.seed})\n")
            out.write(f"  sample mean     = {summary.sample_mean}\n")
            out.write(f"  sample variance = {_or_na(summary.sample_variance)}\n")
            out.write(f"  truncated       = {summary.truncated_count}\n")
            out.write(f"  chi-square p    = {gof.p_value:.6f}"
                      f"{' [flagged]' if gof.flagged else ''}\n")
            out.write(f"  mean z, var z   = {_or_na(gof.mean_z, '.3f')}, "
                      f"{_or_na(gof.variance_z, '.3f')}\n")
        else:
            json.dump({"summary": summary.to_dict(), "gof": gof.to_dict()},
                      out, indent=2)
            out.write("\n")
    return 1 if gof.hard_fail else 0


def cmd_bench(args):
    if args.mode == "exact":
        raise ModeError("benchmarks run in float mode only; use --mode float")
    params = _params_from(args)
    engines = [Engine(token.strip()) for token in args.engines.split(",")]
    rows = bench_mod.run_benchmarks(params, args.n_max, engines)
    with _out_stream(args.out) as out:
        if args.format == "json":
            bench_mod.rows_to_json(params, rows, out)
        elif args.format == "csv":
            out.write("engine,setup_seconds,eval_seconds,max_abs_deviation,n_max\n")
            for r in rows:
                out.write(f"{r.engine},{r.setup_seconds!r},{r.eval_seconds!r},"
                          f"{r.max_abs_deviation!r},{r.n_max}\n")
        else:
            out.write(bench_mod.rows_to_text(params, rows) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geomk",
        description="waiting-time distribution for a run of k successes: "
                    "pmf engines, moments, roots, verification, simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="evaluate f(n) with one engine")
    _add_common(p_pmf)
    p_pmf.add_argument("--n", required=True, type=int)
    p_pmf.add_argument("--engine", choices=ENGINE_CHOICES, default="recurrence")
    p_pmf.set_defaults(func=cmd_pmf)

    p_table = sub.add_parser("table", help="tabulate f(0..n_max) with cumulative sums")
    _add_common(p_table)
    p_table.add_argument("--n-max", required=True, type=int, dest="n_max")
    p_table.add_argument("--engine", choices=ENGINE_CHOICES, default="recurrence")
    p_table.set_defaults(func=cmd_table)

    p_mom = sub.add_parser("moments", help="factorial/raw/central moments")
    _add_common(p_mom)
    p_mom.add_argument("--r-max", type=int, default=4, dest="r_max")
    p_mom.add_argument("--engine", choices=ENGINE_CHOICES, default="recurrence")
    p_mom.set_defaults(func=cmd_moments)

    p_roots = sub.add_parser("roots", help="solve and certify the characteristic roots")
    _add_common(p_roots, default_mode="float", default_format="json")
    p_roots.set_defaults(func=cmd_roots)

    p_verify = sub.add_parser("verify",
                              help="cross-validate every engine and identity")
    p_verify.add_argument("--p-grid", default=None, dest="p_grid",
                          help="comma-separated probabilities "
                               "(default 1/3,1/2,2/3,3/4)")
    p_verify.add_argument("--k-max", type=int, default=verify_mod.DEFAULT_K_MAX,
                          dest="k_max")
    p_verify.add_argument("--n-max", type=int, default=verify_mod.DEFAULT_N_MAX,
                          dest="n_max")
    p_verify.add_argument("--r-max", type=int, default=verify_mod.DEFAULT_R_MAX,
                          dest="r_max")
    p_verify.add_argument("--mode", choices=["float", "exact"], default="exact")
    p_verify.add_argument("--format", choices=["json", "text"], default="json")
    p_verify.add_argument("--out", default="-")
    p_verify.add_argument("--corrupt-engine", default=None,
                          dest="corrupt_engine", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="Monte Carlo simulation + chi-square fit")
    _add_common(p_sample, default_mode="float", default_format="json")
    p_sample.add_argument("--trials", type=int, default=100_000)
    p_sample.add_argument("--seed", type=int, default=1)
    p_sample.add_argument("--max-steps", type=int, default=10_000_000,
                          dest="max_steps")
    p_sample.set_defaults(func=cmd_sample)

    p_bench = sub.add_parser("bench", help="time every engine over a sweep")
    _add_common(p_bench, default_mode="float")
    p_bench.add_argument("--n-max", type=int, default=2000, dest="n_max")
    p_bench.add_argument("--engines", default=",".join(ENGINE_CHOICES))
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeomkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
