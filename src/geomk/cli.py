"""Command-line surface.

Subcommands: pmf, table, moments, roots, verify, sample.
Probabilities are accepted as decimal or fraction strings everywhere; exact
mode (the default for analytic subcommands) keeps every value a reduced
rational.  `_write` is the one place that turns a report into JSON, CSV or
text; each CSV record is one `str.join` of its fields, with the bytes
`csv.writer` writes in its default QUOTE_MINIMAL dialect with LF line ends.

One stdlib encoder, `json.JSONEncoder(indent=2)`, writes every JSON report
in pieces, with the bytes of `json.dumps(report, indent=2)`, except a
table's: the table command writes its own JSON (`_json_table`), the
encoder's text of the table's other fields and then its entries through a
row template, with no dict built per row.

`main` builds the argparse parser once per process and reuses it, so
in-process callers pay for it once.  Exit codes: 0 success, 1 a
verification check failed, 2 bad usage, including an --out path that
cannot be opened, or output that cannot be written, and 141 (128 +
SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice

from . import moments as moments_mod
from . import roots as roots_mod
from . import simulate as sim_mod
from . import verify as verify_mod
from .numerics import (DomainError, GeomkError, Mode, ModeError, ParseError,
                       coerce, parse_scalar)
from .params import as_float_params, make_params
from .pmf import (ENTRY_KEYS, Engine, _json_scalar, _render, build_table,
                  recurrence_series)
from .pmf import pmf as pmf_eval

ENGINE_CHOICES = [e.value for e in Engine]
EXIT_BROKEN_PIPE = 141     # 128 + SIGPIPE, as a shell reports a killed writer
# the encoder json.dumps(report, indent=2) makes for each call
_ENCODER = json.JSONEncoder(indent=2)
# Rows per piece of templated JSON: large enough that the template and the
# write calls cost little per row, small enough that no table is one string.
_BLOCK = 256


@contextlib.contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise GeomkError(f"--out: cannot open {path}: {exc.strerror}") from None
    with handle:
        yield handle


def _write(args, json_text, rows, lines):
    """Write one report to `args.out` in `args.format`.

    JSON is the pieces `json_text()` returns plus LF: a report's
    `_ENCODER.iterencode(report)`, a table's `_json_table(table)`.  CSV is
    `rows`, header first; text is `lines`.  Every line ends in LF, and only
    the requested form is built.  A write that fails, as on a full disk,
    raises GeomkError; a reader that closed stdout early still raises
    BrokenPipeError, for main's exit status 141.
    """
    try:
        with _out_stream(args.out) as out:
            if args.format == "json":
                out.writelines(json_text())
                out.write("\n")
            elif args.format == "csv":
                out.writelines(map(_csv_line, rows))
            else:
                for line in lines:
                    out.write(f"{line}\n")
            out.flush()     # stdout's buffered bytes too fail here, if at all
    except BrokenPipeError:
        raise
    except OSError as exc:
        if args.out in (None, "-"):
            _stdout_to_devnull()
        raise GeomkError(f"cannot write output: {exc.strerror or exc}") from None


def _stdout_to_devnull():
    """Point stdout's file descriptor at devnull, so the interpreter's final
    flush of what stdout still holds cannot raise again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _csv_line(row):
    """One CSV record and its LF, as csv.writer(lineterminator="\n") writes
    it in the default QUOTE_MINIMAL dialect.

    None is the empty field and any other non-str value is str(value).  A
    field holding a comma, a quote or a line break is quoted, with its
    quotes doubled, and a record of one empty field is written as "".  The
    fields are joined as they are, and quoted one by one only when the
    joined record shows that one of them needs it.
    """
    if None in row:
        row = ["" if value is None else value for value in row]
    fields = [*map(str, row)]
    if fields == [""]:
        return '""\n'
    line = ",".join(fields)
    if (line.count(",") >= len(fields) or '"' in line or "\n" in line
            or "\r" in line):
        line = ",".join(map(_csv_field, fields))
    return line + "\n"


def _csv_field(field):
    if any(ch in field for ch in ',"\n\r'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _json_table(table):
    """The text of `json.dumps(table.to_dict(), indent=2)` in pieces, with
    no dict built per row: the encoder's text of `table.summary()`, then
    the entries, then the closing brace.

    A float table's rows come from its columns through one %-template per
    row, `_BLOCK` rows per piece: `%r` of each value is its JSON text, as n
    is an int and the table's checks pass only finite floats.  An exact
    table's text rows are one piece per row, as its text walk makes them,
    so that no piece holds more than one row's digits; a text is digits and
    at most one slash, which JSON writes as they are, inside quotes.
    """
    # the encoder's text with the entries as null, cut before the null
    yield _ENCODER.encode({**table.summary(), "entries": None})[:-len("null\n}")]
    row_sep = ",\n    "
    n_key, f_key, c_key = (f'"{key}"' for key in ENTRY_KEYS)
    if table.params.mode is Mode.EXACT:
        template = (f'{{\n      {n_key}: %d,\n      {f_key}: "%s",'
                    f'\n      {c_key}: "%s"\n    }}')
        first, rest = "[\n    " + template, row_sep + template
        rows = table.text_rows()        # n_max >= k >= 1: never empty
        yield first % next(rows)
        for row in rows:
            yield rest % row
    else:
        template = (f"{{\n      {n_key}: %r,\n      {f_key}: %r,"
                    f"\n      {c_key}: %r\n    }}")
        values = chain.from_iterable(zip(range(table.n_max + 1),
                                         table.entries, table.cumulative))
        size = 3 * _BLOCK               # three values per row
        pattern = row_sep.join([template] * _BLOCK)
        lead = "[\n    "
        while block := tuple(islice(values, size)):
            if len(block) < size:
                pattern = row_sep.join([template] * (len(block) // 3))
            yield lead
            yield pattern % block
            lead = row_sep
    yield "\n  ]\n}"


def _add_common(parser, default_mode="exact", default_format="text"):
    parser.add_argument("--p", required=True,
                        help="success probability, decimal or fraction (e.g. 0.5 or 1/2)")
    parser.add_argument("--k", required=True, type=int, help="run length (>= 1)")
    parser.add_argument("--mode", choices=["float", "exact"], default=default_mode)
    parser.add_argument("--format", choices=["text", "json", "csv"],
                        default=default_format)
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
    value = pmf_eval(params, args.n, engine)

    def lines():
        yield _render(value)
        if isinstance(value, Fraction):
            yield f"decimal: {float(value)!r}"
        yield f"engine: {engine.value}, mode: {params.mode.value}"

    _write(args,
           lambda: _ENCODER.iterencode({
               "p": str(params.p), "k": params.k, "n": args.n,
               "engine": engine.value, "mode": params.mode.value,
               "value": _json_scalar(value), "decimal": float(value)}),
           [("n", "f"), (args.n, _render(value))], lines())
    return 0


def cmd_table(args):
    params = _params_from(args)
    engine = _engine_from(args, params.mode)
    table = build_table(params, engine, args.n_max)

    def rows():
        yield "n", "f", "cumulative"
        yield from table.text_rows()

    def lines():
        yield (f"pmf table for p={params.p}, k={params.k} "
               f"(engine={engine.value}, mode={params.mode.value})")
        for n, f, c in table.text_rows():
            yield f"  n={n:<5d} f={f:<24} cumulative={c}"
        if table.tail_bound is not None:
            yield f"  tail bound beyond n_max: {table.tail_bound!r}"

    _write(args, lambda: _json_table(table), rows(), lines())
    return 0


def cmd_moments(args):
    params = _params_from(args)
    engine = _engine_from(args, params.mode)
    report = moments_mod.moment_report(params, args.r_max, engine)

    def rows():
        yield "r", "factorial", "raw", "central"
        for r in range(1, report.r_max + 1):
            central = "" if r < 2 else _render(report.central[r - 2])
            yield (r, _render(report.factorial[r - 1]),
                   _render(report.raw[r - 1]), central)

    def lines():
        yield (f"moments for p={params.p}, k={params.k} "
               f"({params.mode.value}, engine={report.method.value})")
        yield f"  mean     = {_render(report.mean)}"
        yield f"  variance = {_render(report.variance)}"
        for r in range(1, report.r_max + 1):
            yield (f"  r={r}: factorial={_render(report.factorial[r - 1])} "
                   f"raw={_render(report.raw[r - 1])}")

    _write(args, lambda: _ENCODER.iterencode(report.to_dict()), rows(),
           lines())
    return 0


def cmd_roots(args):
    if args.mode == "exact":
        raise ModeError("roots are solved in float mode only; use --mode float")
    params = _params_from(args)
    root_set = roots_mod.find_roots(params)
    cert = root_set.certificate

    def rows():
        yield "index", "re", "im", "identity_residual"
        for i, z in enumerate(root_set.roots):
            yield i, repr(z.real), repr(z.imag), repr(cert.identity_residuals[i])

    def lines():
        yield f"roots for p={params.p}, k={params.k} (degenerate={cert.degenerate})"
        for i, z in enumerate(root_set.roots):
            tag = " (principal)" if i == root_set.principal_index else ""
            yield f"  {z.real:+.15f} {z.imag:+.15f}i{tag}"
        yield f"  certification: {'PASS' if cert.passed else 'FAIL'}"

    _write(args,
           lambda: _ENCODER.iterencode({
               "p": str(params.p), "k": params.k,
               "roots": [{"re": z.real, "im": z.imag}
                         for z in root_set.roots],
               "principal_index": root_set.principal_index,
               **cert.to_dict()}),
           rows(), lines())
    return 0 if cert.passed else 1


def cmd_verify(args):
    mode = Mode(args.mode)
    if args.p_grid:
        try:
            p_values = [coerce(parse_scalar(token.strip(), mode), mode)
                        for token in args.p_grid.split(",")]
        except ParseError as exc:
            raise ParseError(f"--p-grid: {exc}") from None
    else:
        p_values = [coerce(p, mode) for p in verify_mod.DEFAULT_P_GRID]
    report = verify_mod.run_verify(p_values, args.k_max, args.n_max,
                                   args.r_max, mode,
                                   corrupt_engine=args.corrupt_engine)

    def lines():
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            skipped = f", {len(check.skips)} skipped" if check.skips else ""
            yield f"{status} {check.name} ({check.cases} cases{skipped})"
            for failure in check.failures[:3]:
                yield f"     failed at {failure}"
        yield f"{'PASS' if report.passed else 'FAIL'} overall"

    _write(args, lambda: _ENCODER.iterencode(report.to_dict()), (), lines())
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

    def rows():
        yield "n", "count", "frequency", "analytic"
        completed = summary.trials - summary.truncated_count
        n_max = max(summary.histogram) if summary.histogram else params.k
        analytic = recurrence_series(as_float_params(params), n_max)
        for n in range(params.k, n_max + 1):
            count = summary.histogram.get(n, 0)
            freq = count / completed if completed else 0.0
            yield n, count, repr(freq), repr(float(analytic[n]))

    def lines():
        yield (f"simulated {summary.trials} trials at p={params.p}, "
               f"k={params.k} (seed={config.seed})")
        yield f"  sample mean     = {summary.sample_mean}"
        yield f"  sample variance = {_or_na(summary.sample_variance)}"
        yield f"  truncated       = {summary.truncated_count}"
        yield (f"  chi-square p    = {gof.p_value:.6f}"
               f"{' [flagged]' if gof.flagged else ''}")
        if summary.truncated_count:     # the moments are those of N uncapped
            yield (f"  mean z, var z   = n/a "
                   f"({summary.truncated_count} truncated)")
        else:
            yield (f"  mean z, var z   = {_or_na(gof.mean_z, '.3f')}, "
                   f"{_or_na(gof.variance_z, '.3f')}")

    _write(args, lambda: _ENCODER.iterencode(
               {"summary": summary.to_dict(), "gof": gof.to_dict()}),
           rows(), lines())
    return 1 if gof.hard_fail else 0


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
    return parser


# argparse keeps no parse state on a parser (each parse_args makes a new
# Namespace, and usage errors look up sys.stderr when printed), so one
# parser serves every call in the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GeomkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`geomk ... | head`).
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
