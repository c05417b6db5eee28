"""Span recording for the traced run, and the per-layer metrics built from it.

``install`` replaces the public functions of each geomk layer with wrappers
that record a span (name, start, end, parent) plus work counts taken from
the arguments and the result.  It rebinds every ``geomk.*`` module attribute
that holds a wrapped function, because cli, verify, moments and simulate
import by name; ``geomk.pmf`` is reached through ``sys.modules`` since the
package attribute of that name is the ``pmf`` function.  Spans stay in
memory; ``span_totals`` reduces them when the process ends and
``layer_metrics`` merges the totals of the processes of one run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# name -> (unit, better).  BENCHMARK.json's per_layer list is this table.
PER_LAYER = {}


def _declare(prefix, quantities):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "terms": ("count", "lower"), "steps": ("count", "lower"),
             "max_bits": ("bits", "lower"), "n_terms": ("count", "lower"),
             "cases": ("count", "higher"), "failed": ("count", "lower"),
             "first_call_s": ("s", "lower")}
    for quantity in quantities:
        PER_LAYER[f"{prefix}.{quantity}"] = units[quantity]


for _arithmetic in ("exact", "float"):
    _declare(f"pmf.muselli.{_arithmetic}", ("calls", "self_s", "terms"))
    _declare(f"pmf.closedform.{_arithmetic}", ("calls", "self_s", "terms"))
_declare("pmf.recurrence.exact", ("calls", "self_s", "steps", "max_bits"))
_declare("pmf.series.exact", ("calls", "self_s", "steps", "max_bits"))
_declare("pmf.recurrence.float", ("calls", "self_s", "steps"))
_declare("pmf.series.float", ("calls", "self_s", "steps"))
_declare("pmf.build_table", ("calls", "self_s"))
_declare("pmf.rootsum", ("calls", "self_s"))
_declare("moments.series_oracle", ("calls", "self_s", "n_terms"))
_declare("moments.moment_report", ("calls", "self_s"))
_declare("moments.factorial_moment", ("calls", "self_s"))
_declare("moments.route_sums", ("calls", "self_s", "terms"))
_declare("cli.main", ("calls", "self_s"))
PER_LAYER["cli.output_bytes"] = ("bytes", "lower")
_declare("verify.check", ("calls", "self_s", "cases"))
_declare("roots.find_roots", ("calls", "self_s", "failed"))
_declare("roots.certify_roots", ("calls", "self_s"))
_declare("simulate.run_simulation", ("calls", "self_s", "steps"))
PER_LAYER["simulate.steps_per_s"] = ("1/s", "higher")
_declare("simulate.gof_report", ("calls", "self_s", "first_call_s"))
PER_LAYER["trace.overhead_ratio"] = ("ratio", "lower")


class Tracer:
    """In-memory spans in one flat list; a span's parent is an index into it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, counts]
        self.first_call_s = {}   # name -> duration of its first call ever
        self._stack = []

    def reset(self):
        """Drop the spans recorded so far (set-up); first calls are kept."""
        self.spans = []

    def wrap(self, fn, namer, counter):
        stack, first = self._stack, self.first_call_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = namer(args)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[2] = clock()
                record[4] = {"failed": 1}
                raise
            finally:
                stack.pop()
            record[2] = clock()
            record[4] = counter(args, result)
            first.setdefault(name, record[2] - record[1])
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (start, end, parent_index) triples; parent -1 is a root.
    """
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _mode(args):
    return args[0].mode.value


def _terms(args, result):
    n, k = args[1], args[0].k
    return {"terms": (n + 1) // (k + 1)}


def _steps(n, k):
    return max(n - k, 0)


def _recurrence_counts(args, result):
    counts = {"steps": _steps(args[1], args[0].k)}
    if hasattr(result, "denominator") and args[0].mode.value == "exact":
        counts["max_bits"] = result.denominator.bit_length()
    return counts


def _series_counts(args, result):
    counts = {"steps": _steps(args[1], args[0].k)}
    if result and hasattr(result[-1], "denominator"):
        counts["max_bits"] = result[-1].denominator.bit_length()
    return counts


def _route_terms(fn_name):
    # factorial_moment_muselli sums r+1 terms; the vanishing-free route
    # sums 1 + r + (r-1).
    if fn_name == "factorial_moment_muselli":
        return lambda args, result: {"terms": args[1] + 1}
    return lambda args, result: {"terms": 2 * args[1]}


def _simulation_steps(args, result):
    done = sum(n * c for n, c in result.histogram.items())
    return {"steps": done + result.truncated_count
            * result.config.max_steps_per_trial}


def _none(args, result):
    return {}


def _fixed(name):
    return lambda args: name


def _targets():
    """(module, function name, namer, counter) for every traced function."""
    pmf = [("pmf_muselli", lambda a: f"pmf.muselli.{_mode(a)}", _terms),
           ("pmf_closedform", lambda a: f"pmf.closedform.{_mode(a)}", _terms),
           ("pmf_recurrence", lambda a: f"pmf.recurrence.{_mode(a)}",
            _recurrence_counts),
           ("recurrence_series", lambda a: f"pmf.series.{_mode(a)}",
            _series_counts),
           ("pmf_rootsum", _fixed("pmf.rootsum"), _none),
           ("build_table", _fixed("pmf.build_table"), _none)]
    moments = [("factorial_moment_series", _fixed("moments.series_oracle"),
                lambda a, r: {"n_terms": r.n_terms}),
               ("moment_report", _fixed("moments.moment_report"), _none),
               ("factorial_moment", _fixed("moments.factorial_moment"), _none)]
    moments += [(name, _fixed("moments.route_sums"), _route_terms(name))
                for name in ("factorial_moment_muselli",
                             "factorial_moment_closed")]
    verify = [(name, _fixed("verify.check"), lambda a, r: {"cases": r.cases})
              for name in ("check_cross_engine_pmf", "check_rootsum_pmf",
                           "check_moment_routes", "check_mean_variance",
                           "check_root_certification", "check_pgf_identity")]
    return ([("geomk.pmf",) + t for t in pmf]
            + [("geomk.moments",) + t for t in moments]
            + [("geomk.verify",) + t for t in verify]
            + [("geomk.roots", "find_roots", _fixed("roots.find_roots"), _none),
               ("geomk.roots", "certify_roots", _fixed("roots.certify_roots"),
                _none),
               ("geomk.simulate", "run_simulation",
                _fixed("simulate.run_simulation"), _simulation_steps),
               ("geomk.simulate", "gof_report", _fixed("simulate.gof_report"),
                _none),
               ("geomk.cli", "main", _fixed("cli.main"), _none)])


def install(tracer: Tracer) -> int:
    """Wrap every traced function and rebind every geomk attribute bound to
    one; returns the number of bindings replaced."""
    wrappers = {}
    for module_name, fn_name, namer, counter in _targets():
        original = getattr(sys.modules[module_name], fn_name)
        wrappers[id(original)] = (original,
                                  tracer.wrap(original, namer, counter))
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "geomk" and not module_name.startswith("geomk."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                replaced += 1
    return replaced


_SIMULATION_S = "simulate.run_simulation.span_s"


def span_totals(tracer: Tracer) -> dict:
    """Per-metric sums over one process's spans (max for max_bits), plus the
    time spent inside run_simulation and the first gof_report call."""
    spans = tracer.spans
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    totals = defaultdict(int)
    for span, own in zip(spans, selfs):
        name, start, end, _, counts = span
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own
        for key, value in (counts or {}).items():
            metric = f"{name}.{key}"
            if key == "max_bits":
                totals[metric] = max(totals[metric], value)
            else:
                totals[metric] += value
        if name == "simulate.run_simulation":
            totals[_SIMULATION_S] += end - start
    totals["simulate.gof_report.first_call_s"] = tracer.first_call_s.get(
        "simulate.gof_report", 0.0)
    return dict(totals)


def layer_metrics(parts, output_bytes: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric from the span totals of one or more traced
    processes that split the op list; layers never entered read 0."""
    totals = defaultdict(int)
    for part in parts:
        for name, value in part.items():
            if name.endswith(".max_bits"):
                totals[name] = max(totals[name], value)
            elif name.endswith(".first_call_s"):
                totals[name] += value / len(parts)   # mean over processes
            else:
                totals[name] += value
    steps, busy = totals["simulate.run_simulation.steps"], totals[_SIMULATION_S]
    totals["simulate.steps_per_s"] = steps / busy if busy else 0.0
    totals["cli.output_bytes"] = output_bytes
    totals["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": totals[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
