"""Engine timing surface: how fast is each pmf route, and does it drift?

Each engine evaluates f(n) for every n up to n_max; the deviation column is
the max absolute difference from the recurrence over that sweep, so timing
regressions and accuracy regressions surface in the same table.  The root
solve is timed separately from spectral evaluation.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from . import roots as roots_mod
from .numerics import Mode, ModeError, PrecisionWarning
from .params import Params
from .pmf import Engine, _rootsum_values, recurrence_series
from .pmf import pmf as pmf_eval

DEFAULT_ENGINES = (Engine.RECURRENCE, Engine.MUSELLI, Engine.CLOSED_FORM,
                   Engine.ROOT_SUM)


@dataclass(frozen=True)
class BenchRow:
    engine: str
    setup_seconds: float      # root solve for the spectral engine, else 0
    eval_seconds: float
    max_abs_deviation: float
    n_max: int

    def to_dict(self):
        return {"engine": self.engine, "setup_seconds": self.setup_seconds,
                "eval_seconds": self.eval_seconds,
                "max_abs_deviation": self.max_abs_deviation,
                "n_max": self.n_max}


def run_benchmarks(params: Params, n_max: int, engines=DEFAULT_ENGINES) -> list:
    if params.mode is not Mode.FLOAT:
        raise ModeError("benchmarks run in float mode")
    rows = []
    # Cancellation warnings would fire once per n here; the deviation column
    # already reports accuracy, so keep the timing loops quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        t0 = time.perf_counter()
        reference = recurrence_series(params, n_max)
        recurrence_time = time.perf_counter() - t0

        for engine in engines:
            if engine is Engine.RECURRENCE:
                rows.append(BenchRow("recurrence", 0.0, recurrence_time, 0.0, n_max))
                continue
            setup = 0.0
            root_set = None
            if engine is Engine.ROOT_SUM:
                t0 = time.perf_counter()
                root_set = roots_mod.find_roots(params)
                setup = time.perf_counter() - t0
            t0 = time.perf_counter()
            if engine is Engine.ROOT_SUM:
                values = list(_rootsum_values(params, root_set,
                                              range(n_max + 1)))
            else:
                values = [pmf_eval(params, n, engine) for n in range(n_max + 1)]
            elapsed = time.perf_counter() - t0
            deviation = max(abs(v - r) for v, r in zip(values, reference))
            rows.append(BenchRow(engine.value, setup, elapsed, deviation, n_max))
    return rows

