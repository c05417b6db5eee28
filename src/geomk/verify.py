"""Cross-validation sweeps: every redundant route must agree with the others.

These are the checks behind the `verify` CLI subcommand.  Each returns a
CheckResult with the worst deviation seen, so a failure pinpoints the
(p, k, n or r) cell that broke.

The routes under test are tables of one-pass functions: _ENGINES maps an
alternating-sum engine to its pmf values over all n of a cell, and
_MOMENT_ROUTES a moment route to its mu_(r) over all r of a cell, each
through the library's one engine dispatch (pmf._engine_values).  A new
route is one more entry.

Every check runs cell by cell.  _cell runs a plan's checks on one (p, k)
cell, with one float root solve for both root checks, and gives each
check's CheckResult over that cell; _fold adds the cells' results up in
grid order into exactly the result of one pass over the grid.  A check's
worst case is its largest magnitude, a NaN above every number, the
earliest case of a tie (_above), so a cell's own worst is all _fold needs.
A public check_* function runs its one check this way in this process.
run_verify runs all six: it hands geomk.pool one task per cell, in grid
order, the pool deals them among one process per usable CPU, and the
results come back in grid order for _fold, so the report is the same on
any number of CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional

from . import moments as moments_mod
from . import pool
from . import roots as roots_mod
from .numerics import DomainError, Mode, Scalar, SolverError
from .params import Params, as_float_params, make_params
# pmf_muselli stays importable from here: perfbench's tracer rebinds it.
from .pmf import (Engine, _engine_values, _float_pmf,  # noqa: F401
                  _rootsum_values, _scaled_pmf, _scaled_pq, _tail_mass,
                  pgf_eval, pmf_muselli, recurrence_series)

FLOAT_PMF_TOL = 1e-10       # absolute, engine vs recurrence
FLOAT_MOMENT_TOL = 1e-9     # relative, across the three moment routes
PGF_BOUND_TOL = 1e-12       # the pgf check's series tail bound

DEFAULT_P_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
DEFAULT_K_MAX = 6
DEFAULT_N_MAX = 200
DEFAULT_R_MAX = 8
# the interior points of run_verify's generating-function check
_S_VALUES = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    worst: Optional[dict] = None
    worst_magnitude: float = -1.0
    failures: list = field(default_factory=list)
    skips: list = field(default_factory=list)   # cells the solver failed on

    def to_dict(self):
        """The report's fields, strict JSON: a non-finite float in worst or
        a failure (a NaN deviation, say) is written as null."""
        return {"name": self.name, "passed": self.passed, "cases": self.cases,
                "skipped": len(self.skips), "worst": _finite(self.worst),
                "failures": [_finite(f) for f in self.failures[:10]]}


def _finite(record: Optional[dict]) -> Optional[dict]:
    if record is None:
        return None
    return {key: None if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in record.items()}


@dataclass
class VerifyReport:
    mode: str
    grid: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"mode": self.mode, "grid": self.grid, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def _pmf_route(engine):
    return lambda params, ns: _engine_values(params, engine, ns)


def _moment_route(engine):
    return lambda params, rs: moments_mod._factorial_moments(params, rs, engine)


# name -> (params, ns) -> f(n) for n in ns, one pass of each alternating sum
_ENGINES = {engine.value: _pmf_route(engine)
            for engine in (Engine.MUSELLI, Engine.CLOSED_FORM)}
# name -> (params, rs) -> mu_(r) for r in rs, one pass of each moment route
_MOMENT_ROUTES = {
    "muselli_sum": _moment_route(Engine.MUSELLI),
    "closed_sum": _moment_route(Engine.CLOSED_FORM),
}
_via_pmf = _moment_route(Engine.RECURRENCE)


class _Plan(NamedTuple):
    """What _cell runs on each cell: the named checks, in report order,
    and the sizes and routes each reads."""
    checks: tuple
    mode: Mode = Mode.FLOAT
    n_max: int = 0                  # cross_engine_pmf, rootsum_pmf
    r_max: int = 0                  # moment_routes
    s_values: tuple = ()            # pgf_identity
    engines: Optional[dict] = None  # cross_engine_pmf


def check_cross_engine_pmf(p_values, k_max: int, n_max: int,
                           mode: Mode) -> CheckResult:
    """Alternating-sum engines (_ENGINES) against the recurrence on the full
    grid, each in one pass per (p, k) cell.  Exact mode demands bit-exact
    equality of reduced rationals; float mode allows FLOAT_PMF_TOL absolute
    deviation.
    """
    return _run_here(_Plan(("cross_engine_pmf",), mode, n_max=n_max,
                           engines=_ENGINES), p_values, k_max)


def check_rootsum_pmf(p_values, k_max: int, n_max: int) -> CheckResult:
    """Spectral engine against the recurrence (always float), on every
    (p, k) cell of the grid, p = k/(k+1) and its neighbours included.
    roots.find_roots solves each cell's float params.  A cell where it
    raises SolverError, or whose p has no float twin in (0, 1), is skipped:
    it goes into the result's skips with its reason, adds no case and never
    counts as a pass.
    """
    return _run_here(_Plan(("rootsum_pmf",), n_max=n_max),
                     p_values, k_max)


def check_moment_routes(p_values, k_max: int, r_max: int,
                        mode: Mode) -> CheckResult:
    """Three-route factorial-moment agreement on the (p, k, r) grid: per
    cell, one pass of the pmf route and one of each _MOMENT_ROUTES sum."""
    return _run_here(_Plan(("moment_routes",), mode, r_max=r_max),
                     p_values, k_max)


def check_mean_variance(p_values, k_max: int, mode: Mode) -> CheckResult:
    """Closed-form mean/variance against the factorial-moment chain."""
    return _run_here(_Plan(("mean_variance",), mode), p_values, k_max)


def check_root_certification(p_values, k_max: int) -> CheckResult:
    """The certificate find_roots attaches must pass on every float (p, k)
    pair that it solves (skips as in check_rootsum_pmf)."""
    return _run_here(_Plan(("root_certification",)), p_values, k_max)


def check_pgf_identity(p_values, k_max: int, s_values,
                       mode: Mode) -> CheckResult:
    """Truncated pmf series against the closed-form generating function."""
    return _run_here(_Plan(("pgf_identity",), mode, s_values=tuple(s_values)),
                     p_values, k_max)


def _run_here(plan: _Plan, p_values, k_max: int) -> CheckResult:
    """The plan's one check over the grid, cell by cell in this process."""
    [result] = _fold(plan.checks, [_cell(plan, p, k)
                                   for p, k in _cells(p_values, k_max)])
    return result


def pgf_series_gap(params: Params, s: Scalar):
    """(|pgf - truncated series|, tail bound, n used) at the point s.

    The remainder sum_{i>n} f(i) s^i is at most |s|^(n+1) P(N > n), with
    P(N > n) = f(n+k+1) / (q p^k) (pmf._tail_mass).  n starts at
    max(k + 1, 8) and grows by max(8, n // 4) until that bound is at most
    PGF_BOUND_TOL, on one recurrence walk that each step extends.  In exact
    mode the gap and the bound are exact rationals, each rounded once by one
    int / int division, so an exact gap <= bound holds in floats too.
    """
    return next(_pgf_series_gaps(params, (s,)))


def _pgf_series_gaps(params: Params, s_values):
    """Yield pgf_series_gap(params, s) for each s of s_values,
    all from one recurrence walk: each s reads the values the walk has
    made and extends it only past them."""
    k, exact = params.k, params.mode is Mode.EXACT
    if exact:
        a, c, b = _scaled_pq(params)
        walk = _scaled_pmf(a, c, k)     # g(i) = f(i) b^i for i = k, k+1, ...
        qpk_den = c * a ** k            # q p^k = c a^k / b^(k+1)
    else:
        walk = _float_pmf(params)
    values = []                         # f(k), f(k+1), ... as walk yields them
    for s in s_values:
        if exact:
            s = Fraction(s)
            u, v = s.as_integer_ratio()

        def bound_at(n):
            if len(values) < n + 2:                     # to f(n+k+1)
                values.extend(islice(walk, n + 2 - len(values)))
            if not exact:
                return abs(s) ** (n + 1) * _tail_mass(params, values[n + 1])
            # |s|^(n+1) f(n+k+1) / (q p^k) over the kernel's integers
            return (abs(u) ** (n + 1) * values[n + 1]
                    / (v ** (n + 1) * b ** n * qpk_den))

        n = max(k + 1, 8)
        while (bound := bound_at(n)) > PGF_BOUND_TOL:
            n += max(8, n // 4)
        head = values[:n - k + 1]       # f(k..n)
        if not exact:
            partial = sum(f * s ** i for i, f in enumerate(head, start=k))
            yield abs(pgf_eval(params, s) - partial), bound, n
            continue
        # w^n sum_{i<=n} f(i) s^i for w = b v: Horner's rule over the terms
        # g(i) u^i keeps it an integer
        w, acc, u_power = b * v, 0, u ** k
        for g in head:
            acc, u_power = acc * w + g * u_power, u_power * u
        num, den = pgf_eval(params, s).as_integer_ratio()
        yield abs(num * w ** n - acc * den) / (den * w ** n), bound, n


def _cross_engine_pmf(result: CheckResult, plan: _Plan, cell) -> None:
    exact, ns = plan.mode is Mode.EXACT, range(plan.n_max + 1)
    params = cell.params
    reference = recurrence_series(params, plan.n_max)
    for name, values in plan.engines.items():
        for n, value, expected in zip(ns, values(params, ns), reference):
            equal, dev = _compare(value, expected, exact)
            result.cases += 1
            ok = equal if exact else dev <= FLOAT_PMF_TOL
            _track(result, ok, dev,
                   lambda: {"engine": name, "p": str(params.p),
                            "k": params.k, "n": n, "deviation": dev})


def _rootsum_pmf(result: CheckResult, plan: _Plan, cell) -> None:
    if (solved := _solved(result, cell)) is None:
        return
    params, root_set = solved
    n_max = plan.n_max
    reference = recurrence_series(params, n_max)
    values = _rootsum_values(params, root_set, range(n_max + 1))
    for n, value in enumerate(values):
        dev = abs(value - reference[n])
        result.cases += 1
        _track(result, dev <= FLOAT_PMF_TOL, dev,
               lambda: {"p": str(params.p), "k": params.k, "n": n,
                        "deviation": dev})


def _moment_routes(result: CheckResult, plan: _Plan, cell) -> None:
    exact, rs = plan.mode is Mode.EXACT, range(1, plan.r_max + 1)
    params = cell.params
    reference = list(_via_pmf(params, rs))
    routes = [(name, list(route(params, rs)))
              for name, route in _MOMENT_ROUTES.items()]
    for r, via_pmf in zip(rs, reference):
        for name, values in routes:
            equal, dev = _compare(values[r - 1], via_pmf, exact)
            rel = dev / float(abs(via_pmf))
            result.cases += 1
            ok = equal if exact else rel <= FLOAT_MOMENT_TOL
            _track(result, ok, rel,
                   lambda: {"route": name, "p": str(params.p),
                            "k": params.k, "r": r,
                            "relative_deviation": rel})


def _mean_variance(result: CheckResult, plan: _Plan, cell) -> None:
    exact, params = plan.mode is Mode.EXACT, cell.params
    mu1, mu2 = _via_pmf(params, (1, 2))
    mu = moments_mod.mean(params)
    var = moments_mod.variance(params)
    chain = mu2 - mu1 * mu1 + mu1
    for name, lhs, rhs in (("mean", mu1, mu), ("variance", chain, var)):
        equal, dev = _compare(lhs, rhs, exact)
        rel = dev / max(float(abs(rhs)), 1.0)
        result.cases += 1
        ok = equal if exact else rel <= FLOAT_MOMENT_TOL
        _track(result, ok, rel,
               lambda: {"identity": name, "p": str(params.p),
                        "k": params.k, "relative_deviation": rel})


def _root_certification(result: CheckResult, plan: _Plan, cell) -> None:
    if (solved := _solved(result, cell)) is None:
        return
    params, root_set = solved
    cert = root_set.certificate
    worst = max(cert.identity_residuals)
    result.cases += 1
    _track(result, cert.passed, worst,
           lambda: {"p": str(params.p), "k": params.k,
                    "max_identity_residual": worst,
                    "positive_real_count": cert.positive_real_count,
                    "max_magnitude": cert.max_magnitude})


def _pgf_identity(result: CheckResult, plan: _Plan, cell) -> None:
    exact, params = plan.mode is Mode.EXACT, cell.params
    slack = 0.0 if exact else 1e-12
    typed = [Fraction(s) if exact else float(s) for s in plan.s_values]
    # one recurrence walk per cell serves every s
    gaps = _pgf_series_gaps(params, typed)
    for s, (gap, bound, _) in zip(plan.s_values, gaps):
        result.cases += 1
        _track(result, gap <= bound + slack, gap,
               lambda: {"p": str(params.p), "k": params.k, "s": str(s),
                        "gap": gap, "tail_bound": bound})
    at_one = pgf_eval(params, Fraction(1) if exact else 1.0)
    gap = float(abs(at_one - 1))
    result.cases += 1
    _track(result, at_one == 1, gap,
           lambda: {"p": str(params.p), "k": params.k, "s": "1", "gap": gap})


# check name -> its work on one cell, in run_verify's report order
_CHECKS = {
    "cross_engine_pmf": _cross_engine_pmf,
    "rootsum_pmf": _rootsum_pmf,
    "moment_routes": _moment_routes,
    "mean_variance": _mean_variance,
    "root_certification": _root_certification,
    "pgf_identity": _pgf_identity,
}


def _cells(p_values, k_max: int) -> list:
    """The grid's (p, k) cells in grid order: p by p, k = 1..k_max."""
    return [(p, k) for p in p_values for k in range(1, k_max + 1)]


class _Cell:
    """One (p, k) cell: its params, and its float params' root solve, each
    made when a check first asks for it."""

    def __init__(self, plan: _Plan, p, k: int):
        self.plan, self.p, self.k = plan, p, k

    @cached_property
    def params(self) -> Params:
        exact = self.plan.mode is Mode.EXACT
        return make_params(self.p if exact else float(self.p), self.k)

    @cached_property
    def solved(self):
        """(float params, their root set), or the SolverError or DomainError
        raised in its place: one solve for both root checks.  An exact p
        whose double is 1.0 has no float params (DomainError); its exact
        checks run all the same."""
        params = self.params            # a p outside (0, 1) raises here
        try:
            params = as_float_params(params)
            return params, roots_mod.find_roots(params)
        except (SolverError, DomainError) as exc:
            return exc


def _solved(result: CheckResult, cell: _Cell) -> Optional[tuple]:
    """The cell's float (params, root set); or, where there is none, None,
    with the cell in result.skips with its reason: a skip adds no case and
    never counts as a pass."""
    solved = cell.solved
    if isinstance(solved, Exception):
        result.skips.append({"p": str(float(cell.p)), "k": cell.k,
                             "reason": str(solved)})
        return None
    return solved


def _cell(plan: _Plan, p, k: int) -> tuple:
    """(states, error): the plan's checks on the (p, k) cell alone, in
    order, each as its CheckResult's fields (vars), which marshal carries,
    up to the first check that raises; error is that exception, or None.
    _fold raises it where a pass over the whole grid would."""
    cell, states = _Cell(plan, p, k), []
    for name in plan.checks:
        result = CheckResult(name, True, 0)
        try:
            _CHECKS[name](result, plan, cell)
        except Exception as exc:    # raised by _fold, in grid order
            return states, exc
        states.append(vars(result))
    return states, None


def _fold(names, outcomes) -> list:
    """One CheckResult per check name, from each cell's _cell outcome in
    grid order: exactly the result of one pass of each check over the grid.

    Check by check, then cell by cell: the first error in that order is
    raised, as such a pass raises it.  Cases add, passed is ANDed,
    failures and skips are joined, and a cell's worst replaces the total's
    when it ranks strictly above it (_above), as _track does case by case.
    """
    results = []
    for index, name in enumerate(names):
        total = CheckResult(name, True, 0)
        for states, error in outcomes:
            if index == len(states):
                raise error
            part = CheckResult(**states[index])
            total.cases += part.cases
            total.passed = total.passed and part.passed
            total.failures += part.failures
            total.skips += part.skips
            if _above(part.worst_magnitude, total.worst_magnitude):
                total.worst = part.worst
                total.worst_magnitude = part.worst_magnitude
        results.append(total)
    return results


def _compare(value: Scalar, reference: Scalar, exact: bool) -> tuple:
    """(equal, float(|value - reference|)): equal is the exact verdict
    (False in float mode), and equal exact values skip the subtraction."""
    equal = exact and value == reference
    return equal, 0.0 if equal else float(abs(value - reference))


def _above(magnitude: float, worst: float) -> bool:
    """Whether a case of this magnitude ranks strictly above the worst one:
    by size, with NaN above every number, so a tie keeps the earlier case.
    Every magnitude is >= 0 or NaN, so any case ranks above CheckResult's
    starting worst_magnitude of -1."""
    return not math.isnan(worst) and (magnitude > worst
                                      or math.isnan(magnitude))


def _track(result: CheckResult, ok: bool, magnitude: float, info):
    """Count one case against result; info() builds the case's record, and
    runs only when the case fails or becomes the worst (_above)."""
    worst = _above(magnitude, result.worst_magnitude)
    if ok and not worst:
        return
    record = info()
    if worst:
        result.worst = record
        result.worst_magnitude = magnitude
    if not ok:
        result.passed = False
        result.failures.append(record)


def _engines(corrupt_engine: Optional[str]) -> dict:
    """_ENGINES, with the named engine perturbed by 1e-9 at n = k+1 (see
    run_verify)."""
    engines = dict(_ENGINES)
    if corrupt_engine is None:
        return engines
    if corrupt_engine not in engines:
        raise DomainError(
            f"--corrupt-engine: unknown engine {corrupt_engine!r}; "
            f"valid engines: {', '.join(engines)}")
    original = engines[corrupt_engine]

    def corrupted(params, ns):
        bump = Fraction(1, 10 ** 9) if params.mode is Mode.EXACT else 1e-9
        for n, value in zip(ns, original(params, ns)):
            yield value + bump if n == params.k + 1 else value

    engines[corrupt_engine] = corrupted
    return engines


def _verify_plan(mode: Mode, n_max: int, r_max: int,
                 corrupt_engine: Optional[str]) -> _Plan:
    return _Plan(tuple(_CHECKS), mode, n_max=n_max, r_max=r_max,
                 s_values=_S_VALUES, engines=_engines(corrupt_engine))


@pool.register
def _verify_cell(mode: str, n_max: int, r_max: int,
                 corrupt_engine: Optional[str], p, k: int) -> tuple:
    """The _cell outcome of one of run_verify's cells.  The arguments are
    what marshal carries: the mode's value, and p as a float or as a
    Fraction's (numerator, denominator)."""
    plan = _verify_plan(Mode(mode), n_max, r_max, corrupt_engine)
    return _cell(plan, Fraction(*p) if isinstance(p, tuple) else p, k)


def run_verify(p_values=DEFAULT_P_GRID, k_max: int = DEFAULT_K_MAX,
               n_max: int = DEFAULT_N_MAX, r_max: int = DEFAULT_R_MAX,
               mode: Mode = Mode.EXACT,
               corrupt_engine: Optional[str] = None) -> VerifyReport:
    """Run the full verification sweep; the default grid reproduces the
    library's acceptance surface in exact mode.

    Each (p, k) cell is one task of geomk.pool, in grid order: the pool
    deals the tasks round-robin among min(usable CPUs, cells) processes,
    this one and forked workers, and returns each cell's results of all
    six checks in grid order, where they fold (_fold).  So the report is
    the same for any number of CPUs.

    corrupt_engine is a test hook: it perturbs the named pmf engine by 1e-9
    at n = k+1 so the harness's failure path can itself be exercised.
    A grid that would check nothing raises DomainError.
    """
    if not p_values:
        raise DomainError("--p-grid: no probabilities given")
    for flag, value, least in (("--k-max", k_max, 1), ("--n-max", n_max, 0),
                               ("--r-max", r_max, 1)):
        if value < least:
            raise DomainError(f"{flag}: must be >= {least}, got {value}")
    plan = _verify_plan(mode, n_max, r_max, corrupt_engine)
    wire = [(p.numerator, p.denominator) if isinstance(p, Fraction) else p
            for p in p_values]
    outcomes = pool.run(_verify_cell,
                        [(mode.value, n_max, r_max, corrupt_engine, p, k)
                         for p, k in _cells(wire, k_max)])
    grid = {"p": [str(p) for p in p_values], "k_max": k_max,
            "n_max": n_max, "r_max": r_max}
    return VerifyReport(mode=mode.value, grid=grid,
                        checks=_fold(plan.checks, outcomes))
