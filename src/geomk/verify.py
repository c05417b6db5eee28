"""Cross-validation sweeps: every redundant route must agree with the others.

These are the checks behind the `verify` CLI subcommand.  Each returns a
CheckResult with the worst deviation seen, so a failure pinpoints the
(p, k, n or r) cell that broke.

The routes under test are tables of one-pass functions: _ENGINES maps an
alternating-sum engine to its pmf values over all n of a cell, and
_MOMENT_ROUTES a moment route to its mu_(r) over all r of a cell, each
through the library's one engine dispatch (pmf._engine_values).  A new
route is one more entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional

from . import moments as moments_mod
from . import roots as roots_mod
from .numerics import DomainError, Mode, Scalar, SolverError
from .params import Params, make_params
# pmf_muselli stays importable from here: perfbench's tracer rebinds it.
from .pmf import (Engine, _engine_values, _float_pmf,  # noqa: F401
                  _rootsum_values, _scaled_pmf, _scaled_pq, _tail_mass,
                  pgf_eval, pmf_muselli, recurrence_series)

FLOAT_PMF_TOL = 1e-10       # absolute, engine vs recurrence
FLOAT_MOMENT_TOL = 1e-9     # relative, across the three moment routes

DEFAULT_P_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
DEFAULT_K_MAX = 6
DEFAULT_N_MAX = 200
DEFAULT_R_MAX = 8


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
        return {"name": self.name, "passed": self.passed, "cases": self.cases,
                "skipped": len(self.skips), "worst": self.worst,
                "failures": self.failures[:10]}


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


def _grid_params(p_values, k_max, mode: Mode):
    for p in p_values:
        for k in range(1, k_max + 1):
            yield make_params(p if mode is Mode.EXACT else float(p), k)


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


def check_cross_engine_pmf(p_values, k_max: int, n_max: int, mode: Mode,
                           engines: Optional[dict] = None) -> CheckResult:
    """Alternating-sum engines against the recurrence on the full grid.

    engines maps a name to a term generator (params, ns) -> f(n) for n in
    ns (default: the muselli and closedform engines' own), each run in one
    pass per (p, k) cell.  Exact mode demands bit-exact equality of reduced
    rationals; float mode allows FLOAT_PMF_TOL absolute deviation.
    """
    if engines is None:
        engines = _ENGINES
    result = CheckResult("cross_engine_pmf", True, 0)
    exact, ns = mode is Mode.EXACT, range(n_max + 1)
    for params in _grid_params(p_values, k_max, mode):
        reference = recurrence_series(params, n_max)
        for name, values in engines.items():
            for n, value, expected in zip(ns, values(params, ns), reference):
                equal, dev = _compare(value, expected, exact)
                result.cases += 1
                ok = equal if exact else dev <= FLOAT_PMF_TOL
                _track(result, ok, dev,
                       lambda: {"engine": name, "p": str(params.p),
                                "k": params.k, "n": n, "deviation": dev})
    return result


def check_rootsum_pmf(p_values, k_max: int, n_max: int,
                      find_roots=None) -> CheckResult:
    """Spectral engine against the recurrence (always float), on every
    (p, k) cell of the grid, p = k/(k+1) and its neighbours included.
    find_roots solves each cell (default roots.find_roots); see
    _solved_cells.
    """
    find_roots = find_roots or roots_mod.find_roots
    result = CheckResult("rootsum_pmf", True, 0)
    cells = _grid_params(p_values, k_max, Mode.FLOAT)
    for params, root_set in _solved_cells(result, cells, find_roots):
        reference = recurrence_series(params, n_max)
        values = _rootsum_values(params, root_set, range(n_max + 1))
        for n, value in enumerate(values):
            dev = abs(value - reference[n])
            result.cases += 1
            _track(result, dev <= FLOAT_PMF_TOL, dev,
                   lambda: {"p": str(params.p), "k": params.k, "n": n,
                            "deviation": dev})
    return result


def check_moment_routes(p_values, k_max: int, r_max: int,
                        mode: Mode) -> CheckResult:
    """Three-route factorial-moment agreement on the (p, k, r) grid: per
    cell, one pass of the pmf route and one of each _MOMENT_ROUTES sum."""
    result = CheckResult("moment_routes", True, 0)
    rs = range(1, r_max + 1)
    for params in _grid_params(p_values, k_max, mode):
        reference = list(_via_pmf(params, rs))
        routes = [(name, list(route(params, rs)))
                  for name, route in _MOMENT_ROUTES.items()]
        for r, via_pmf in zip(rs, reference):
            for name, values in routes:
                equal, dev = _compare(values[r - 1], via_pmf, mode is Mode.EXACT)
                rel = dev / float(abs(via_pmf))
                result.cases += 1
                ok = equal if mode is Mode.EXACT else rel <= FLOAT_MOMENT_TOL
                _track(result, ok, rel,
                       lambda: {"route": name, "p": str(params.p),
                                "k": params.k, "r": r,
                                "relative_deviation": rel})
    return result


def check_mean_variance(p_values, k_max: int, mode: Mode) -> CheckResult:
    """Closed-form mean/variance against the factorial-moment chain."""
    result = CheckResult("mean_variance", True, 0)
    for params in _grid_params(p_values, k_max, mode):
        mu1, mu2 = _via_pmf(params, (1, 2))
        mu = moments_mod.mean(params)
        var = moments_mod.variance(params)
        chain = mu2 - mu1 * mu1 + mu1
        for name, lhs, rhs in (("mean", mu1, mu), ("variance", chain, var)):
            equal, dev = _compare(lhs, rhs, mode is Mode.EXACT)
            rel = dev / max(float(abs(rhs)), 1.0)
            result.cases += 1
            ok = equal if mode is Mode.EXACT else rel <= FLOAT_MOMENT_TOL
            _track(result, ok, rel,
                   lambda: {"identity": name, "p": str(params.p),
                            "k": params.k, "relative_deviation": rel})
    return result


def check_root_certification(p_values, k_max: int,
                             find_roots=None) -> CheckResult:
    """The certificate find_roots attaches must pass on every float (p, k)
    pair that find_roots solves (find_roots as in check_rootsum_pmf)."""
    find_roots = find_roots or roots_mod.find_roots
    result = CheckResult("root_certification", True, 0)
    cells = _grid_params(p_values, k_max, Mode.FLOAT)
    for params, root_set in _solved_cells(result, cells, find_roots):
        cert = root_set.certificate
        worst = max(cert.identity_residuals)
        result.cases += 1
        _track(result, cert.passed, worst,
               lambda: {"p": str(params.p), "k": params.k,
                        "max_identity_residual": worst,
                        "positive_real_count": cert.positive_real_count,
                        "max_magnitude": cert.max_magnitude})
    return result


def pgf_series_gap(params: Params, s: Scalar, bound_tol: float = 1e-12):
    """(|pgf - truncated series|, tail bound, n used) at the point s.

    The remainder sum_{i>n} f(i) s^i is at most |s|^(n+1) P(N > n), with
    P(N > n) = f(n+k+1) / (q p^k) (pmf._tail_mass).  n starts at
    max(k + 1, 8) and grows by max(8, n // 4) until that bound is at most
    bound_tol, on one recurrence walk that each step extends.  In exact mode
    the gap and the bound are exact rationals, each rounded once by one
    int / int division, so an exact gap <= bound holds in floats too.
    """
    return next(_pgf_series_gaps(params, (s,), bound_tol))


def _pgf_series_gaps(params: Params, s_values, bound_tol: float = 1e-12):
    """Yield pgf_series_gap(params, s, bound_tol) for each s of s_values,
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
        while (bound := bound_at(n)) > bound_tol:
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


def check_pgf_identity(p_values, k_max: int, s_values,
                       mode: Mode) -> CheckResult:
    """Truncated pmf series against the closed-form generating function."""
    result = CheckResult("pgf_identity", True, 0)
    slack = 0.0 if mode is Mode.EXACT else 1e-12
    typed = [Fraction(s) if mode is Mode.EXACT else float(s) for s in s_values]
    for params in _grid_params(p_values, k_max, mode):
        # one recurrence walk per cell serves every s
        gaps = _pgf_series_gaps(params, typed)
        for s, (gap, bound, _) in zip(s_values, gaps):
            result.cases += 1
            _track(result, gap <= bound + slack, gap,
                   lambda: {"p": str(params.p), "k": params.k, "s": str(s),
                            "gap": gap, "tail_bound": bound})
        one = Fraction(1) if mode is Mode.EXACT else 1.0
        at_one = pgf_eval(params, one)
        gap = float(abs(at_one - 1))
        result.cases += 1
        _track(result, at_one == 1, gap,
               lambda: {"p": str(params.p), "k": params.k, "s": "1",
                        "gap": gap})
    return result


def _compare(value: Scalar, reference: Scalar, exact: bool) -> tuple:
    """(equal, float(|value - reference|)): equal is the exact verdict
    (False in float mode), and equal exact values skip the subtraction."""
    equal = exact and value == reference
    return equal, 0.0 if equal else float(abs(value - reference))


def _solved_cells(result: CheckResult, cells, find_roots):
    """Yield (params, find_roots(params)) for each float params in cells.  A
    cell where find_roots raises SolverError is skipped: it goes into
    result.skips with its reason, adds no case and never counts as a pass."""
    for params in cells:
        try:
            root_set = find_roots(params)
        except SolverError as exc:
            result.skips.append({"p": str(params.p), "k": params.k, "reason": str(exc)})
            continue
        yield params, root_set


def _solved_once(find_roots):
    """find_roots keeping each params' outcome, a raised SolverError
    included (functools.cache keeps no exception), for checks that share
    cells: each later call returns or raises it again."""
    outcomes = {}

    def solve(params):
        if params not in outcomes:
            try:
                outcomes[params] = find_roots(params)
            except SolverError as exc:
                outcomes[params] = exc
        if isinstance(outcomes[params], SolverError):
            raise outcomes[params]
        return outcomes[params]

    return solve


def _track(result: CheckResult, ok: bool, magnitude: float, info):
    """Count one case against result; info() builds the case's record, and
    runs only when the case fails or sets a new worst."""
    worst = result.worst is None or magnitude > result.worst_magnitude
    if ok and not worst:
        return
    record = info()
    if worst:
        result.worst = record
        result.worst_magnitude = magnitude
    if not ok:
        result.passed = False
        result.failures.append(record)


def run_verify(p_values=DEFAULT_P_GRID, k_max: int = DEFAULT_K_MAX,
               n_max: int = DEFAULT_N_MAX, r_max: int = DEFAULT_R_MAX,
               mode: Mode = Mode.EXACT,
               corrupt_engine: Optional[str] = None) -> VerifyReport:
    """Run the full verification sweep; the default grid reproduces the
    library's acceptance surface in exact mode.

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
    engines = dict(_ENGINES)
    if corrupt_engine is not None:
        if corrupt_engine not in engines:
            raise DomainError(
                f"--corrupt-engine: unknown engine {corrupt_engine!r}; "
                f"valid engines: {', '.join(engines)}")
        original = engines[corrupt_engine]

        def corrupted(params, ns, _values=original):
            bump = Fraction(1, 10 ** 9) if params.mode is Mode.EXACT else 1e-9
            for n, value in zip(ns, _values(params, ns)):
                yield value + bump if n == params.k + 1 else value

        engines[corrupt_engine] = corrupted

    s_values = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    find_roots = _solved_once(roots_mod.find_roots)
    checks = [
        check_cross_engine_pmf(p_values, k_max, n_max, mode, engines),
        check_rootsum_pmf(p_values, k_max, min(n_max, 100), find_roots),
        check_moment_routes(p_values, k_max, r_max, mode),
        check_mean_variance(p_values, k_max, mode),
        check_root_certification(p_values, k_max, find_roots),
        check_pgf_identity(p_values, k_max, s_values, mode),
    ]
    grid = {"p": [str(p) for p in p_values], "k_max": k_max,
            "n_max": n_max, "r_max": r_max}
    return VerifyReport(mode=mode.value, grid=grid, checks=checks)
