"""Cross-validation sweeps: every redundant route must agree with the others.

These are the checks behind the `verify` CLI subcommand.  Each returns a
CheckResult with the worst deviation seen, so a failure pinpoints the
(p, k, n or r) cell that broke.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional

from . import moments as moments_mod
from . import roots as roots_mod
from .numerics import DomainError, Mode, PrecisionWarning, Scalar
from .params import Params, as_float_params, make_params
from .pmf import (_rootsum_values, _scaled_pmf, _scaled_pq, pgf_eval,
                  pmf_closedform, pmf_muselli, recurrence_series)

FLOAT_PMF_TOL = 1e-10       # absolute, engine vs recurrence
FLOAT_MOMENT_TOL = 1e-9     # relative, across the three moment routes
ROOTSUM_DEGENERACY_SKIP = 1e-6

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

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "cases": self.cases,
                "worst": self.worst, "failures": self.failures[:10]}


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


def check_cross_engine_pmf(p_values, k_max: int, n_max: int, mode: Mode,
                           engines: Optional[dict] = None) -> CheckResult:
    """Alternating-sum engines against the recurrence on the full grid.

    Exact mode demands bit-exact equality of reduced rationals; float mode
    allows FLOAT_PMF_TOL absolute deviation.
    """
    if engines is None:
        engines = {"muselli": pmf_muselli,
                   "closedform": pmf_closedform}
    result = CheckResult("cross_engine_pmf", True, 0)
    for params in _grid_params(p_values, k_max, mode):
        reference = recurrence_series(params, n_max)
        for name, fn in engines.items():
            for n in range(n_max + 1):
                value = fn(params, n)
                dev = _deviation(value, reference[n], mode)
                result.cases += 1
                ok = (value == reference[n] if mode is Mode.EXACT
                      else dev <= FLOAT_PMF_TOL)
                _track(result, ok, dev,
                       {"engine": name, "p": str(params.p), "k": params.k,
                        "n": n, "deviation": dev})
    return result


def check_rootsum_pmf(p_values, k_max: int, n_max: int) -> CheckResult:
    """Spectral engine against the recurrence (always float).

    Pairs within ROOTSUM_DEGENERACY_SKIP of p = k/(k+1) but not flagged
    degenerate are skipped: there the generic weights are ill-conditioned
    and only the exactly-degenerate branch is well-posed.
    """
    result = CheckResult("rootsum_pmf", True, 0)
    for p in p_values:
        for k in range(1, k_max + 1):
            params = make_params(float(p), k)
            near = abs(float(p) - k / (k + 1))
            if not params.degenerate.is_degenerate and near < ROOTSUM_DEGENERACY_SKIP:
                continue
            root_set = roots_mod.find_roots(params)
            reference = recurrence_series(params, n_max)
            values = _rootsum_values(params, root_set, range(n_max + 1))
            for n, value in enumerate(values):
                dev = abs(value - reference[n])
                result.cases += 1
                _track(result, dev <= FLOAT_PMF_TOL, dev,
                       {"p": repr(float(p)), "k": k, "n": n, "deviation": dev})
    return result


def check_moment_routes(p_values, k_max: int, r_max: int,
                        mode: Mode) -> CheckResult:
    """Three-route factorial-moment agreement on the (p, k, r) grid."""
    result = CheckResult("moment_routes", True, 0)
    for params in _grid_params(p_values, k_max, mode):
        for r in range(1, r_max + 1):
            via_pmf = moments_mod.factorial_moment(params, r)
            routes = {
                "muselli_sum": moments_mod.factorial_moment_muselli(params, r),
                "closed_sum": moments_mod.factorial_moment_closed(params, r),
            }
            for name, value in routes.items():
                dev = _deviation(value, via_pmf, mode)
                rel = dev / float(abs(via_pmf))
                result.cases += 1
                ok = (value == via_pmf if mode is Mode.EXACT
                      else rel <= FLOAT_MOMENT_TOL)
                _track(result, ok, rel,
                       {"route": name, "p": str(params.p), "k": params.k,
                        "r": r, "relative_deviation": rel})
    return result


def check_mean_variance(p_values, k_max: int, mode: Mode) -> CheckResult:
    """Closed-form mean/variance against the factorial-moment chain."""
    result = CheckResult("mean_variance", True, 0)
    for params in _grid_params(p_values, k_max, mode):
        mu1 = moments_mod.factorial_moment(params, 1)
        mu2 = moments_mod.factorial_moment(params, 2)
        mu = moments_mod.mean(params)
        var = moments_mod.variance(params)
        chain = mu2 - mu1 * mu1 + mu1
        for name, lhs, rhs in (("mean", mu1, mu), ("variance", chain, var)):
            dev = _deviation(lhs, rhs, mode)
            rel = dev / max(float(abs(rhs)), 1.0)
            result.cases += 1
            ok = lhs == rhs if mode is Mode.EXACT else rel <= FLOAT_MOMENT_TOL
            _track(result, ok, rel,
                   {"identity": name, "p": str(params.p), "k": params.k,
                    "relative_deviation": rel})
    return result


def check_root_certification(p_values, k_max: int) -> CheckResult:
    """find_roots + certify_roots must pass on every float (p, k) pair."""
    result = CheckResult("root_certification", True, 0)
    for p in p_values:
        for k in range(1, k_max + 1):
            params = make_params(float(p), k)
            cert = roots_mod.certify_roots(roots_mod.find_roots(params), params)
            worst = max(cert.identity_residuals)
            result.cases += 1
            _track(result, cert.passed, worst,
                   {"p": repr(float(p)), "k": k,
                    "max_identity_residual": worst,
                    "positive_real_count": cert.positive_real_count,
                    "max_magnitude": cert.max_magnitude})
    return result


def pgf_series_gap(params: Params, s: Scalar, bound_tol: float = 1e-12):
    """(|pgf - truncated series|, tail bound, n used) at the point s.

    The series is truncated once the geometric bound A (m s)^{N+1} / (1 - ms)
    on the remaining mass drops below bound_tol.
    """
    fparams = as_float_params(params)
    root_set = roots_mod.find_roots(fparams)
    env_a, env_m = roots_mod.pmf_envelope(fparams, root_set)
    sf = abs(float(s))
    ratio = env_m * sf
    n = max(params.k + 1, 8)
    while env_a * ratio ** (n + 1) / (1.0 - ratio) > bound_tol:
        n += max(8, n // 4)
    if params.mode is Mode.EXACT:
        partial = _exact_partial_sum(params, Fraction(s), n)
    else:
        series = recurrence_series(params, n)
        partial = sum(f * s ** i for i, f in enumerate(series))
    gap = float(abs(pgf_eval(params, s) - partial))
    bound = env_a * ratio ** (n + 1) / (1.0 - ratio)
    return gap, bound, n


def _exact_partial_sum(params: Params, s: Fraction, n: int) -> Fraction:
    """sum_{i<=n} f(i) s^i for exact params, reduced once.

    With s = u/v and f(i) = g(i) / b^i the terms are g(i) u^i / w^i for
    w = b v, so Horner's rule in w keeps the running sum an integer.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    u, w = s.numerator, b * s.denominator
    acc, u_power = 0, u ** k
    for g in islice(_scaled_pmf(a, c, k), n - k + 1):
        acc = acc * w + g * u_power
        u_power *= u
    return Fraction(acc, w ** n)


def check_pgf_identity(p_values, k_max: int, s_values, mode: Mode) -> CheckResult:
    """Truncated pmf series against the closed-form generating function."""
    result = CheckResult("pgf_identity", True, 0)
    slack = 0.0 if mode is Mode.EXACT else 1e-12
    for params in _grid_params(p_values, k_max, mode):
        for s in s_values:
            s_typed = Fraction(s) if mode is Mode.EXACT else float(s)
            gap, bound, _ = pgf_series_gap(params, s_typed)
            result.cases += 1
            _track(result, gap <= bound + slack, gap,
                   {"p": str(params.p), "k": params.k, "s": str(s),
                    "gap": gap, "tail_bound": bound})
        one = Fraction(1) if mode is Mode.EXACT else 1.0
        at_one = pgf_eval(params, one)
        result.cases += 1
        _track(result, at_one == 1, float(abs(at_one - 1)),
               {"p": str(params.p), "k": params.k, "s": "1",
                "gap": float(abs(at_one - 1))})
    return result


def _deviation(value: Scalar, reference: Scalar, mode: Mode) -> float:
    """float(|value - reference|); equal exact values skip the subtraction."""
    if mode is Mode.EXACT and value == reference:
        return 0.0
    return float(abs(value - reference))


def _track(result: CheckResult, ok: bool, magnitude: float, info: dict):
    if result.worst is None or magnitude > result.worst_magnitude:
        result.worst = info
        result.worst_magnitude = magnitude
    if not ok:
        result.passed = False
        result.failures.append(info)


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
    engines = {"muselli": pmf_muselli,
               "closedform": pmf_closedform}
    if corrupt_engine is not None:
        if corrupt_engine not in engines:
            raise DomainError(
                f"--corrupt-engine: unknown engine {corrupt_engine!r}; "
                f"valid engines: {', '.join(engines)}")
        original = engines[corrupt_engine]

        def corrupted(params, n, _fn=original):
            value = _fn(params, n)
            if n == params.k + 1:
                bump = (Fraction(1, 10 ** 9) if params.mode is Mode.EXACT
                        else 1e-9)
                return value + bump
            return value

        engines[corrupt_engine] = corrupted

    s_values = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    # The checks quantify deviations themselves; per-cell cancellation
    # warnings would only repeat what the report already says.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PrecisionWarning)
        checks = [
            check_cross_engine_pmf(p_values, k_max, n_max, mode, engines),
            check_rootsum_pmf(p_values, k_max, min(n_max, 100)),
            check_moment_routes(p_values, k_max, r_max, mode),
            check_mean_variance(p_values, k_max, mode),
            check_root_certification(p_values, k_max),
            check_pgf_identity(p_values, k_max, s_values, mode),
        ]
    grid = {"p": [str(p) for p in p_values], "k_max": k_max,
            "n_max": n_max, "r_max": r_max}
    return VerifyReport(mode=mode.value, grid=grid, checks=checks)
