"""Factorial moments and their conversions.

The central identity: the r-th factorial moment of the waiting time equals

    mu_(r) = r! * f((r+1)k + r) / (q p^k)^{r+1},

a single pmf evaluation.  Two further routes expand that pmf value as finite
binomial sums (one needing the extended binomial conventions, one
vanishing-free); all three must agree bit-exactly on rationals.  Since the
n_r = (r+1)k + r ascend with r, every route draws all the r it needs from
one pass of its engine (_factorial_moments over pmf._engine_values): one
kernel walk for the pmf route, one term-generator run for each sum.

An independent truncated-series oracle sums n(n-1)...(n-r+1) f(n) directly
from the recurrence, with the truncation point chosen from the spectral
tail envelope, so the identity itself is verifiable without trusting it.

In exact mode, with p = a/b and q = c/b, every factorial, raw and central
moment is an integer over a power of D = c a^k: mu_(r) = r! b g(n) / D^(r+1)
for f(n) = g(n) / b^n.  moment_report converts the factorial moments to
those integers and builds the raw and central moments from them, reducing
each value to a Fraction once.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import roots as roots_mod
from .numerics import (ConsistencyError, DomainError, Mode, Scalar, SolverError,
                       falling_factorial)
from .params import Params, as_float_params, qpk
from .pmf import (Engine, _engine_values, _float_pmf, _json_scalar,
                  _over_power, _scaled_pmf, _scaled_pq)

logger = logging.getLogger(__name__)


def _factorial_moments(params: Params, rs, engine: Engine):
    """mu_(r) for each r of the ascending rs, from one _engine_values pass
    over the ascending n_r = (r+1)k + r.

    A float (q p^k)^(r+1) or f(n_r) below the normal double range raises
    DomainError, as does a moment past it (_finite): a subnormal value has
    lost bits, up to all of them.
    """
    k, base = params.k, qpk(params)
    tiny = sys.float_info.min if params.mode is Mode.FLOAT else None

    def moment(r, n, f):
        power = base ** (r + 1)
        if tiny and power < tiny:
            raise DomainError(f"factorial moment r={r} of {params}: (q p^k)^{r + 1} "
                              f"underflows the float range; use exact mode")
        if tiny and abs(f) < tiny:
            raise DomainError(f"factorial moment r={r} of {params}: f({n}) "
                              f"underflows the float range; use exact mode")
        return _finite(lambda: math.factorial(r) * f / power,
                       f"factorial moment r={r}", params)

    ns = [(r + 1) * k + r for r in rs]
    return map(moment, rs, ns, _engine_values(params, engine, ns))


def factorial_moment(params: Params, r: int,
                     engine: Engine = Engine.RECURRENCE) -> Scalar:
    """mu_(r) = r! f((r+1)k + r) / (q p^k)^{r+1} via the chosen pmf engine."""
    _check_r(r)
    return next(_factorial_moments(params, (r,), engine))


def factorial_moment_muselli(params: Params, r: int) -> Scalar:
    """mu_(r) as the finite alternating sum over m = 1..r+1.

    This is the pmf sum specialized to n = (r+1)k + r, where the upper limit
    collapses to r+1; it exercises C(-1,-1) = 1 at m = r+1 when k = 1.
    Terms are evaluated exactly in both modes (see pmf._finish_sum).
    """
    _check_r(r)
    return next(_factorial_moments(params, (r,), Engine.MUSELLI))


def factorial_moment_closed(params: Params, r: int) -> Scalar:
    """mu_(r) from the vanishing-free pmf form, upper limits r+1 and r."""
    _check_r(r)
    return next(_factorial_moments(params, (r,), Engine.CLOSED_FORM))


def mean(params: Params) -> Scalar:
    """E[N] = (1 - p^k) / (q p^k).

    Both closed forms are one ratio of integers from p = a/b and q = c/b
    (pmf._scaled_pq), reduced or rounded once (_ratio): in floats,
    1 - p^k and the terms of the variance cancel near p = 1.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    return _ratio((b ** k - a ** k) * b, c * a ** k, "mean", params)


def variance(params: Params) -> Scalar:
    """Var[N] = 1/(q p^k)^2 - (2k+1)/(q p^k) - p/q^2."""
    a, c, b = _scaled_pq(params)
    k = params.k
    a_k, b_k1 = a ** k, b ** (k + 1)
    # Over the common denominator c^2 a^2k, with p = a/b and q = c/b.
    num = b_k1 * (b_k1 - (2 * k + 1) * c * a_k) - a * a_k * a_k * b
    return _ratio(num, c * c * a_k * a_k, "variance", params)


def _ratio(num: int, den: int, what: str, params: Params) -> Scalar:
    """num/den reduced once, or in float mode rounded once (_finite)."""
    if params.mode is Mode.EXACT:
        return Fraction(num, den)
    return _finite(lambda: num / den, what, params)


def _finite(compute, what: str, params: Params) -> Scalar:
    """compute(), or DomainError naming what if it overflows (an int too
    large for a double meets a float) or a float result is not finite."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not abs(value) < math.inf:
        raise DomainError(f"{what} of {params} exceeds the float range; "
                          f"use exact mode")
    return value


@lru_cache(maxsize=None)
def stirling2(m: int, j: int) -> int:
    """Stirling numbers of the second kind by the triangular recurrence."""
    if m == j:
        return 1
    if j < 1 or j > m:
        return 0
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


@dataclass(frozen=True)
class MomentReport:
    params: Params
    r_max: int
    factorial: tuple        # mu_(1) .. mu_(r_max)
    raw: tuple              # E[N], E[N^2], ...
    central: tuple          # orders 2..r_max (variance first); empty if r_max < 2
    mean: Scalar
    variance: Scalar
    method: Engine

    def to_dict(self):
        return {
            "p": str(self.params.p),
            "k": self.params.k,
            "mode": self.params.mode.value,
            "method": self.method.value,
            "r_max": self.r_max,
            "factorial": [_json_scalar(v) for v in self.factorial],
            "raw": [_json_scalar(v) for v in self.raw],
            "central": [_json_scalar(v) for v in self.central],
            "mean": _json_scalar(self.mean),
            "variance": _json_scalar(self.variance),
        }


def moment_report(params: Params, r_max: int,
                  engine: Engine = Engine.RECURRENCE) -> MomentReport:
    """Factorial moments for r = 1..r_max plus raw/central conversions.

    All r come from one pass of the engine (_factorial_moments).  Raw
    moments use E[N^m] = sum_j S(m, j) mu_(j) with exact integer Stirling
    numbers; central moments expand binomially around the mean.  Exact mode
    evaluates both sums on integers (_exact_conversions); in float mode the
    first moment past the double range raises DomainError (_finite).
    """
    _check_r(r_max)
    factorial = list(_factorial_moments(params, range(1, r_max + 1), engine))
    for r, value in enumerate(factorial, start=1):
        if not value > 0:
            raise ConsistencyError(f"factorial moment r={r} not positive: {value}")
    if any(b <= a for a, b in zip(factorial, factorial[1:])):
        logger.info("factorial moments not strictly increasing for %s", params)

    if params.mode is Mode.EXACT:
        raw, central = _exact_conversions(params, factorial)
    else:
        raw = [_finite(lambda: sum(stirling2(m, j) * factorial[j - 1]
                                   for j in range(1, m + 1)),
                       f"raw moment r={m}", params)
               for m in range(1, r_max + 1)]
        mu = factorial[0]
        raw0 = [1] + raw
        central = []
        for m in range(2, r_max + 1):
            central.append(_finite(
                lambda: sum(math.comb(m, i) * raw0[i] * (-mu) ** (m - i)
                            for i in range(m + 1)),
                f"central moment r={m}", params))
    return MomentReport(params=params, r_max=r_max, factorial=tuple(factorial),
                        raw=tuple(raw), central=tuple(central),
                        mean=mean(params), variance=variance(params),
                        method=engine)


def _exact_conversions(params: Params, factorial) -> tuple:
    """(raw, central) for exact factorial moments mu_(1..r_max), each a
    Fraction reduced once.

    With p = a/b, q = c/b and D = c a^k, mu_(j) = j! b g((j+1)k + j) / D^(j+1)
    (f(n) = g(n) / b^n), so N_j = mu_(j) D^(j+1) is an integer; a remainder
    raises ConsistencyError.  Then E[N^m] = R_m / D^(m+1) with
    R_m = sum_j S(m, j) N_j D^(m-j), and the m-th central moment is
    sum_i C(m, i) U_i (-N_1)^(m-i) / D^(2m) with U_0 = 1 and
    U_i = R_i D^(i-1).  Both sums run by Horner's rule, in D and in -N_1,
    and each value is reduced by one gcd.  (Dividing out the factors of D
    one gcd at a time, as pmf._over_power does for powers of b, is slower
    here: the shared power of D runs to hundreds of steps at large r_max.)
    """
    a, c, _ = _scaled_pq(params)
    d = c * a ** params.k
    powers = [1]                              # D^0 .. D^(2 r_max)
    for _ in range(2 * len(factorial)):
        powers.append(powers[-1] * d)
    scaled = []
    for j, value in enumerate(factorial, start=1):
        shared, rest = divmod(powers[j + 1], value.denominator)
        if rest:
            raise ConsistencyError(
                f"factorial moment r={j} of {params} is not an integer over "
                f"(c a^k)^{j + 1}")
        scaled.append(value.numerator * shared)

    raw, spread = [], [1]                     # spread: U_0, U_1, ...
    for m in range(1, len(factorial) + 1):
        total = 0
        for j in range(1, m + 1):
            total = total * d + stirling2(m, j) * scaled[j - 1]
        raw.append(Fraction(total, powers[m + 1]))
        spread.append(total * powers[m - 1])
    shift = -scaled[0]
    central = []
    for m in range(2, len(factorial) + 1):
        total = 0
        for i in range(m + 1):
            total = total * shift + math.comb(m, i) * spread[i]
        central.append(Fraction(total, powers[2 * m]))
    return raw, central


def _check_r(r: int):
    if r < 1:
        raise DomainError(f"moment order r must be >= 1, got {r}")


@dataclass(frozen=True)
class SeriesOracle:
    """Truncated moment sums S_r = sum_{n<=n_terms} n(n-1)..(n-r+1) f(n).

    bounds[r-1] dominates the discarded tail, so any claimed mu_(r) must sit
    within bounds[r-1] of sums[r-1]; in exact mode mu_(r) - S_r is exactly
    the (positive) tail.
    """
    sums: tuple
    bounds: tuple
    n_terms: int


_MAX_ORACLE_TERMS = 4_000_000
_CHECK_EVERY = 128


def factorial_moment_series(params: Params, r_max: int,
                            rel_tol: float = 1e-15) -> SeriesOracle:
    """Independent oracle: sum the factorial-moment series term by term.

    The truncation point is found from the spectral envelope f(n) <= A m^n
    (float arithmetic is used only to decide where to stop).  In exact mode
    the partial sums are computed on scaled integers: with p = a/b the pmf
    is f(n) = g(n) / b^n for the integers g of pmf._scaled_pmf, so each
    partial sum is an integer over b^n, extended by S <- S b + n^(r) g(n)
    and reduced once at the end.  Float mode sums the float recurrence with
    Neumaier compensation.  The stop test reads these partial sums (exact
    ones rounded once, float ones with their carries).  An oracle that
    cannot stop within _MAX_ORACLE_TERMS terms raises SolverError before it
    sums (_check_reach), and one whose float terms or tail bounds pass the
    double range raises SolverError when they do.
    """
    _check_r(r_max)
    k = params.k
    fparams = as_float_params(params)
    root_set = roots_mod.find_roots(fparams)
    env_a, env_m = roots_mod.pmf_envelope(fparams, root_set)
    _check_reach(params, r_max, rel_tol, env_a, env_m)
    exact = params.mode is Mode.EXACT

    if exact:
        a, c, b = _scaled_pq(params)
        values = _scaled_pmf(a, c, k)
        sums = [0] * r_max                        # scaled by b^n
    else:
        values = _float_pmf(params)
        sums = [0.0] * r_max
        carries = [0.0] * r_max

    try:
        for n, value in enumerate(values, start=k):
            for ri in range(r_max):
                ff = falling_factorial(n, ri + 1)
                if exact:
                    sums[ri] = sums[ri] * b + ff * value
                else:
                    term = ff * value
                    t = sums[ri] + term
                    if abs(sums[ri]) >= abs(term):
                        carries[ri] += (sums[ri] - t) + term
                    else:
                        carries[ri] += (term - t) + sums[ri]
                    sums[ri] = t

            if n % _CHECK_EVERY == 0 or n - k < 8:
                bounds = [_series_tail_bound(env_a, env_m, n, ri + 1)
                          for ri in range(r_max)]
                if exact:
                    scale = b ** n
                    partial = [s / scale for s in sums]
                else:
                    partial = [s + c for s, c in zip(sums, carries)]
                if all(bd is not None and bd <= rel_tol * s
                       for bd, s in zip(bounds, partial)):
                    break
            if n - k >= _MAX_ORACLE_TERMS:
                raise SolverError(
                    f"series oracle did not reach rel_tol={rel_tol} within "
                    f"{_MAX_ORACLE_TERMS} terms for {params}")
    except OverflowError:
        # n^(r) in a float term, (n+1)^r in the tail bound or an exact
        # partial sum is too large for a double.
        raise SolverError(
            f"series oracle left the double range (about 1.8e308) at "
            f"n={n} with r_max={r_max} for {params}") from None

    if exact:
        scale = b ** n
        final = tuple(_over_power(s, scale, b) for s in sums)
    else:
        final = tuple(s + c for s, c in zip(sums, carries))
    return SeriesOracle(sums=final, bounds=tuple(bounds), n_terms=n)


def _check_reach(params: Params, r_max: int, rel_tol: float,
                 env_a: float, env_m: float):
    """Raise SolverError if the oracle's truncation test cannot pass within
    _MAX_ORACLE_TERMS terms.

    The test needs _series_tail_bound(n, r_max) <= rel_tol * S, and the
    float partial sum S stays below mu_(r_max).  Where the bound is defined
    (a suffix of n, as rho falls with n) it decreases, since consecutive
    leads differ by the factor rho < 1 and 1 - rho grows.  So the first n
    at which it falls to rel_tol * mu_(r_max) comes no later than the
    loop's stop, and it lies past the last n the loop reaches exactly when
    the bound there is still above.  The float estimate of mu_(r_max) is
    doubled to cover its rounding and that of S; an estimate that is not a
    finite positive double, or a bound past the float range, skips the check.
    """
    try:
        estimate = 2 * factorial_moment(as_float_params(params), r_max)
        bound = _series_tail_bound(env_a, env_m, params.k + _MAX_ORACLE_TERMS,
                                   r_max)
    except (DomainError, OverflowError):
        return
    if not 0 < estimate < math.inf:
        return
    if bound is None or bound > rel_tol * estimate:
        raise SolverError(
            f"series oracle cannot reach rel_tol={rel_tol} within "
            f"{_MAX_ORACLE_TERMS} terms for {params}")


def _series_tail_bound(env_a: float, env_m: float, n: int, r: int) -> Optional[float]:
    """Bound sum_{j>n} j(j-1)..(j-r+1) f(j) via f(j) <= A m^j and
    j^r m^j <= (n+1)^r m^{n+1} rho^{j-n-1} with rho = m ((n+2)/(n+1))^r."""
    rho = env_m * ((n + 2) / (n + 1)) ** r
    if rho >= 1.0:
        return None
    lead = env_a * (n + 1) ** r * env_m ** (n + 1)
    return lead / (1.0 - rho)
