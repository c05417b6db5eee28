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
from the recurrence, stopping on a proved tail bound from P(N > n), never
the identity, so the identity itself is verifiable without trusting it.

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
from itertools import count, islice, tee

from . import roots as roots_mod
from .numerics import (ConsistencyError, DomainError, Mode, Scalar, SolverError,
                       falling_factorial)
from .params import Params, qpk
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

    bounds[r-1] dominates the discarded tail.  In exact mode mu_(r) - S_r
    is exactly that (positive) tail, so any claimed mu_(r) must sit within
    bounds[r-1] of sums[r-1].  In float mode the bounds cover the tail
    only, not the rounding of the float walk and sums, which can be far
    larger: at p = 0.8, k = 4, r = 1, |mu_(1) - S_1| is 8.9e-16 against a
    bound of 6.5e-23, and at p = 0.3, k = 3, r = 3 it is 7.9e-15 relative.
    A float comparison needs an allowance for that rounding on top.
    """
    sums: tuple
    bounds: tuple
    n_terms: int


_MAX_ORACLE_TERMS = 4_000_000
_CHECK_EVERY = 128
_REL_TOL = 1e-15           # the oracle stops once every bound is this small


def factorial_moment_series(params: Params, r_max: int) -> SeriesOracle:
    """Independent oracle: sum the factorial-moment series term by term,
    until every bound of _tail_bounds is at most _REL_TOL times its sum.

    In exact mode the partial sums are integers over b^n for p = a/b
    (f(n) = g(n) / b^n, g from pmf._scaled_pmf), extended by
    S <- S b + n^(r) g(n) and reduced once at the end.  Float mode sums the
    float recurrence with Neumaier compensation.  The stop test reads these
    sums (exact ones rounded once) and P(N > n) = f(n+k+1) / (q p^k), k + 1
    values ahead on the same walk, rounded up.  An oracle that cannot stop
    within _MAX_ORACLE_TERMS terms raises SolverError before it sums
    (_check_reach), and one whose float terms or bounds pass the double
    range raises it when they do.
    """
    _check_r(r_max)
    _check_reach(params)
    k = params.k
    exact = params.mode is Mode.EXACT

    if exact:
        a, c, b = _scaled_pq(params)
        d = c * a ** k                            # q p^k = d / b^(k+1)
        values = _scaled_pmf(a, c, k)
        sums = [0] * r_max                        # scaled by b^n
    else:
        base = qpk(params)
        values = _float_pmf(params)
        sums = [0.0] * r_max
        carries = [0.0] * r_max
    behind, ahead = tee(values)

    try:
        for n, value, far in zip(count(k), behind, islice(ahead, k + 1, None)):
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
                if exact:
                    scale = b ** n
                    partial = [s / scale for s in sums]
                    tail = far / (scale * d)
                else:
                    partial = [s + c for s, c in zip(sums, carries)]
                    tail = far / base
                bounds = _tail_bounds(math.nextafter(tail, math.inf), n, partial)
                if all(bd <= _REL_TOL * s for bd, s in zip(bounds, partial)):
                    break
            if n - k >= _MAX_ORACLE_TERMS:
                raise SolverError(
                    f"series oracle did not reach tolerance {_REL_TOL} within "
                    f"{_MAX_ORACLE_TERMS} terms for {params}")
    except OverflowError:
        # a float term, a bound or an exact partial sum passes the double range
        raise SolverError(
            f"series oracle left the double range (about 1.8e308) at "
            f"n={n} with r_max={r_max} for {params}") from None

    if exact:
        scale = b ** n
        final = tuple(_over_power(s, scale, b) for s in sums)
    else:
        final = tuple(s + c for s, c in zip(sums, carries))
    return SeriesOracle(sums=final, bounds=tuple(bounds), n_terms=n)


def _tail_bounds(tail: float, n: int, partial) -> list:
    """B_i = P/(1-P) [S_i + sum_{l<i} C(i, l) n^(i-l) U_l] bounds the tail
    T_i = sum_{j>n} j^(i) f(j) for P = tail >= P(N > n), S_i = partial[i-1],
    U_0 = 1 and U_l = S_l + B_l, scaled by 1 + 1e-12 for its roundings.

    On {N > n}, N <= n + N', N' the wait within trials n+1, n+2, ...,
    independent of them and distributed as N, so by Vandermonde
    T_i <= P sum_l C(i, l) n^(i-l) (S_l + T_l) (README).  At k = 1,
    N = n + N' there and B_i is the tail.
    """
    ratio = tail / (1.0 - tail) if tail < 1.0 else math.inf
    full, bounds = [1.0], []                  # full: U_0, U_1, ...
    for i, s in enumerate(partial, start=1):
        rest = sum(math.comb(i, l) * math.perm(n, i - l) * u
                   for l, u in enumerate(full))
        bound = ratio * (s + rest) * (1 + 1e-12)
        bounds.append(bound)
        full.append(s + bound)
    return bounds


def _check_reach(params: Params):
    """Raise SolverError if the stop test cannot pass by _MAX_ORACLE_TERMS
    terms: each bound is at least P(N > n), falling in n, times its sum.
    roots.tail_estimate is doubled for its error; a non-finite one skips."""
    refusal = (f"series oracle cannot reach tolerance {_REL_TOL} within "
               f"{_MAX_ORACLE_TERMS} terms")
    try:
        estimate = roots_mod.tail_estimate(params, params.k + _MAX_ORACLE_TERMS)
    except SolverError as err:
        raise SolverError(f"{refusal}: {err}") from None
    if math.isfinite(estimate) and estimate > 2 * _REL_TOL:
        raise SolverError(f"{refusal} for {params}")
