"""Probability mass function of the waiting time for a run of k successes.

Four independent engines share the contract (params, n) -> probability:

* recurrence  -- forward iteration of the order-k linear recurrence
                 f(n) = q f(n-1) + p q f(n-2) + ... + p^{k-1} q f(n-k)
                 seeded with f(n) = 0 below k and f(k) = p^k.  All terms are
                 nonnegative and it runs exactly on rationals, so this is the
                 reference engine.
* muselli     -- Muselli's alternating binomial sum, which needs the extended
                 binomial conventions C(-1,-1) = 1 and C(-1,0) = 0 at n = k.
* closedform  -- an equivalent alternating sum rearranged so that no binomial
                 coefficient vanishes (all arguments satisfy 0 <= j <= i).
* rootsum     -- spectral form over the characteristic roots (float only).

Every engine returns 0 for n = 0 so tables can be built over n = 0..n_max.
_engine_values is the one map from an Engine to its evaluation: f(n) for
every n of an ascending list in one pass of the engine.  pmf, the tables
and the factorial moments (one pmf value each) all draw from it.

Exact arithmetic runs on scaled integers.  Writing p = a/b and q = c/b over
one denominator, f(n) = g(n) / b^n where g obeys an integer recurrence
(_scaled_pmf, the one exact recurrence kernel), and both alternating sums
are sums of integers over a power of b.  Each returned value is reduced to
a Fraction, or rounded to a float, exactly once.  In float mode the
alternating sums read p and the stored q = fl(1 - p) as the binary
rationals they denote, so their results are correctly rounded; the float
recurrence stays in double precision (_float_pmf).
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
import warnings
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional

from . import roots as roots_mod
from .numerics import (ConsistencyError, DomainError, Mode, ModeError,
                       PrecisionWarning, Scalar, gen_binomial)
from .params import Params, qpk
from .roots import RootSet

IMAG_RESIDUE_TOL = 1e-12
# A float alternating sum whose terms exceed the result by this factor has
# lost more than ~10 significant digits.
CANCELLATION_FLAG_RATIO = 1e6


class Engine(Enum):
    RECURRENCE = "recurrence"
    ROOT_SUM = "rootsum"
    MUSELLI = "muselli"
    CLOSED_FORM = "closedform"


def _check_n(n: int):
    if n < 0:
        raise DomainError(f"pmf argument n must be >= 0, got {n}")


def _zero(params: Params) -> Scalar:
    return Fraction(0) if params.mode is Mode.EXACT else 0.0


def _scaled_pq(params: Params):
    """(a, c, b) with p = a/b and q = c/b over one denominator b.

    In exact mode b is the denominator of p and c = b - a.  In float mode p
    and the stored q = fl(1 - p) are read as the binary rationals they
    denote, so c may differ from b - a: the sums use the q the params carry.
    """
    (a, p_den), (c, q_den) = (params.p.as_integer_ratio(),
                              params.q.as_integer_ratio())
    b = math.lcm(p_den, q_den)
    return a * (b // p_den), c * (b // q_den), b


def _scaled_pmf(a: int, c: int, k: int):
    """Yield g(k), g(k+1), ... where f(n) = g(n) / b^n for p = a/b, q = c/b.

    Scaling the recurrence by b^n gives g(n) = c S(n) with the window sum
    S(n) = sum_{i<k} a^i g(n-1-i), which slides in O(1) bigint operations:
    S(n+1) = g(n) + a (S(n) - a^(k-1) g(n-k)).  Every value is a
    nonnegative integer, so no step needs a gcd.
    """
    a_top = a ** (k - 1)
    ring = deque([0] * k)      # g(n-k), ..., g(n-1)
    g, window = a ** k, 0      # g(k) and S(k)
    while True:
        yield g
        window = g + a * (window - a_top * ring.popleft())
        ring.append(g)
        g = c * window


def _float_pmf(params: Params):
    """Yield f(k), f(k+1), ... in double precision.

    Each step sums q f(n-1) + q p f(n-2) + ... + q p^(k-1) f(n-k) in that
    order, so every float consumer sees the same bits.
    """
    k = params.k
    coeffs = [params.q * params.p ** i for i in range(k)]
    window = deque([0.0] * (k - 1) + [params.p ** k], maxlen=k)  # f(n-k+1..n)
    while True:
        yield window[-1]
        window.append(sum(map(operator.mul, coeffs, reversed(window))))


def _nth(values, index: int):
    return next(islice(values, index, None))


def _scaled_series(params: Params, n_max: int):
    """(b, [g(0), ..., g(n_max)]) for exact params and n_max >= k."""
    a, c, b = _scaled_pq(params)
    k = params.k
    return b, [0] * k + list(islice(_scaled_pmf(a, c, k), n_max - k + 1))


# A Fraction from a numerator and denominator already in lowest terms,
# without the gcd the public constructor spends: CPython 3.12 added the
# private _from_coprime_ints, and 3.10 and 3.11 take _normalize=False.
# Elsewhere the public constructor serves, and reduces once more.
if hasattr(Fraction, "_from_coprime_ints"):
    _coprime_fraction = Fraction._from_coprime_ints
else:
    try:
        Fraction(1, 1, _normalize=False)
    except TypeError:
        _coprime_fraction = Fraction
    else:
        def _coprime_fraction(numerator, denominator):
            return Fraction(numerator, denominator, _normalize=False)


def _over_power(s: int, power: int, b: int) -> Fraction:
    """s / power as a reduced Fraction, where every prime of power divides b.

    A prime that divides both s and power then divides b, so dividing both
    by t = gcd(s, b, power) until t = 1 leaves them coprime.  Each step is
    linear in the size of s (gcd(s, b) takes one pass of s % b), where
    gcd(s, power) is quadratic.
    """
    if not s:
        return Fraction(0)
    while (t := math.gcd(s, b, power)) != 1:
        s //= t
        power //= t
    return _coprime_fraction(s, power)


def _unscaled(scaled, b: int) -> list:
    """[s(n) / b^n for n = 0, 1, ...], each reduced once by _over_power
    (the factors of b only), never by a full gcd."""
    values, power = [], 1
    for s in scaled:
        values.append(_over_power(s, power, b))
        power *= b
    return values


def _finish_sum(params: Params, plus: int, minus: int, scale: int, label,
                n: int) -> Scalar:
    """(plus - minus) / scale, where plus and minus sum the magnitudes of an
    alternating sum's positive and negative integer terms: reduced once in
    exact mode, rounded once in float mode.

    The cancellation guard still fires when sum |terms| = plus + minus
    dwarfs the result: the returned float is correctly rounded, but the
    formula itself is ill-conditioned there (a one-ulp change of p moves
    the result by far more than one ulp).  Its text, label(n), is built
    only then.
    """
    total = plus - minus
    if params.mode is Mode.EXACT:
        return Fraction(total, scale)
    result = total / scale
    magnitude = (plus + minus) / scale
    if magnitude > CANCELLATION_FLAG_RATIO * abs(result):
        # past the term generator and the function that drew from it
        warnings.warn(
            f"{label(n)}: precision degraded (sum of |terms| = {magnitude:.3e} vs "
            f"result = {result:.3e})", PrecisionWarning, stacklevel=4)
    return result


def _recurrence_values(params: Params, ns):
    """Yield the recurrence's f(n) for each n of the ascending ns, from one
    walk of the kernel (_scaled_pmf exact, _float_pmf float).

    A sparse ns pays for each b^n it reduces by; a dense one is
    recurrence_series, which builds the powers of b incrementally.
    """
    k = params.k
    exact = params.mode is Mode.EXACT
    if exact:
        a, c, b = _scaled_pq(params)
        walk = _scaled_pmf(a, c, k)
    else:
        walk = _float_pmf(params)
    reached, value = k - 1, None        # the last n drawn from walk
    for n in ns:
        if n < k:
            yield _zero(params)
            continue
        if n > reached:
            value, reached = _nth(walk, n - reached - 1), n
        yield _over_power(value, b ** n, b) if exact else value


def pmf_recurrence(params: Params, n: int) -> Scalar:
    """Reference engine: forward iteration with a k-value sliding window."""
    _check_n(n)
    return next(_recurrence_values(params, (n,)))


def recurrence_series(params: Params, n_max: int) -> list:
    """f(0..n_max) in one pass; same values as pmf_recurrence."""
    _check_n(n_max)
    k = params.k
    if n_max < k:
        return [_zero(params)] * (n_max + 1)
    if params.mode is Mode.EXACT:
        b, scaled = _scaled_series(params, n_max)
        return _unscaled(scaled, b)
    return [0.0] * k + list(islice(_float_pmf(params), n_max - k + 1))


def _falling_powers(runs: dict, b: int, stride: int, top: int) -> list:
    """[b^top, b^(top - stride), ..., b^(top mod stride)] ([] for top < 0).

    runs keeps the powers built so far: one ascending run per class of
    exponents mod stride, each power one multiplication by b^stride from
    the one before.  One top builds only the powers it returns, and a pass
    over many tops that shares runs builds each power once.
    """
    if top < 0:
        return []
    last, low = divmod(top, stride)
    run = runs.get(low)
    if run is None:
        run = runs[low] = [b ** low]
    if len(run) <= last:
        power, step = run[-1], b ** stride
        for _ in range(len(run), last + 1):
            power *= step
            run.append(power)
    return run[last::-1]


def _muselli_values(params: Params, ns, label=None):
    """Yield Muselli's sum f(n) for each n in ns: the one copy of the formula.

    Each sum at n >= k is integer terms over the scale b^(n+1): term m is
    (-1)^(m-1) a^(mk) c^(m-1) [b C(i, m-2) + c C(i, m-1)] b^(n+1-m(k+1))
    with i = n - mk - 1, the rational term times b^(n+1).  a, c, b and the
    powers of b (_falling_powers) are built once for all of ns, and one n
    builds only the powers it uses, so a lone call pays for no other n.
    Each lead a^(mk) c^(m-1) is one small multiplication from the last.
    label(n) names the sum in a PrecisionWarning (default: the pmf_muselli
    call).
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    label = label or (lambda n: f"pmf_muselli(n={n}, {params})")
    first, ratio, runs = a ** k, a ** k * c, {}
    for n in ns:
        # b^(n+1-m(k+1)) for m = 1..(n+1)//(k+1)
        powers = _falling_powers(runs, b, k + 1, n - k)
        if not powers:
            yield _zero(params)
            continue
        i = n - k - 1                           # -1 at n = k
        lead = first
        plus = lead * (b * gen_binomial(i, -1) + c * gen_binomial(i, 0)) * powers[0]
        minus = 0
        # From m = 2 on, i >= m - 2 >= 0: math.comb is the extended
        # coefficient there, including C(i, m - 1) = 0 at i = m - 2.
        for m, power in enumerate(powers[1:], start=2):
            lead *= ratio
            i = n - m * k - 1
            term = lead * (b * math.comb(i, m - 2) + c * math.comb(i, m - 1)) * power
            if m % 2:
                plus += term
            else:
                minus += term
        yield _finish_sum(params, plus, minus, b ** (n + 1), label, n)


def _closedform_head(params: Params, n: int) -> Scalar:
    """The vanishing-free f(n) for n <= 2k, where it is no sum: 0 below k,
    p^k at k and the plateau q p^k on [k+1, 2k]."""
    k = params.k
    if n < k:
        return _zero(params)
    if n == k:
        return params.p ** k
    return params.q * params.p ** k


def _closedform_values(params: Params, ns, label=None):
    """Yield the vanishing-free f(n) for each n in ns: the one copy of the
    formula.

    _closedform_head up to 2k, and past it integer terms over the scale b^n
    (each rational term times b^n).  As in _muselli_values, a, c, b and the
    powers of b are built once for all of ns.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    label = label or (lambda n: f"pmf_closedform(n={n}, {params})")
    ratio = a ** k * c
    # (-1)^(m-1) p^(mk) q^(m-1) C(i, m-2) for m = 2..(n+1)//(k+1), and
    # (-1)^(m-1) p^(mk) q^m C(i, m-1) for m = 2..n//(k+1): the leads of m = 2
    groups = ((a ** k * ratio, 1, 2), (ratio * ratio, 0, 1))
    runs = {}
    for n in ns:
        if n <= 2 * k:
            yield _closedform_head(params, n)
            continue
        plus, minus = ratio * b ** (n - k - 1), 0
        for lead, top_shift, j_shift in groups:
            # with top = n + top_shift, term m = 2..top//(k+1) carries
            # b^(top - m(k+1))
            powers = _falling_powers(runs, b, k + 1, n + top_shift - 2 * (k + 1))
            for m, power in enumerate(powers, start=2):
                i, j = n - m * k - 1, m - j_shift
                if not 0 <= j <= i:
                    raise ConsistencyError(
                        f"vanishing-free form produced C({i},{j}) at n={n}, m={m}")
                term = lead * math.comb(i, j) * power
                if m % 2:
                    plus += term
                else:
                    minus += term
                lead *= ratio
        yield _finish_sum(params, plus, minus, b ** n, label, n)


def pmf_muselli(params: Params, n: int) -> Scalar:
    """Muselli's alternating sum over m = 1..floor((n+1)/(k+1)).

    Each term is (-1)^{m-1} p^{mk} q^{m-1} [C(n-mk-1, m-2) + q C(n-mk-1, m-1)]
    under the extended binomial conventions.  Heavy cancellation raises
    PrecisionWarning (see _finish_sum).
    """
    _check_n(n)
    return next(_muselli_values(params, (n,)))


def pmf_closedform(params: Params, n: int) -> Scalar:
    """Vanishing-free piecewise form.

    0 below the support, p^k at n = k, the plateau value q p^k on
    [k+1, 2k], and for n > 2k the plateau minus two alternating sums whose
    binomial arguments all satisfy 0 <= j <= i (checked).
    """
    _check_n(n)
    return next(_closedform_values(params, (n,)))


def _rootsum_values(params: Params, root_set: RootSet, ns):
    """Yield the spectral f(n) = sum_j c_j lambda_j^{n-k} for each n in ns.

    The one rootsum loop: the root set is checked against params and the
    weights c_j are computed once, then each n costs one power per root.
    Every value is the same float pmf_rootsum(params, root_set, n) returns.
    """
    k = params.k
    principal = root_set.roots[root_set.principal_index]
    if roots_mod._identity_residual(principal, params) > 1e-10:
        raise ConsistencyError(
            f"root set does not belong to {params} (principal residual too large)")
    pairs = list(zip(roots_mod.spectral_coefficients(params, root_set),
                     root_set.roots))
    for n in ns:
        if n < k:
            yield 0.0
            continue
        acc = sum([c * z ** (n - k) for c, z in pairs])
        if abs(acc.imag) > IMAG_RESIDUE_TOL:
            raise ConsistencyError(
                f"imaginary residue {acc.imag:.3e} exceeds {IMAG_RESIDUE_TOL} "
                f"at n={n} for {params}")
        yield acc.real


def pmf_rootsum(params: Params, root_set: RootSet, n: int) -> float:
    """Spectral engine: f(n) = sum_j c_j lambda_j^{n-k} (float mode only).

    The weights come from roots.spectral_coefficients, which selects the
    degenerate branch (weight 2 on the principal root, 1 elsewhere) when
    p = k/(k+1).  The imaginary part of the assembled sum must cancel to
    below 1e-12 before it is discarded.  Tables and sweeps over many n use
    the same loop (_rootsum_values), which checks the root set and computes
    the weights once for all of them.
    """
    if params.mode is not Mode.FLOAT:
        raise ModeError("pmf_rootsum requires float-mode params")
    _check_n(n)
    if n < params.k:
        return 0.0
    return next(_rootsum_values(params, root_set, (n,)))


def pgf_eval(params: Params, s: Scalar) -> Scalar:
    """Generating function p^k s^k (1 - p s) / (1 - s + q p^k s^{k+1}).

    Defined for |s| <= 1; equals 1 exactly at s = 1.  The denominator cannot
    vanish there for valid params (it is at least 1 - |s| + 0 on [0, 1) and
    q p^k at s = 1), but is checked defensively.  In exact mode, with
    p = a/b, q = c/b and s = u/v, it is the one ratio of integers
    a^k u^k (b v - a u) / (b^(k+1) v^k (v - u) + c a^k u^(k+1)), reduced once.
    """
    exact = params.mode is Mode.EXACT
    if isinstance(s, int):
        s = Fraction(s) if exact else float(s)
    if exact and isinstance(s, float):
        raise ModeError("exact-mode pgf_eval needs a rational s")
    if not exact:
        s = float(s)
    if abs(s) > 1:
        raise DomainError(f"pgf argument must satisfy |s| <= 1, got {s}")
    k = params.k
    if exact:
        (a, c, b), (u, v) = _scaled_pq(params), s.as_integer_ratio()
        a_u = (a * u) ** k
        num = a_u * (b * v - a * u)
        den = b ** (k + 1) * v ** k * (v - u) + c * a_u * u
    else:
        p, q = params.p, params.q
        num = p ** k * s ** k * (1 - p * s)
        den = 1 - s + q * p ** k * s ** (k + 1)
    if den == 0:
        raise DomainError(f"pgf denominator vanished at s={s} for {params}")
    return Fraction(num, den) if exact else num / den


def _engine_values(params: Params, engine: Engine, ns, label=None):
    """f(n) for each n of the ascending ns, from one pass of the engine: the
    one place that maps an Engine to its evaluation.

    The recurrence is one kernel walk, each alternating formula one run of
    its term generator (label as there), and rootsum one root solve and one
    _rootsum_values loop.  The iterator is the engine's own generator, with
    no frame of this function between it and the caller, so a cancellation
    warning still points past the function that draws from it.
    """
    if engine is Engine.RECURRENCE:
        return _recurrence_values(params, ns)
    if engine is Engine.MUSELLI:
        return _muselli_values(params, ns, label)
    if engine is Engine.CLOSED_FORM:
        return _closedform_values(params, ns, label)
    if engine is Engine.ROOT_SUM:
        if params.mode is not Mode.FLOAT:
            raise ModeError("the rootsum engine is float-only; "
                            "use recurrence, muselli or closedform in exact mode")
        return _rootsum_values(params, roots_mod.find_roots(params), ns)
    raise DomainError(f"unknown engine {engine!r}")


def pmf(params: Params, n: int, engine: Engine = Engine.RECURRENCE) -> Scalar:
    """Evaluate f(n) with the chosen engine (rootsum solves its roots)."""
    _check_n(n)
    return next(_engine_values(params, engine, (n,)))


@dataclass(frozen=True)
class PmfTable:
    """f(0..n_max) with running cumulative sums, and their text.

    entries and cumulative are reduced Fractions in exact mode and floats in
    float mode.  text_rows is the one text form of the table: to_dict (in
    exact mode), the CLI's CSV rows and its text lines all read it.
    """
    params: Params
    engine: Engine
    entries: tuple          # f(0), f(1), ..., f(n_max)
    cumulative: tuple
    tail_bound: Optional[float]  # float mode: P(N > n_max)

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def rows(self):
        for n, (f, c) in enumerate(zip(self.entries, self.cumulative)):
            yield n, f, c

    def text_rows(self):
        """Yield (n, f_text, cumulative_text), each text as _render writes
        the value.

        An exact recurrence table takes its digits from _exact_texts, in
        time linear in their number; every other table renders its values.
        """
        if self.engine is Engine.RECURRENCE and self.params.mode is Mode.EXACT:
            yield from _exact_texts(self.params, self.entries, self.cumulative)
        else:
            for n, f, c in self.rows():
                yield n, _render(f), _render(c)

    def to_dict(self):
        if self.params.mode is Mode.EXACT:
            rows = self.text_rows()
        else:
            rows = ((n, float(f), float(c)) for n, f, c in self.rows())
        return {
            "p": str(self.params.p),
            "k": self.params.k,
            "mode": self.params.mode.value,
            "engine": self.engine.value,
            "n_max": self.n_max,
            "tail_bound": self.tail_bound,
            "entries": [{"n": n, "f": f, "cumulative": c} for n, f, c in rows],
        }


# Integer arithmetic on decimal.Decimal that can only be exact: any rounding
# traps, so a digit that would be wrong raises instead.  Only *, +, -, //, %
# and ** to a non-negative integer power may run in it; "/" would compute a
# quotient to MAX_PREC digits.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def _exact_texts(params: Params, entries, cumulative):
    """Yield (n, f_text, cumulative_text) for an exact recurrence table whose
    reduced values are entries and cumulative.

    _scaled_pmf runs again over Decimal integers, with C(n) = C(n-1) b + g(n)
    beside it, so g(n) / b^n and C(n) / b^n have base-10 digits from the
    start.  Each value is divided by the factor G = b^n // denominator that
    its reduction removed (no division when G = 1), and str() of a Decimal
    is linear in its digits where str(int) and Decimal(int) are quadratic.
    Rows are made in batches inside _EXACT_DECIMAL and yielded outside it,
    so no caller ever runs in that context.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    for n in range(k):
        yield n, "0", "0"
    rows = _decimal_rows(a, c, b, k, entries, cumulative)
    while True:
        with decimal.localcontext(_EXACT_DECIMAL):
            batch = list(islice(rows, 64))
        if not batch:
            return
        yield from batch


def _decimal_rows(a, c, b, k, entries, cumulative):
    values = _scaled_pmf(decimal.Decimal(a), decimal.Decimal(c), k)
    b_dec, total = decimal.Decimal(b), decimal.Decimal(0)
    power = b ** k
    power_dec = decimal.Decimal(power)
    for n in range(k, len(entries)):
        g = next(values)
        total = total * b_dec + g
        yield (n, _text_over(g, power, power_dec, entries[n].denominator),
               _text_over(total, power, power_dec, cumulative[n].denominator))
        power *= b
        power_dec *= b_dec


def _text_over(scaled, power: int, power_dec, denominator: int) -> str:
    """_render of the value scaled / power in (0, 1) whose reduced
    denominator is `denominator`; scaled and power_dec are the Decimal
    forms of the numerator and of power."""
    shared = power // denominator
    if shared != 1:
        shared = decimal.Decimal(shared)
        scaled, power_dec = scaled // shared, power_dec // shared
    return str(scaled) + "/" + str(power_dec)


def _render(value: Scalar) -> str:
    """Text form: a reduced fraction of any size, or the float's repr.

    Decimal converts an int of any size exactly, so exact values are not
    bound by the digit limit of str(int); the conversion is quadratic in
    the digits, which exact recurrence tables avoid (_exact_texts).
    """
    if not isinstance(value, Fraction):
        return repr(float(value))
    num = str(decimal.Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(value.denominator)}"


def _json_scalar(value: Scalar):
    return _render(value) if isinstance(value, Fraction) else float(value)


def _tail_mass(params: Params, f_far: Scalar) -> Scalar:
    """P(N > n) from f_far = f(n + k + 1).

    A wait longer than n ends at n + k + 1 exactly when trial n + 1 fails
    and the next k succeed, so f(n + k + 1) = P(N > n) q p^k (Feller
    Vol. 1, XIII.7): exact on rationals, and one division in floats, which
    raise DomainError once q p^k is below the normal double range.
    """
    scale = qpk(params)
    if params.mode is Mode.FLOAT and scale < sys.float_info.min:
        raise DomainError(
            f"q p^k = {scale:.3g} underflows the normal double range, so the "
            f"float tail mass is lost for {params}")
    return f_far / scale


def build_table(params: Params, engine: Engine, n_max: int) -> PmfTable:
    """Tabulate f(0..n_max) with running cumulative sums.

    Every engine but the recurrence fills the entries in one pass of
    _engine_values, so they are the values pmf gives; the recurrence table
    is recurrence_series, plus a second kernel run for the exact cumulative
    column.  In float mode the table also carries the mass beyond n_max,
    P(N > n_max) = f(n_max + k + 1) / (q p^k) (_tail_mass): a recurrence
    table walks k + 1 values further, and every other engine takes
    f(n_max + k + 1) from one float recurrence walk.
    """
    if n_max < params.k:
        raise DomainError(f"n_max must be >= k={params.k}, got {n_max}")
    floating = params.mode is Mode.FLOAT
    if engine is Engine.RECURRENCE:
        # a float table walks on to f(n_max + k + 1), for its tail mass
        walk = recurrence_series(params, n_max + (params.k + 1 if floating else 0))
        entries, far = walk[:n_max + 1], walk[-1]
    else:
        entries = list(_engine_values(params, engine, range(n_max + 1)))

    if engine is Engine.RECURRENCE and not floating:
        # The cumulative C(n) = F(n) b^n is an integer too, with
        # C(n) = C(n-1) b + g(n); rerunning the kernel costs far less than
        # adding the reduced entries.
        b, scaled = _scaled_series(params, n_max)
        cumulative = _unscaled(accumulate(scaled, lambda acc, g: acc * b + g), b)
    else:
        cumulative = []
        running = _zero(params)
        for f in entries:
            running = running + f
            cumulative.append(running)
    _validate_table(params, entries, cumulative)

    bound = None
    if floating:
        if engine is not Engine.RECURRENCE:
            far = pmf_recurrence(params, n_max + params.k + 1)
        bound = _tail_mass(params, far)
    return PmfTable(params=params, engine=engine, entries=tuple(entries),
                    cumulative=tuple(cumulative), tail_bound=bound)


def _validate_table(params, entries, cumulative):
    slack = 0 if params.mode is Mode.EXACT else 1e-10
    k = params.k
    for n, f in enumerate(entries):
        if f < -slack or f > 1 + slack:
            raise ConsistencyError(f"pmf value out of [0,1] at n={n}: {f}")
        if 1 <= n <= k - 1 and f != 0:
            raise ConsistencyError(f"nonzero pmf below the support at n={n}: {f}")
    if cumulative[-1] > 1 + slack:
        raise ConsistencyError(f"cumulative mass exceeds 1: {cumulative[-1]}")
    expected_at_k = params.p ** k
    if len(entries) > k and abs(entries[k] - expected_at_k) > slack:
        raise ConsistencyError(
            f"pmf at n=k is {entries[k]}, expected p^k = {expected_at_k}")
