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
recurrence stays in double precision (_float_pmf).  Rootsum is float only:
its powers lambda^(n-k) split as lambda^(B q) lambda^r (_rootsum_values),
so each value costs one complex multiplication per root.  A float table's
tail mass reads f(n_max + k + 1) from the same pass of its own engine.

An exact recurrence table reduces each value once too.  Its entries are
recurrence_series; one pass over them (_scaled_cumulative) takes each
factor b^n / denominator once, runs the table's checks on the integers
g(n) and C(n) = C(n-1) b + g(n), and reduces each C(n) once, keeping its
factor.  The digits come from a Decimal run of the kernel divided by those
kept factors (_exact_texts), so printing divides no int.
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
import sys
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional

from . import roots as roots_mod
from .numerics import (ConsistencyError, DomainError, Mode, ModeError, Scalar,
                       gen_binomial)
from .params import Params, qpk
from .roots import RootSet

IMAG_RESIDUE_TOL = 1e-12


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


@functools.lru_cache(maxsize=64)
def _strip_step(b: int) -> int:
    """The power of b that _over_power strips per gcd: the largest b^j that
    fits one digit of CPython's int (below 2^30 on 64-bit builds), or b
    itself when b is larger.

    A remainder by a one-digit number is a single pass over the other
    operand, and the small gcd after it costs next to nothing, so one gcd
    strips up to j factors of b for about the price of one.  Cached, as
    every value of a table that needs stripping asks for the same b.
    """
    step, digit = b, 1 << sys.int_info.bits_per_digit
    while step * b < digit:
        step *= b
    return step


def _over_power(s: int, power: int, b: int) -> Fraction:
    """s / power as a reduced Fraction, where every prime of power divides b.

    A prime that divides both s and power then divides b, so s / power is
    already reduced when gcd(s, b) = 1, and otherwise _strip_shared reduces
    it.  gcd(s, b) takes one pass of s % b, where gcd(s, power) is
    quadratic in their size.
    """
    if not s:
        return Fraction(0)
    if math.gcd(s, b) != 1:
        s, power, _ = _strip_shared(s, power, b)
    return _coprime_fraction(s, power)


def _strip_shared(s: int, power: int, b: int) -> tuple:
    """(s / t, power / t, t) in lowest terms, for every prime of power a
    prime of b: t is b^n / denominator for s / b^n, the factor the digits of
    an exact table divide by (_exact_texts).

    Dividing both by t = gcd(s, step, power) for step = _strip_step(b)
    until t = 1 leaves them coprime, as any prime they share divides step.
    Each round is one pass of s % step, and it strips up to j factors of
    b = step^(1/j) where a round with b itself would strip one.
    """
    step, shared = _strip_step(b), 1
    while (t := math.gcd(s, step, power)) != 1:
        s //= t
        power //= t
        shared *= t
    return s, power, shared


def _finish_sum(params: Params, plus: int, minus: int, scale: int) -> Scalar:
    """(plus - minus) / scale, where plus and minus sum the magnitudes of an
    alternating sum's positive and negative integer terms: reduced once in
    exact mode, rounded once in float mode.

    The terms are exact integers, so however much they cancel, the float is
    the correctly rounded value for the params' model, a result below the
    double range included (0.0 or a subnormal, never an OverflowError).
    """
    if params.mode is Mode.EXACT:
        return Fraction(plus - minus, scale)
    return (plus - minus) / scale


def _recurrence_values(params: Params, ns):
    """Yield the recurrence's f(n) for each n of the ascending ns, from one
    walk of the kernel (_scaled_pmf exact, _float_pmf float).

    An exact ns pays for each b^n it reduces by, so a dense exact one is
    recurrence_series, which builds the powers of b incrementally; a float
    table reads its dense ns here.
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
            value = _nth(walk, n - reached - 1) if n - reached > 1 else next(walk)
            reached = n
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
        # g(n) / b^n, reduced once by the factors of b only (_over_power)
        a, c, b = _scaled_pq(params)
        values, power = [Fraction(0)] * k, b ** k
        for g in islice(_scaled_pmf(a, c, k), n_max - k + 1):
            values.append(_over_power(g, power, b))
            power *= b
        return values
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


def _muselli_values(params: Params, ns):
    """Yield Muselli's sum f(n) for each n in ns: the one copy of the formula.

    Each sum at n >= k is integer terms over the scale b^(n+1): term m is
    (-1)^(m-1) a^(mk) c^(m-1) [b C(i, m-2) + c C(i, m-1)] b^(n+1-m(k+1))
    with i = n - mk - 1, the rational term times b^(n+1).  a, c, b and the
    powers of b (_falling_powers) are built once for all of ns, and one n
    builds only the powers it uses, so a lone call pays for no other n.
    Each lead a^(mk) c^(m-1) is one small multiplication from the last.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
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
        yield _finish_sum(params, plus, minus, b ** (n + 1))


def _closedform_head(params: Params, n: int) -> Scalar:
    """The vanishing-free f(n) for n <= 2k, where it is no sum: 0 below k,
    p^k at k and the plateau q p^k on [k+1, 2k]."""
    k = params.k
    if n < k:
        return _zero(params)
    if n == k:
        return params.p ** k
    return params.q * params.p ** k


def _closedform_values(params: Params, ns):
    """Yield the vanishing-free f(n) for each n in ns: the one copy of the
    formula.

    _closedform_head up to 2k, and past it integer terms over the scale b^n
    (each rational term times b^n).  As in _muselli_values, a, c, b and the
    powers of b are built once for all of ns.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
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
        yield _finish_sum(params, plus, minus, b ** n)


def pmf_muselli(params: Params, n: int) -> Scalar:
    """Muselli's alternating sum over m = 1..floor((n+1)/(k+1)).

    Each term is (-1)^{m-1} p^{mk} q^{m-1} [C(n-mk-1, m-2) + q C(n-mk-1, m-1)]
    under the extended binomial conventions.  The integer terms are summed
    exactly and rounded once, so a float result is correctly rounded however
    much they cancel (_finish_sum).
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


_POWER_BLOCK = 64     # B of _rootsum_values: n - k = B q + r


def _rootsum_values(params: Params, root_set: RootSet, ns):
    """Yield the spectral f(n) = sum_j c_j lambda_j^{n-k} for each n in ns.

    The one rootsum loop: the root set is checked against params and the
    weights c_j are computed once.  Each power is split as
    lambda^(n-k) = lambda^(B q) lambda^r with n - k = B q + r and
    B = _POWER_BLOCK: the weighted heads c_j lambda_j^(B q) are built once
    per block of B values, the small powers lambda_j^r once per r, and each
    value sums one complex product per root.  Both factors depend on n
    alone, so every value is the same float pmf_rootsum(params, root_set, n)
    returns, whatever other ns share the pass; a lone n pays one more power
    per root.
    """
    k = params.k
    principal = root_set.roots[root_set.principal_index]
    if roots_mod._identity_residual(principal, params) > 1e-10:
        raise ConsistencyError(
            f"root set does not belong to {params} (principal residual too large)")
    weights = roots_mod.spectral_coefficients(params, root_set)
    roots = root_set.roots
    small, block, heads = {}, None, None
    for n in ns:
        if n < k:
            yield 0.0
            continue
        q, r = divmod(n - k, _POWER_BLOCK)
        if q != block:
            block = q
            heads = [c * z ** (_POWER_BLOCK * q) for c, z in zip(weights, roots)]
        powers = small.get(r)
        if powers is None:
            powers = small[r] = [z ** r for z in roots]
        acc = sum(map(operator.mul, heads, powers))
        if abs(acc.imag) > IMAG_RESIDUE_TOL:
            raise ConsistencyError(
                f"imaginary residue {acc.imag:.3e} exceeds {IMAG_RESIDUE_TOL} "
                f"at n={n} for {params}")
        yield acc.real


def pmf_rootsum(params: Params, root_set: RootSet, n: int) -> float:
    """Spectral engine: f(n) = sum_j c_j lambda_j^{n-k} (float mode only).

    The weights are the residues of roots.spectral_coefficients, one
    formula for every p, p = k/(k+1) included.  Each power is
    lambda^(B q) lambda^r for n - k = B q + r.  The imaginary part of the
    assembled sum must cancel to below 1e-12 before it is discarded.
    Tables and sweeps over many n use the same loop (_rootsum_values),
    which checks the root set and computes the weights once for all of them
    and gives every n the bits this call does.
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


def _engine_values(params: Params, engine: Engine, ns):
    """f(n) for each n of the ascending ns, from one pass of the engine: the
    one place that maps an Engine to its evaluation.

    The recurrence is one kernel walk, each alternating formula one run of
    its term generator, and rootsum one root solve and one _rootsum_values
    loop.
    """
    if engine is Engine.RECURRENCE:
        return _recurrence_values(params, ns)
    if engine is Engine.MUSELLI:
        return _muselli_values(params, ns)
    if engine is Engine.CLOSED_FORM:
        return _closedform_values(params, ns)
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


ENTRY_KEYS = ("n", "f", "cumulative")     # the fields of one table row


@dataclass(frozen=True)
class PmfTable:
    """f(0..n_max) with running cumulative sums, and their text.

    entries and cumulative are reduced Fractions in exact mode and floats in
    float mode.  text_rows is the one text form of the table: to_dict (in
    exact mode), the CLI's CSV rows, its text lines and its JSON rows all
    read it.  An exact recurrence table also carries shared: for each n,
    the factors b^n / denominator of f(n) and of its cumulative value, which
    its digit walk divides by (_exact_texts).  The CLI writes the fields of
    summary() through the stdlib JSON encoder and the entries through a row
    template: an exact table's one row at a time from text_rows, a float
    table's from its columns with no dict built per row.  Both have the
    bytes of json.dumps(to_dict(), indent=2).
    """
    params: Params
    engine: Engine
    entries: tuple          # f(0), f(1), ..., f(n_max)
    cumulative: tuple
    tail_bound: Optional[float]  # float mode: P(N > n_max)
    shared: Optional[tuple] = field(default=None, repr=False, compare=False)

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
        if self.shared is not None:
            yield from _exact_texts(self.params, self.shared)
        else:
            for n, f, c in self.rows():
                yield n, _render(f), _render(c)

    def summary(self):
        """The fields of to_dict other than its entries, in its order."""
        return {
            "p": str(self.params.p),
            "k": self.params.k,
            "mode": self.params.mode.value,
            "engine": self.engine.value,
            "n_max": self.n_max,
            "tail_bound": self.tail_bound,
        }

    def to_dict(self):
        if self.params.mode is Mode.EXACT:
            rows = self.text_rows()
        else:
            rows = ((n, float(f), float(c)) for n, f, c in self.rows())
        return {**self.summary(), "entries": [
            {"n": n, "f": f, "cumulative": c} for n, f, c in rows]}


# Integer arithmetic on decimal.Decimal that can only be exact: any rounding
# traps, so a digit that would be wrong raises instead.  Only *, +, -, //, %
# and ** to a non-negative integer power may run in it; "/" would compute a
# quotient to MAX_PREC digits.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def _exact_texts(params: Params, shared):
    """Yield (n, f_text, cumulative_text) for an exact recurrence table whose
    reductions removed the factors shared[n] = (b^n / den f(n),
    b^n / den F(n)) (_scaled_cumulative).

    _scaled_pmf runs again over Decimal integers, with C(n) = C(n-1) b + g(n)
    beside it, so g(n) / b^n and C(n) / b^n have base-10 digits from the
    start.  Each is divided by the factor its reduction kept (no division
    when it is 1), so no int is divided here, and str() of a Decimal is
    linear in its digits where str(int) and Decimal(int) are quadratic.
    Rows are made in batches inside _EXACT_DECIMAL and yielded outside it,
    so no caller ever runs in that context.
    """
    a, c, b = _scaled_pq(params)
    k = params.k
    for n in range(k):
        yield n, "0", "0"
    rows = _decimal_rows(a, c, b, k, shared)
    while True:
        with decimal.localcontext(_EXACT_DECIMAL):
            batch = list(islice(rows, 64))
        if not batch:
            return
        yield from batch


def _decimal_rows(a, c, b, k, shared):
    values = _scaled_pmf(decimal.Decimal(a), decimal.Decimal(c), k)
    b_dec, total = decimal.Decimal(b), decimal.Decimal(0)
    power = b_dec ** k
    for n in range(k, len(shared)):
        g = next(values)
        total = total * b_dec + g
        f_shared, c_shared = shared[n]
        yield (n, _text_over(g, power, f_shared),
               _text_over(total, power, c_shared))
        power *= b_dec


def _text_over(scaled, power, shared: int) -> str:
    """_render of the value scaled / power in (0, 1) for Decimal integers
    scaled and power, whose reduction removes the factor shared."""
    if shared != 1:
        shared = decimal.Decimal(shared)
        scaled, power = scaled // shared, power // shared
    return str(scaled) + "/" + str(power)


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

    An exact recurrence table is recurrence_series, checked and cumulated on
    integers by _scaled_cumulative, which also keeps the factors its digits
    divide by.  Every other table fills its entries in one pass of
    _engine_values, so they are the values pmf gives, and goes through
    _checked_cumulative.  The cumulative column comes from the entries
    alone, and a table that fails its checks (a nan entry included) raises
    ConsistencyError.  In float mode the table also carries the mass beyond
    n_max, P(N > n_max) = f(n_max + k + 1) / (q p^k) (_tail_mass), with
    f(n_max + k + 1) from the same pass of the same engine: k + 1 values
    past n_max, for every engine.
    """
    k = params.k
    if n_max < k:
        raise DomainError(f"n_max must be >= k={k}, got {n_max}")
    if params.mode is Mode.EXACT and engine is Engine.RECURRENCE:
        entries = recurrence_series(params, n_max)
        cumulative, shared = _scaled_cumulative(params, entries)
        return PmfTable(params=params, engine=engine, entries=tuple(entries),
                        cumulative=tuple(cumulative), tail_bound=None,
                        shared=shared)
    floating = params.mode is Mode.FLOAT
    ns = range(n_max + 1)
    if floating:
        ns = [*ns, n_max + k + 1]     # f(n_max + k + 1), for the tail mass
    values = _engine_values(params, engine, ns)
    entries = tuple(islice(values, n_max + 1))
    cumulative = _checked_cumulative(params, entries)
    bound = _tail_mass(params, next(values)) if floating else None
    return PmfTable(params=params, engine=engine, entries=entries,
                    cumulative=tuple(cumulative), tail_bound=bound)


def _checked_cumulative(params: Params, entries) -> list:
    """The cumulative column of a table's entries.  Raise ConsistencyError
    unless every entry is a probability, those below the support are 0,
    f(k) = p^k (within 1e-10 in float mode) and the total mass is at most
    1.  Exact entries are checked and cumulated on integers
    (_scaled_cumulative).  The float comparisons are written so that a nan
    fails them, as an infinity does."""
    if params.mode is Mode.EXACT:
        return _scaled_cumulative(params, entries)[0]
    slack = 1e-10
    k = params.k
    for n, f in enumerate(entries):
        if not -slack <= f <= 1 + slack:
            raise ConsistencyError(f"pmf value out of [0,1] at n={n}: {f}")
        if 1 <= n <= k - 1 and f != 0:
            raise ConsistencyError(f"nonzero pmf below the support at n={n}: {f}")
    expected_at_k = params.p ** k
    if len(entries) > k and abs(entries[k] - expected_at_k) > slack:
        raise ConsistencyError(
            f"pmf at n=k is {entries[k]}, expected p^k = {expected_at_k}")
    cumulative = list(accumulate(entries, initial=0.0))[1:]
    if not cumulative[-1] <= 1 + slack:
        raise ConsistencyError(f"cumulative mass exceeds 1: {cumulative[-1]}")
    return cumulative


def _scaled_cumulative(params: Params, entries) -> tuple:
    """(cumulative, shared) for a table of exact entries f(0..n_max), from
    one pass over the integers g(n) = f(n) b^n and C(n) = F(n) b^n
    (p = a/b).

    Each entry gives its factor G = b^n // den once, and the remainder of
    that division is the check that f(n) is an integer over b^n.  Then
    g(n) = num G is checked on integers: 0 <= g(n) <= b^n, g(n) = 0 below
    the support, g(k) = a^k and C(n_max) <= b^n_max, each raising
    ConsistencyError with the message of the same check on floats
    (_checked_cumulative).  The first bad n is named, by the first of those
    checks it fails, and by the scale check only when it passes the others.
    C(n) = C(n-1) b + g(n) is reduced once, as _over_power does, and
    shared[n] keeps the pair (G, b^n / den F(n)).
    """
    a, _, b = _scaled_pq(params)
    k = params.k
    top = a ** k
    cumulative, shared = [], []
    total, power = 0, 1
    for n, f in enumerate(entries):
        f_shared, rest = divmod(power, f.denominator)
        # g(n) = f(n) b^n, checked against b^n; an f(n) off that scale is
        # checked as it is, against 1, and fails the last check if no other
        g, unit = (f, 1) if rest else (f.numerator * f_shared, power)
        if not 0 <= g <= unit:
            raise ConsistencyError(f"pmf value out of [0,1] at n={n}: {f}")
        if n < k:
            if g and n:
                raise ConsistencyError(
                    f"nonzero pmf below the support at n={n}: {f}")
        elif n == k and (rest or g != top):
            raise ConsistencyError(
                f"pmf at n=k is {f}, expected p^k = {params.p ** k}")
        if rest:
            raise ConsistencyError(f"pmf value at n={n} of {params} is "
                                   f"not an integer over b^n: {f}")
        total = total * b + g
        if not total:
            cumulative.append(Fraction(0))
            c_shared = power
        elif math.gcd(total, b) != 1:
            num, den, c_shared = _strip_shared(total, power, b)
            cumulative.append(_coprime_fraction(num, den))
        else:
            cumulative.append(_coprime_fraction(total, power))
            c_shared = 1
        shared.append((f_shared, c_shared))
        power *= b
    if total > power // b:
        raise ConsistencyError(f"cumulative mass exceeds 1: {cumulative[-1]}")
    return cumulative, tuple(shared)
