"""Reference values computed without geomk, for checking its outputs.

Exact pmf values come from the integer-scaled recurrence.  With p = a/B and
q = c/B over a common denominator B, f(n) = g(n) / B^n, where g(n) = 0 below
k, g(k) = a^k and g(n) = c * sum_{i<k} a^i g(n-1-i).  A running window sum
S(n) = sum_{i<k} a^i g(n-1-i) obeys S(n+1) = g(n) + a S(n) - a^k g(n-k), so
each step costs three small-by-big integer products and no gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0 ** -53
_CHUNK = 4000   # decimal digits per int() call, below CPython's 4300 limit


class Recurrence:
    """g(0), g(1), ... for one (p, k), extended on demand."""

    def __init__(self, p: Fraction, k: int):
        self.k = k
        self.scale = p.denominator          # B, shared by p and q = 1 - p
        self.a = p.numerator
        self.c = self.scale - self.a
        self.a_k = self.a ** k
        self.g = [0] * k + [self.a_k]
        self._window = self.a_k            # S(k+1)

    def upto(self, n: int) -> list:
        g, a, c, a_k, k = self.g, self.a, self.c, self.a_k, self.k
        window = self._window
        while len(g) <= n:
            m = len(g)
            g_m = c * window
            window = g_m + a * window - a_k * g[m - k]
            g.append(g_m)
        self._window = window
        return g

    def pmf(self, n: int) -> Fraction:
        return Fraction(self.upto(n)[n], self.scale ** n)

    def cumulative_scaled(self, n_max: int) -> list:
        """G(n) with F(n) = sum_{m<=n} f(m) = G(n) / B^n."""
        g = self.upto(n_max)
        out, acc = [], 0
        for n in range(n_max + 1):
            acc = acc * self.scale + g[n]
            out.append(acc)
        return out

    def factorial_moment(self, r: int) -> Fraction:
        """mu_(r) = r! f((r+1)k + r) / (q p^k)^{r+1}; since
        (r+1)k + r = (r+1)(k+1) - 1 this is r! g(n) B / (c a^k)^{r+1}."""
        n = (r + 1) * self.k + r
        g = self.upto(n)[n]
        return Fraction(math.factorial(r) * g * self.scale,
                        (self.c * self.a_k) ** (r + 1))


def fixed_point_series(p: Fraction, k: int, n_max: int, bits: int = 256) -> list:
    """f(0..n_max) in fixed point, scaled by 2^bits and truncated.

    Uses the same window recurrence on integers rounded down after each
    product.  Because p < 1 damps the rounding error carried in the window,
    every value is within a few units of 2^-bits of the exact one: a
    reference for float outputs that costs O(1) small integers per step.
    """
    one = 1 << bits
    a = p.numerator * one // p.denominator
    c = one - a
    a_k = p.numerator ** k * one // p.denominator ** k
    f = [0] * k + [a_k]
    window = a_k
    for m in range(k + 1, n_max + 1):
        f_m = c * window >> bits
        window = f_m + (a * window >> bits) - (a_k * f[m - k] >> bits)
        f.append(f_m)
    return f[:n_max + 1]


def mean(p: Fraction, k: int) -> Fraction:
    qpk = (1 - p) * p ** k
    return (1 - p ** k) / qpk


def variance(p: Fraction, k: int) -> Fraction:
    q = 1 - p
    qpk = q * p ** k
    return 1 / qpk ** 2 - (2 * k + 1) / qpk - p / q ** 2


def stirling2_row(m: int) -> list:
    """S(m, 0..m), Stirling numbers of the second kind."""
    row = [1]
    for i in range(1, m + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1]
                     for j in range(1, i + 1)]
    return row


def raw_and_central(factorial: list) -> tuple:
    """Raw moments E[N^m] and central moments of orders 2.. from mu_(1..r)."""
    r_max = len(factorial)
    raw = []
    for m in range(1, r_max + 1):
        row = stirling2_row(m)
        raw.append(sum(row[j] * factorial[j - 1] for j in range(1, m + 1)))
    mu = factorial[0]
    raw0 = [1] + raw
    central = [sum(math.comb(m, i) * raw0[i] * (-mu) ** (m - i)
                   for i in range(m + 1)) for m in range(2, r_max + 1)]
    return raw, central


def series_sums_scaled(rec: Recurrence, r_max: int, n_terms: int) -> list:
    """T_r with sum_{n<=n_terms} n(n-1)..(n-r+1) f(n) = T_r / B^n_terms."""
    g = rec.upto(n_terms)
    scale = rec.scale
    sums = [0] * r_max
    for n in range(rec.k, n_terms + 1):
        for ri in range(r_max):
            sums[ri] = sums[ri] * scale + math.perm(n, ri + 1) * g[n]
    return sums


def parse_int(text: str) -> int:
    """Decimal string to int at any length (int() refuses > 4300 digits)."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_ratio(text: str) -> tuple:
    """A rendered exact value "num/den" or "num" as (num, den), unreduced."""
    num, _, den = str(text).partition("/")
    denominator = parse_int(den) if den else 1
    if denominator <= 0:
        raise ValueError("non-positive denominator")
    return parse_int(num), denominator


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def simulate(p: float, k: int, trials: int, seed: int, cap: int) -> tuple:
    """(histogram, truncated) of the splitmix64 stream that geomk's simulate
    module specifies: trial i starts from mix((seed + i*golden) mod 2^64),
    each step adds golden and a draw u = (mix(state) >> 11) * 2^-53 is a
    success when u < p."""
    histogram, truncated = {}, 0
    for i in range(trials):
        state = _mix64((seed + i * _GOLDEN) & _MASK)
        streak = 0
        for n in range(1, cap + 1):
            state = (state + _GOLDEN) & _MASK
            if (_mix64(state) >> 11) * _U53 < p:
                streak += 1
                if streak == k:
                    histogram[n] = histogram.get(n, 0) + 1
                    break
            else:
                streak = 0
        else:
            truncated += 1
    return histogram, truncated
