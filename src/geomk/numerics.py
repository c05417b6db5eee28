"""Scalar arithmetic shared by every engine.

Values live in one of two modes and never silently cross between them:

* float mode  -- ordinary 64-bit binary floats.
* exact mode  -- ``fractions.Fraction`` (arbitrary-precision integer
  numerator/denominator, always gcd-reduced with positive denominator).

Engine code is written polymorphically: arithmetic on Fractions stays
exact, arithmetic on floats stays float.  Plain Python ints are neutral
and combine with either mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from enum import Enum
from typing import Union

Scalar = Union[Fraction, float]


class Mode(Enum):
    FLOAT = "float"
    EXACT = "exact"


class GeomkError(Exception):
    """Base class for all library errors."""


class ParseError(GeomkError):
    """Malformed numeric literal."""


class DomainError(GeomkError):
    """Argument outside the documented domain."""


class ModeError(GeomkError):
    """Scalars of different modes were mixed, or an engine got the wrong mode."""


class SolverError(GeomkError):
    """Root finder failed to converge; carries the best residuals seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ConsistencyError(GeomkError):
    """An internal invariant was violated (indicates a bug, not bad input)."""


def mode_of(value: Scalar) -> Mode:
    if isinstance(value, Fraction):
        return Mode.EXACT
    if isinstance(value, float):
        return Mode.FLOAT
    if isinstance(value, int):
        # ints are mode-neutral; callers that need a definite answer treat
        # them as exact integers
        return Mode.EXACT
    raise ModeError(f"not a scalar: {value!r} of type {type(value).__name__}")


def coerce(value: Scalar, mode: Mode) -> Scalar:
    """Convert a parsed scalar into the requested mode."""
    if mode is Mode.FLOAT:
        return float(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ModeError(f"cannot use float value {value!r} in exact mode")


def parse_scalar(text: str, mode: Mode = Mode.EXACT) -> Scalar:
    """Parse a decimal ("0.25") or fraction ("1/2") literal.

    Fraction literals always produce exact rationals.  Decimal literals are
    parsed exactly in base 10 ("0.3" -> 3/10) in exact mode and as floats in
    float mode; there is never a float round-trip on the exact path.
    """
    token = text.strip()
    if "/" in token:
        num_text, _, den_text = token.partition("/")
        try:
            num = int(num_text)
            den = int(den_text)
        except ValueError:
            raise ParseError(f"malformed fraction literal {token!r}") from None
        if den == 0:
            raise ParseError(f"zero denominator in {token!r}")
        return Fraction(num, den)
    if mode is Mode.FLOAT:
        try:
            return float(token)
        except ValueError:
            raise ParseError(f"malformed decimal literal {token!r}") from None
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed decimal literal {token!r}") from None


def gen_binomial(i: int, j: int) -> int:
    """Binomial coefficient C(i, j) extended to every integer pair.

    Convention, applied in priority order:
      1. C(i, i) = 1 for every integer i, including negative i.
      2. C(i, j) = 0 whenever j > i (even for j = 0 with i < 0).
      3. C(i, j) = 0 whenever j < 0 (and j != i).
      4. Otherwise 0 <= j <= i: the ordinary binomial coefficient.

    The only negative pairs the summation engines ever reach are (-1, -1)
    and (-1, 0); the full rule makes the function total.
    """
    if j == i:
        return 1
    if j > i:
        return 0
    if j < 0:
        return 0
    return math.comb(i, j)


def falling_factorial(n: int, r: int) -> int:
    """n (n-1) ... (n-r+1) as an exact integer; 0 when r > n >= 0."""
    if r < 0:
        raise DomainError(f"falling_factorial order must be >= 0, got {r}")
    if n < 0:
        raise DomainError(f"falling_factorial base must be >= 0, got {n}")
    return math.perm(n, r)
