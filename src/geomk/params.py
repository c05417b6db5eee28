"""Validated distribution parameters (p, q, k) and shared derived constants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import DomainError, Mode, Scalar, mode_of

# Float params within this distance of k/(k+1) are flagged degenerate.  The
# flag is reported (roots, acceptance) and switches no computation: the
# spectral weights need no branch there.
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class DegeneracyFlag:
    is_degenerate: bool


@dataclass(frozen=True)
class Params:
    p: Scalar
    q: Scalar
    k: int
    mode: Mode
    degenerate: DegeneracyFlag

    def __str__(self):
        return f"(p={self.p}, k={self.k}, {self.mode.value})"


def make_params(p: Scalar, k: int) -> Params:
    """Validate (p, k) and derive q and the degeneracy flag.

    The mode is taken from the type of ``p``: Fraction means exact, float
    means float.  q is 1 - p, computed once (exactly in exact mode).
    """
    if isinstance(p, int):
        p = Fraction(p)
    mode = mode_of(p)
    if not 0 < p < 1:
        raise DomainError(f"p must satisfy 0 < p < 1, got p={p}")
    if k < 1:
        raise DomainError(f"k must be a positive integer, got k={k}")
    q = 1 - p
    if mode is Mode.EXACT:
        is_degenerate = p * (k + 1) == k
    else:
        is_degenerate = abs(p - k / (k + 1)) < DEGENERACY_TOL
    return Params(p=p, q=q, k=k, mode=mode,
                  degenerate=DegeneracyFlag(is_degenerate))


def qpk(params: Params) -> Scalar:
    """q * p^k, the constant that normalizes every moment formula."""
    return params.q * params.p ** params.k


def as_float_params(params: Params) -> Params:
    """Float twin of exact params."""
    if params.mode is Mode.FLOAT:
        return params
    return make_params(float(params.p), params.k)
