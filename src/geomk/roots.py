"""Roots of the recurrence's characteristic polynomial.

The polynomial is A(z) = z^k - q z^{k-1} - q p z^{k-2} - ... - q p^{k-1},
where z is the reciprocal of the generating-function argument s.  Its k
roots are distinct, have magnitude below one, and include exactly one
positive real root ("principal root") that governs the tail decay of the
pmf.  Every root also satisfies the identity lambda^k (1 - lambda) = p^k q,
which is what the moment formulas rest on, so we certify it per root.

This module is float-only: the roots are algebraic irrationals and the
spectral engine is a cross-check, not the reference path.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from itertools import combinations, starmap
from operator import sub

from .numerics import Mode, ModeError, SolverError
from .params import Params

POLISH_TOL = 1e-14        # on |A(z)|; no coefficient of A exceeds 1 in magnitude
IDENTITY_TOL = 1e-12      # on |z^k (1-z) - p^k q|
SEPARATION_TOL = 1e-9     # minimum pairwise root distance
MAGNITUDE_WARN_BAND = 1e-9  # |z| in [1 - band, 1) passes with a warning
MAX_ITER = 500
_REAL_SNAP = 1e-10        # imag parts below this (relative) are rounding noise


@dataclass(frozen=True)
class RootSet:
    roots: tuple            # principal first, then by (re, im) descending
    principal_index: int
    residuals: tuple        # per-root |z^k (1-z) - p^k q|
    certificate: RootCertification | None = None  # the one find_roots passed;
                                                  # None for a set built by hand


@dataclass(frozen=True)
class RootCertification:
    identity_residuals: tuple
    poly_residuals: tuple
    min_separation: float
    positive_real_count: int
    max_magnitude: float
    degenerate: bool
    passed: bool
    warnings: tuple

    def to_dict(self):
        return {
            "identity_residuals": list(self.identity_residuals),
            "poly_residuals": list(self.poly_residuals),
            # a one-root set has no pair, and JSON has no Infinity
            "min_separation": (self.min_separation
                               if len(self.identity_residuals) > 1 else None),
            "positive_real_count": self.positive_real_count,
            "max_magnitude": self.max_magnitude,
            "degenerate": self.degenerate,
            "passed": self.passed,
            "warnings": list(self.warnings),
        }


def aux_poly_coeffs(params: Params) -> list:
    """Coefficients [1, -q, -qp, ..., -q p^{k-1}], highest degree first."""
    p = float(params.p)
    q = float(params.q)
    return [1.0] + [-q * p ** i for i in range(params.k)]


def aux_poly_eval(params: Params, z: complex) -> complex:
    """Evaluate A(z) = z^k - q * sum_{i<k} p^i z^{k-1-i} by Horner."""
    acc = 0j
    for c in aux_poly_coeffs(params):
        acc = acc * z + c
    return acc


def _horner(coeffs, z):
    """Value of the polynomial at z: the same bits as _horner_pair(...)[0]."""
    val = 0.0
    for c in coeffs:
        val = val * z + c
    return val


def _horner_pair(coeffs, z):
    """(value, derivative) of the polynomial at z in one pass.

    The sums start from the float 0.0, so a real z is evaluated in real
    arithmetic: the same bits as the real part of the complex evaluation.
    """
    val = der = 0.0
    for c in coeffs:
        der = der * z + val
        val = val * z + c
    return val, der


def _principal_root(coeffs) -> float:
    """Unique positive real root, by bisection on (0, 1) then Newton on A.

    A(0) < 0 < A(1) always holds for valid params, so the bracket is free.
    Branch 0 of the identity (see _branch_root) also holds the extraneous
    root z = p, so this root is not solved there.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _horner(coeffs, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(8):
        val, der = _horner_pair(coeffs, z)
        if der == 0:
            break
        step = val / der
        z -= step
        if abs(step) <= 1e-17 * (1.0 + abs(z)):
            break
    return z


def _branch_root(w, q: float, k: int, params: Params):
    """The root on the branch z = phi(z) = w (q / (1 - z))^(1/k) of the
    identity z^k (1 - z) = q p^k, where w = e^(2 pi i m / k) p for branch m.

    Newton on z - phi(z) from z = w; phi'(z) = phi(z) / (k (1 - z)).  A
    real w stays in real arithmetic.  q p^k itself is never formed: it
    underflows to 0 at large k.
    """
    z = w
    for _ in range(MAX_ITER):
        phi = w * (q / (1.0 - z)) ** (1.0 / k)
        delta = (z - phi) / (1.0 - phi / (k * (1.0 - z)))
        z -= delta
        if abs(delta) <= 1e-15 * (1.0 + abs(z)):
            return z
    raise SolverError(f"branch Newton iteration did not converge within "
                      f"{MAX_ITER} iterations for {params}")


def _unsorted_roots(params: Params, coeffs) -> list:
    """The k roots, principal first, then branches m and k - m in turn.

    Root m (1 <= m < k) is the root on branch m (see _branch_root), near
    |z| = p, polished by one Newton step on A.  Only m <= k/2 is solved:
    branch k - m holds the exact conjugate, and for even k branch k/2 is
    the negative real root, solved in real arithmetic.
    """
    k = params.k
    p = float(params.p)
    q = float(params.q)
    if k == 1:
        return [complex(q, 0.0)]
    roots = [complex(_principal_root(coeffs), 0.0)]
    for m in range(1, k // 2 + 1):
        real = 2 * m == k
        z = _branch_root(-p if real else cmath.exp(2j * cmath.pi * m / k) * p,
                         q, k, params)
        val, der = _horner_pair(coeffs, z)
        z -= val / der
        roots += [complex(z, 0.0)] if real else [z, z.conjugate()]
    return roots


def find_roots(params: Params) -> RootSet:
    """All k roots, each solved on its own branch (see _unsorted_roots),
    sorted and certified once.

    Returns only a set that certify_roots passes, with that certificate
    attached, or raises SolverError (see _failures), at once when p^k is
    below the normal double range (see _underflow).
    """
    if params.mode is not Mode.FLOAT:
        raise ModeError("find_roots requires float-mode params")
    reason = _underflow(float(params.p), params.k)
    if reason:
        raise SolverError(f"{reason} for {params}")
    roots = _unsorted_roots(params, aux_poly_coeffs(params))
    roots = (roots[0], *sorted(roots[1:], key=lambda z: (-z.real, -z.imag)))
    root_set = RootSet(roots=roots, principal_index=0, residuals=())
    cert = certify_roots(root_set, params)
    if not cert.passed:
        raise SolverError(next(_failures(cert, params)),
                          residuals=list(cert.identity_residuals))
    return replace(root_set, residuals=cert.identity_residuals,
                   certificate=cert)


def _underflow(p: float, k: int) -> str:
    """Why float roots cannot be certified at (p, k), or "" if they can.

    The roots lie near |z| = p, so once p^k is subnormal z^k carries almost
    no precision there, and the identity check z^k (1 - z) = q p^k compares
    0 with 0 and passes any root.  k = 1 has the closed-form root q.
    """
    if k >= 2 and p ** k < sys.float_info.min:
        return (f"p^k = {p ** k:.3g} underflows the normal double range, "
                f"so float roots cannot be certified")
    return ""


def _identity_residual(z: complex, params: Params) -> float:
    p = float(params.p)
    q = float(params.q)
    return abs(z ** params.k * (1.0 - z) - p ** params.k * q)


def certify_roots(root_set: RootSet, params: Params) -> RootCertification:
    """Re-check every RootSet invariant and report, never raise.

    Passes iff every gate of _failures holds: polynomial and identity
    residuals within tolerance, all magnitudes < 1, exactly one positive
    real root and pairwise separation above threshold.  Magnitudes inside
    [1 - 1e-9, 1) pass with a warning since no sharper literature bound is
    available.  When p^k underflows the normal double range the identity
    check is vacuous, so the set fails with a warning that says so.
    find_roots attaches the certificate it passed to the set it returns
    (RootSet.certificate), so a caller never needs to certify that set again.
    """
    roots = root_set.roots
    identity = tuple(_identity_residual(r, params) for r in roots)
    coeffs = aux_poly_coeffs(params)
    poly = tuple(abs(_horner(coeffs, r)) for r in roots)
    min_sep = _extreme(min, map(abs, starmap(sub, combinations(roots, 2))))
    positive_real = sum(1 for r in roots
                        if abs(r.imag) <= _REAL_SNAP * (1.0 + abs(r)) and r.real > 0.0)
    max_mag = _extreme(max, map(abs, roots))

    warnings = []
    underflow = _underflow(float(params.p), params.k)
    if underflow:
        warnings.append(underflow)
    if 1.0 - MAGNITUDE_WARN_BAND <= max_mag < 1.0:
        warnings.append(
            f"max root magnitude {max_mag:.15f} is within {MAGNITUDE_WARN_BAND} of 1")

    cert = RootCertification(
        identity_residuals=identity,
        poly_residuals=poly,
        min_separation=min_sep,
        positive_real_count=positive_real,
        max_magnitude=max_mag,
        degenerate=params.degenerate,
        passed=False,
        warnings=tuple(warnings),
    )
    if underflow or next(_failures(cert, params), None):
        return cert
    return replace(cert, passed=True)


def _failures(cert: RootCertification, params: Params):
    """Yield the message of each gate cert fails, in order; find_roots
    raises the first.  Each gate is the condition that passes, and each
    reads a nan anywhere in its values (see _extreme), so a nan fails it."""
    poly = _extreme(max, cert.poly_residuals)
    identity = _extreme(max, cert.identity_residuals)
    if not poly <= POLISH_TOL:
        yield f"scaled polynomial residual {poly:.3e} exceeds {POLISH_TOL} for {params}"
    if not identity <= IDENTITY_TOL:
        yield f"root identity residual {identity:.3e} exceeds {IDENTITY_TOL} for {params}"
    if not cert.max_magnitude < 1.0:
        yield f"root magnitude >= 1 for {params}"
    if cert.positive_real_count != 1:
        yield (f"expected exactly one positive real root, found "
               f"{cert.positive_real_count} for {params}")
    if not cert.min_separation > SEPARATION_TOL:
        yield f"two roots closer than {SEPARATION_TOL} for {params}"


def _extreme(pick, values) -> float:
    """pick(values) for pick max or min, but nan if any value is nan (the
    builtins drop a nan anywhere but first); inf for no values."""
    values = list(values)
    if any(map(math.isnan, values)):
        return math.nan
    return pick(values, default=math.inf)


def spectral_coefficients(params: Params, root_set: RootSet) -> list:
    """Per-root weights c_j such that f(n) = sum_j c_j lambda_j^{n-k}.

    c_j = p^k lambda_j^{k-1} / A'(lambda_j), the partial-fraction residue
    of the generating function p^k s^k / (s^k A(1/s)) at s = 1/lambda_j.
    A's roots are simple for every p: the double root at p = k/(k+1) is a
    root of (z - p) A(z), not of A, so one formula serves every p.
    """
    coeffs = aux_poly_coeffs(params)
    front = float(params.p) ** params.k
    return [front * z ** (params.k - 1) / _horner_pair(coeffs, z)[1]
            for z in root_set.roots]


def tail_estimate(params: Params, n: int) -> float:
    """P(N > n) ~ lambda^(n+k) / (q A'(lambda)) at large n from the principal
    root and float p, q alone; inf when q A'(lambda) rounds to 0.  Raises
    SolverError when p^k underflows (_underflow) or lambda rounds to 1."""
    why = _underflow(float(params.p), params.k)
    coeffs = aux_poly_coeffs(params)
    lam = 1.0 if why else _principal_root(coeffs)
    if not lam < 1.0:
        raise SolverError(f"{why or 'principal root rounds to 1'} for {params}")
    slope = float(params.q) * _horner_pair(coeffs, lam)[1]
    return lam ** (n + params.k) / slope if slope else math.inf
