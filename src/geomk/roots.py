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
import sys
from dataclasses import dataclass

from .numerics import ConsistencyError, Mode, ModeError, SolverError
from .params import DegeneracyFlag, Params

POLISH_TOL = 1e-14        # on |A(z)| / max(1, max|coeff|)
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
    degenerate: DegeneracyFlag


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
            "min_separation": self.min_separation,
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
    """Unique positive real root, by bisection on (0, 1) then Newton.

    A(0) < 0 < A(1) always holds for valid params, so the bracket is free.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _horner_pair(coeffs, mid)[0] < 0.0:
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


def _branch_starts(p: float, q: float, k: int) -> list:
    """Start points for the k - 1 non-principal roots, one per branch.

    The roots solve z^k (1 - z) = q p^k, that is z = w p (q / (1 - z))^(1/k)
    for a k-th root of unity w.  Root m (1 <= m < k) lies on the branch
    w = e^(2 pi i m / k), near |z| = p, so it starts at w p and takes a few
    fixed-point steps on its own branch.  q p^k itself is never formed: it
    underflows to 0 at large k and would collapse every start onto 0.
    """
    starts = []
    for m in range(1, k):
        branch = cmath.exp(2j * cmath.pi * m / k) * p
        z = branch
        for _ in range(3):
            z = branch * (q / (1.0 - z)) ** (1.0 / k)
        starts.append(z)
    return starts


def find_roots(params: Params) -> RootSet:
    """All k roots: principal by bisection+Newton, rest by Aberth iteration.

    Each non-principal estimate starts on its own branch of the identity
    z^k (1 - z) = q p^k, near |z| = p (see _branch_starts), so Aberth's
    simultaneous iteration, with the principal root pinned, begins close to
    the roots and stops after a few sweeps; the start never forms q p^k,
    which underflows at large k.  Raises SolverError (carrying the best
    residuals) instead of returning an uncertified set, and raises it at
    once when p^k is below the normal double range (see _underflow).
    """
    if params.mode is not Mode.FLOAT:
        raise ModeError("find_roots requires float-mode params")
    k = params.k
    p = float(params.p)
    q = float(params.q)
    reason = _underflow(p, k)
    if reason:
        raise SolverError(f"{reason} for {params}")
    coeffs = aux_poly_coeffs(params)

    if k == 1:
        roots = [complex(q, 0.0)]
    else:
        z = [complex(_principal_root(coeffs), 0.0)] + _branch_starts(p, q, k)

        converged = False
        for _ in range(MAX_ITER):
            moved = 0.0
            for i in range(1, k):
                val, der = _horner_pair(coeffs, z[i])
                if val == 0:
                    continue
                w = val / der if der != 0 else val
                s = sum(1.0 / (z[i] - z[j]) for j in range(k) if j != i)
                denom = 1.0 - w * s
                delta = w / denom if denom != 0 else w
                z[i] -= delta
                moved = max(moved, abs(delta) / (1.0 + abs(z[i])))
            if moved <= 1e-15:
                converged = True
                break
        if not converged:
            raise SolverError(
                f"Aberth iteration did not converge within {MAX_ITER} "
                f"iterations for {params}",
                residuals=[abs(_horner_pair(coeffs, zi)[0]) for zi in z])

        for i in range(1, k):
            for _ in range(3):
                val, der = _horner_pair(coeffs, z[i])
                if der == 0 or val == 0:
                    break
                z[i] -= val / der
        roots = _canonicalize(coeffs, z)

    residuals = [_identity_residual(r, params) for r in roots]
    _validate(roots, residuals, params)
    order = sorted(range(1, k), key=lambda i: (-roots[i].real, -roots[i].imag))
    roots = [roots[0]] + [roots[i] for i in order]
    residuals = [residuals[0]] + [residuals[i] for i in order]
    return RootSet(roots=tuple(roots), principal_index=0,
                   residuals=tuple(residuals), degenerate=params.degenerate)


def _underflow(p: float, k: int) -> str:
    """Why float roots cannot be certified at (p, k), or "" if they can.

    The roots lie near |z| = p, so once p^k is subnormal z^k carries almost
    no precision there: Aberth's stop test is never met, and the identity
    check z^k (1 - z) = q p^k compares 0 with 0 and passes any root.  k = 1
    has the closed-form root q.
    """
    if k >= 2 and p ** k < sys.float_info.min:
        return (f"p^k = {p ** k:.3g} underflows the normal double range, "
                f"so float roots cannot be certified")
    return ""


def _canonicalize(coeffs, z):
    """Snap rounding-noise imaginary parts to zero and pair conjugates."""
    real, cplx = [z[0]], []
    for zi in z[1:]:
        if abs(zi.imag) <= _REAL_SNAP * (1.0 + abs(zi)):
            zi = complex(zi.real, 0.0)
            for _ in range(2):
                val, der = _horner_pair(coeffs, zi)
                if der.real == 0 or val.real == 0:
                    break
                zi = complex(zi.real - val.real / der.real, 0.0)
            real.append(zi)
        else:
            cplx.append(zi)
    cplx.sort(key=lambda c: (c.real, abs(c.imag), c.imag))
    paired = []
    while cplx:
        zi = cplx.pop(0)
        if not cplx:
            paired.append(zi)  # unmatched; validation will flag it
            break
        mate = min(range(len(cplx)), key=lambda j: abs(cplx[j] - zi.conjugate()))
        zj = cplx.pop(mate)
        avg = (zi + zj.conjugate()) / 2.0
        paired.extend([avg, avg.conjugate()])
    return real + paired


def _identity_residual(z: complex, params: Params) -> float:
    p = float(params.p)
    q = float(params.q)
    return abs(z ** params.k * (1.0 - z) - p ** params.k * q)


def _validate(roots, residuals, params):
    coeffs = aux_poly_coeffs(params)
    scale = max(1.0, max(abs(c) for c in coeffs))
    poly_worst = max(abs(_horner_pair(coeffs, z)[0]) for z in roots) / scale
    if poly_worst > POLISH_TOL:
        raise SolverError(
            f"scaled polynomial residual {poly_worst:.3e} exceeds "
            f"{POLISH_TOL} for {params}", residuals=residuals)
    worst = max(residuals)
    if worst > IDENTITY_TOL:
        raise SolverError(
            f"root identity residual {worst:.3e} exceeds {IDENTITY_TOL} for {params}",
            residuals=residuals)
    if max(abs(r) for r in roots) >= 1.0:
        raise SolverError(f"root magnitude >= 1 for {params}", residuals=residuals)
    positives = [r for r in roots if r.imag == 0.0 and r.real > 0.0]
    if len(positives) != 1:
        raise SolverError(
            f"expected exactly one positive real root, found {len(positives)} for {params}",
            residuals=residuals)
    k = len(roots)
    for i in range(k):
        for j in range(i + 1, k):
            if abs(roots[i] - roots[j]) <= SEPARATION_TOL:
                raise SolverError(
                    f"roots {i} and {j} closer than {SEPARATION_TOL} for {params}",
                    residuals=residuals)


def certify_roots(root_set: RootSet, params: Params) -> RootCertification:
    """Re-check every RootSet invariant and report, never raise.

    Passes iff: exactly one positive real root, all magnitudes < 1, pairwise
    separation above threshold, and every identity residual within
    tolerance.  Magnitudes inside [1 - 1e-9, 1) pass with a warning since
    no sharper literature bound is available.  When p^k underflows the
    normal double range the identity check is vacuous, so the set fails
    with a warning that says so.
    """
    roots = root_set.roots
    identity = tuple(_identity_residual(r, params) for r in roots)
    coeffs = aux_poly_coeffs(params)
    poly = tuple(abs(_horner_pair(coeffs, r)[0]) for r in roots)
    k = len(roots)
    if k > 1:
        min_sep = min(abs(roots[i] - roots[j])
                      for i in range(k) for j in range(i + 1, k))
    else:
        min_sep = float("inf")
    positive_real = sum(1 for r in roots
                        if abs(r.imag) <= _REAL_SNAP * (1.0 + abs(r)) and r.real > 0.0)
    max_mag = max(abs(r) for r in roots)

    warnings = []
    underflow = _underflow(float(params.p), params.k)
    if underflow:
        warnings.append(underflow)
    if 1.0 - MAGNITUDE_WARN_BAND <= max_mag < 1.0:
        warnings.append(
            f"max root magnitude {max_mag:.15f} is within {MAGNITUDE_WARN_BAND} of 1")

    passed = (not underflow
              and positive_real == 1
              and max_mag < 1.0
              and min_sep > SEPARATION_TOL
              and max(identity) <= IDENTITY_TOL)
    return RootCertification(
        identity_residuals=identity,
        poly_residuals=poly,
        min_separation=min_sep,
        positive_real_count=positive_real,
        max_magnitude=max_mag,
        degenerate=root_set.degenerate.is_degenerate,
        passed=passed,
        warnings=tuple(warnings),
    )


def spectral_coefficients(params: Params, root_set: RootSet) -> list:
    """Per-root weights c_j such that f(n) = sum_j c_j lambda_j^{n-k}.

    Generic case: c_j = (p^k / (k+1)) (lambda_j - p) / (lambda_j - k/(k+1)).
    At p = k/(k+1) the principal weight degenerates to 0/0 and its
    continuous limit 2 is used, with weight 1 for every other root.
    """
    k = params.k
    p = float(params.p)
    front = p ** k / (k + 1)
    pivot = k / (k + 1)
    if params.degenerate.is_degenerate:
        principal = root_set.roots[root_set.principal_index]
        if abs(principal - pivot) > 1e-6:
            raise ConsistencyError(
                f"params {params} are flagged degenerate but the principal "
                f"root {principal} is not at k/(k+1)")
        coeffs = [2.0 * front + 0j]
        coeffs += [front + 0j] * (k - 1)
        return coeffs
    coeffs = []
    for z in root_set.roots:
        denom = z - pivot
        if abs(denom) < 1e-15:
            raise ConsistencyError(
                f"non-degenerate params {params} but weight denominator "
                f"vanishes at root {z}")
        coeffs.append(front * (z - p) / denom)
    return coeffs


def pmf_envelope(params: Params, root_set: RootSet) -> tuple:
    """(A, m) with f(n) <= A * m^n for n >= k, m = |principal root|."""
    coeffs = spectral_coefficients(params, root_set)
    m = abs(root_set.roots[root_set.principal_index])
    a = sum(abs(c) for c in coeffs) * m ** (-params.k)
    return a, m

