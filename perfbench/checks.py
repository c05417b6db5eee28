"""Output checks for every op, run after the timed region.

An op fails when it raises, exits non-zero, or its output fails a check;
each failure gets one reason string, grouped by these prefixes:

* ``raised <Type>: <message>``   -- an exception escaped ``geomk.cli.main``;
* ``exit <code>: <detail>``       -- the command reported failure (the failing
  verify checks, failed root certification, or the error message);
* ``wrong output: <check>``       -- exit 0 but the output disagrees with the
  reference.  Only these make a run incorrect.

Exact values must equal the integer-scaled recurrence of reference.py bit
for bit.  Float values must sit within geomk's documented tolerances of the
exact value at the binary rational that the float p denotes.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import reference

FLOAT_PMF_TOL = 1e-10     # geomk.verify: absolute, any pmf engine vs recurrence
FLOAT_MOMENT_TOL = 1e-9   # geomk.verify: relative, moment routes, mean, variance
IDENTITY_TOL = 1e-12      # README: every root satisfies z^k (1 - z) = p^k q
BRACKET = Fraction(1, 10 ** 12)
SIMULATION_REPLAY_EVERY = 10   # replay the stream of every tenth sample op


class WrongOutput(Exception):
    """The op exited 0 but its output is wrong."""


class References:
    """Reference recurrences, one (p, k) at a time to bound memory; check ops
    sorted by ``reference_key`` so each recurrence is built once."""

    def __init__(self):
        self._key = None
        self._rec = None

    def get(self, p: Fraction, k: int) -> reference.Recurrence:
        if self._key != (p, k):
            self._key, self._rec = (p, k), reference.Recurrence(p, k)
        return self._rec


def reference_key(op: dict) -> tuple:
    if op["kind"] == "verify":
        return ("", 0)
    return (op["p"], op["k"])


def exact_p(op: dict) -> Fraction:
    """The rational the op's p denotes: base-10 exact, or the binary value of
    the double in float mode."""
    if op.get("mode", "exact") == "float":
        return Fraction(float(op["p"]))
    return Fraction(op["p"])


def classify(op: dict, record: dict, refs: References) -> tuple:
    """(reason or None, wrong_output) for one executed op."""
    if record.get("exc"):
        return f"raised {record['exc']}: {_short(record['message'])}", False
    rc = record["rc"]
    if rc != 0:
        return f"exit {rc}: {_exit_detail(op, record)}", False
    try:
        _CHECKS[op["kind"]](op, _load(op, record["out"]), refs)
    except WrongOutput as exc:
        return f"wrong output: {exc}", True
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"wrong output: unreadable ({type(exc).__name__})", True
    return None, False


def _short(message: str) -> str:
    """First clause of an error message, without its parameter echo."""
    text = message.strip().splitlines()[0] if message.strip() else ""
    if text.startswith("error: "):
        text = text[len("error: "):]
    for cut in ("; ", " for ("):
        text = text.split(cut)[0]
    return text[:80]


def _exit_detail(op, record):
    if op["kind"] == "verify" and record["rc"] == 1:
        try:
            with open(record["out"], encoding="utf-8") as handle:
                checks = json.load(handle)["checks"]
            return "+".join(c["name"] for c in checks if not c["passed"])
        except (OSError, ValueError, KeyError):
            pass
    if op["kind"] == "roots" and record["rc"] == 1:
        return "certification failed"
    return _short(record.get("stderr", "")) or "no message"


def _load(op, path):
    with open(path, encoding="utf-8", newline="") as handle:
        if op.get("format", "json") == "csv":
            return list(csv.reader(handle))
        return json.load(handle)


def _expect(ok: bool, what: str):
    if not ok:
        raise WrongOutput(what)


def _renders(text: str, scaled: int, power: int, scale: int) -> bool:
    """Whether ``text`` is scaled / power in lowest terms, where power is a
    power of ``scale``.  The denominator must divide power, so only primes of
    scale can be shared with the numerator: a cheap test for lowest terms
    that avoids one big gcd per value."""
    num, den = reference.parse_ratio(text)
    return (num * power == scaled * den and power % den == 0
            and math.gcd(math.gcd(num % scale, scale), den) == 1)


def _reduced(text: str) -> Fraction:
    num, den = reference.parse_ratio(text)
    if math.gcd(num, den) != 1:
        raise WrongOutput("fraction not in lowest terms")
    return Fraction(num, den)


def _check_pmf(op, out, refs):
    rec = refs.get(exact_p(op), op["k"])
    n = op["n"]
    if op.get("format", "json") == "csv":
        _expect(out[0] == ["n", "f"] and out[1][0] == str(n), "pmf csv layout")
        rendered = out[1][1]
    else:
        _expect(out["n"] == n and out["k"] == op["k"], "pmf echo")
        rendered = out["value"]
    if op["mode"] == "exact":
        _expect(_renders(rendered, rec.upto(n)[n], rec.scale ** n, rec.scale),
                "pmf value")
    else:
        _expect(abs(Fraction(float(rendered)) - rec.pmf(n)) <= FLOAT_PMF_TOL,
                "pmf value beyond tolerance")


def _table_rows(op, out):
    if op.get("format", "json") == "csv":
        _expect(out[0] == ["n", "f", "cumulative"], "table csv header")
        return [(int(n), f, c) for n, f, c in out[1:]]
    return [(e["n"], e["f"], e["cumulative"]) for e in out["entries"]]


def _check_table(op, out, refs):
    rows = _table_rows(op, out)
    n_max = op["n_max"]
    _expect([n for n, _, _ in rows] == list(range(n_max + 1)), "table rows")
    if op["mode"] == "exact":
        rec = refs.get(exact_p(op), op["k"])
        g = rec.upto(n_max)
        cumulative = rec.cumulative_scaled(n_max)
        power = 1
        for n, f, c in rows:
            _expect(_renders(f, g[n], power, rec.scale), f"table entry n={n}")
            _expect(_renders(c, cumulative[n], power, rec.scale),
                    f"table cumulative n={n}")
            power *= rec.scale
        return
    # A fixed-point reference within 1e-70 of the exact values is exact as
    # far as a 1e-10 tolerance can tell, and far cheaper than rationals with
    # denominators 2^(54 n).
    bits = 256
    scale = float(1 << bits)
    fixed = reference.fixed_point_series(exact_p(op), op["k"], n_max, bits)
    running = 0
    for (n, f, c), value in zip(rows, fixed):
        running += value
        _expect(abs(float(f) - value / scale) <= FLOAT_PMF_TOL,
                f"table entry n={n} beyond tolerance")
        _expect(abs(float(c) - running / scale) <= FLOAT_PMF_TOL,
                f"table cumulative n={n} beyond tolerance")


def _check_moments(op, out, refs):
    p, k, r_max = exact_p(op), op["k"], op["r_max"]
    rec = refs.get(p, k)
    factorial = [rec.factorial_moment(r) for r in range(1, r_max + 1)]
    raw, central = reference.raw_and_central(factorial)
    expected = {"factorial": factorial, "raw": raw, "central": central,
                "mean": reference.mean(p, k), "variance": reference.variance(p, k)}
    _expect(out["r_max"] == r_max and len(out["factorial"]) == r_max,
            "moments layout")
    if op["mode"] == "exact":
        for name, want in expected.items():
            got = out[name]
            got = ([_reduced(v) for v in got]
                   if isinstance(got, list) else _reduced(got))
            _expect(got == want, f"moments {name}")
        return
    # Float central moments cancel heavily and geomk documents no tolerance
    # for them, so only the routes verify also checks are compared here.
    for name in ("factorial", "raw"):
        for r, (got, want) in enumerate(zip(out[name], expected[name]), 1):
            _expect(abs(Fraction(got) - want) <= FLOAT_MOMENT_TOL * want,
                    f"moments {name} r={r} beyond tolerance")
    for name in ("mean", "variance"):
        want = expected[name]
        _expect(abs(Fraction(out[name]) - want)
                <= FLOAT_MOMENT_TOL * max(abs(want), 1),
                f"moments {name} beyond tolerance")


def _check_roots(op, out, refs):
    p = float(op["p"])
    k = op["k"]
    q = 1.0 - p
    roots = [complex(z["re"], z["im"]) for z in out["roots"]]
    _expect(out["passed"] is True, "roots not certified")
    _expect(len(roots) == k, "root count")
    for z in roots:
        _expect(abs(z ** k * (1.0 - z) - p ** k * q) <= IDENTITY_TOL,
                "root identity residual")
    principal = roots[out["principal_index"]]
    _expect(principal.imag == 0.0 and principal.real > 0.0, "principal root")
    # A(z) = z^k - q sum_i p^i z^(k-1-i) changes sign once on z > 0, at the
    # principal root: check that sign change exactly around the claim.
    pe, qe = Fraction(p), Fraction(q)
    lam = Fraction(principal.real)

    def aux(z):
        return z ** k - qe * sum(pe ** i * z ** (k - 1 - i) for i in range(k))

    _expect(aux(lam * (1 - BRACKET)) < 0 < aux(lam * (1 + BRACKET)),
            "principal root not bracketed")
    _expect(all(abs(z) < 1 for z in roots), "root magnitude")   # NaN fails too


def _check_verify(op, out, refs):
    _expect(out["passed"] is True and all(c["passed"] for c in out["checks"]),
            "verify reported failure with exit 0")
    grid = out["grid"]
    _expect(grid["p"] == op["p_grid"] and grid["k_max"] == op["k_max"]
            and grid["n_max"] == op["n_max"] and grid["r_max"] == op["r_max"],
            "verify grid echo")


def _check_sample(op, out, refs):
    summary = out["summary"]
    histogram = {int(n): c for n, c in summary["histogram"].items()}
    truncated = summary["truncated_count"]
    _expect(summary["trials"] == op["trials"], "sample trial count")
    _expect(sum(histogram.values()) == op["trials"] - truncated,
            "histogram total != trials - truncated")
    _expect(all(n >= op["k"] for n in histogram), "histogram mass below k")
    _expect(out["gof"]["hard_fail"] is False, "gof hard failure with exit 0")
    if op["index"] % SIMULATION_REPLAY_EVERY == 0:
        want = reference.simulate(float(op["p"]), op["k"], op["trials"],
                                  op["seed"], op.get("max_steps", 10_000_000))
        _expect((histogram, truncated) == want, "histogram != splitmix64 replay")


def _check_series(op, out, refs):
    p, k, r_max = exact_p(op), op["k"], op["r_max"]
    rec = refs.get(p, k)
    n_terms = out["n_terms"]
    scaled = reference.series_sums_scaled(rec, r_max, n_terms)
    power = rec.scale ** n_terms
    _expect(len(out["sums"]) == r_max, "series layout")
    for r, ((num, den), bound) in enumerate(zip(out["sums"], out["bounds"]), 1):
        s = Fraction(int(num, 16), int(den, 16))
        _expect(s.numerator * power == scaled[r - 1] * s.denominator,
                f"series sum r={r}")
        tail = rec.factorial_moment(r) - s
        _expect(0 < tail and float(tail) <= bound * (1 + 1e-9),
                f"series tail r={r} outside its bound")


_CHECKS = {"pmf": _check_pmf, "table": _check_table, "moments": _check_moments,
           "roots": _check_roots, "verify": _check_verify,
           "sample": _check_sample, "series": _check_series}
