"""Seeded operation lists for the four benchmark workloads.

Stdlib only: generating a workload never imports geomk, so the program under
test receives nothing but the generated inputs.  An operation is a flat dict
of the values a user would type; ``argv`` turns it into a ``geomk``
command line.

Inputs are drawn by stratified sampling over a fixed design (see _Plan), so
two seeds give different inputs with nearly the same total work, latency
distribution and share of known-defect inputs.  That keeps the spread
between runs near the host's own noise.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("xval-exact", "exact-deep", "float-query", "sample")

# Every run has at least this many ops, so that at least ten samples lie
# beyond op_p90_ms.
MIN_OPS = 100

# Ops per second of --seconds.  The count depends only on (workload,
# seconds), never on how fast the program runs, so wall_s times the same work
# on every commit; the rates make a run take about --seconds at the commit
# that defined the benchmark (2-CPU x86-64 host, CPython 3.11).
OPS_PER_SECOND = {"xval-exact": 6.5, "exact-deep": 10.0,
                  "float-query": 90.0, "sample": 10.0}

# Above this many decimal digits CPython refuses int -> str conversion, so an
# exact result this large cannot be rendered (a known geomk defect that the
# exact-deep workload keeps visible on purpose).
STR_DIGITS_LIMIT = 4300


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND[workload] * seconds))


def generate(workload: str, seed: int, seconds: float) -> list:
    """The op list of one run: a pure function of its three arguments."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    plan = _Plan(workload, seed, op_count(workload, seconds))
    ops = _GENERATORS[workload](plan)
    for index, op in enumerate(ops):
        op["index"] = index
    return ops


def warmup_ops(workload: str) -> list:
    """One tiny op of each kind the workload runs; paid during set-up."""
    return [dict(op, index=-1 - i) for i, op in enumerate(_WARMUP[workload])]


def argv(op: dict, out_path: str) -> list:
    """The geomk command line for a CLI op (None for library calls)."""
    kind = op["kind"]
    if kind == "series":
        return None
    if kind == "verify":
        args = ["verify", "--mode", "exact",
                "--p-grid", ",".join(op["p_grid"]),
                "--k-max", str(op["k_max"]), "--n-max", str(op["n_max"]),
                "--r-max", str(op["r_max"])]
        if op.get("corrupt_engine"):
            args += ["--corrupt-engine", op["corrupt_engine"]]
    else:
        args = [kind, "--p", op["p"], "--k", str(op["k"]), "--mode", op["mode"]]
        if kind == "pmf":
            args += ["--n", str(op["n"]), "--engine", op["engine"]]
        elif kind == "table":
            args += ["--n-max", str(op["n_max"]), "--engine", op["engine"]]
        elif kind == "moments":
            args += ["--r-max", str(op["r_max"])]
        elif kind == "sample":
            args += ["--trials", str(op["trials"]), "--seed", str(op["seed"])]
            if "max_steps" in op:
                args += ["--max-steps", str(op["max_steps"])]
    return args + ["--format", op.get("format", "json"), "--out", out_path]


def mean_wait(p: float, k: int) -> float:
    """E[N] = (1 - p^k) / (q p^k), used only to size inputs."""
    return (1.0 - p ** k) / ((1.0 - p) * p ** k)


# -- stratified draws -----------------------------------------------------

class _Plan:
    """Where each op sits in the input space is fixed per (workload, op
    count); the seed picks the values inside those places and the run order.

    Every continuous input is drawn once per equal-probability stratum.  The
    design fixes which strata of different inputs meet in one op, so the
    cost of a run, its latency quantiles and its share of known-defect
    inputs barely move between seeds, while every input value does.
    """

    def __init__(self, workload, seed, count):
        self.design = random.Random(f"{workload}:design:{count}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.count = count

    def strata(self, count=None):
        """``count`` uniforms on [0, 1), one per stratum, in design order."""
        count = self.count if count is None else count
        slots = list(range(count))
        self.design.shuffle(slots)
        return [(slot + self.rng.random()) / count for slot in slots]

    def quota(self, shares, count=None):
        """Keys in proportion to their shares, in design order."""
        count = self.count if count is None else count
        keys = list(shares)
        sizes = [int(count * shares[key]) for key in keys]
        by_remainder = sorted(range(len(keys)),
                              key=lambda i: -(count * shares[keys[i]] % 1))
        for i in by_remainder[:count - sum(sizes)]:
            sizes[i] += 1
        items = [key for key, size in zip(keys, sizes) for _ in range(size)]
        self.design.shuffle(items)
        return items


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _int_uniform(u, lo, hi):
    """Integer in [lo, hi], uniform when u is."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _deal(rng, deck, count):
    """``count`` cards from consecutive shuffled copies of ``deck``."""
    cards = []
    while len(cards) < count:
        copy = list(deck)
        rng.shuffle(copy)
        cards.extend(copy)
    return cards[:count]


def _decimal_p(u, places):
    """A decimal in [0.05, 0.95] with ``places`` places whose last digit is
    odd and not 5, so the exact value keeps denominator 10**places."""
    lo, hi = 5 * 10 ** (places - 2), 95 * 10 ** (places - 2)
    candidates = [a for a in range(lo, hi + 1) if math.gcd(a, 10) == 1]
    a = candidates[min(int(u * len(candidates)), len(candidates) - 1)]
    return f"0.{a:0{places}d}"


# -- workloads ------------------------------------------------------------

def _xval_exact(plan):
    """``verify --mode exact`` on small grids: the alternating sums dominate."""
    deck = [(a, d) for d in range(2, 13) for a in range(1, d)
            if math.gcd(a, d) == 1]
    numerators = {}
    for a, d in deck:
        numerators.setdefault(d, []).append(a)
    # The design fixes each grid point's denominator, which sets the operand
    # sizes; the seed deals the numerators, cycling through each
    # denominator's own deck so every seed sees nearly the same fractions.
    widths = plan.quota({1: 0.8, 2: 0.2})
    slots = _deal(plan.design, [d for _, d in deck], plan.count + widths.count(2))
    k_u, n_u, r_u = plan.strata(), plan.strata(), plan.strata()
    dealt = {d: iter(_deal(plan.rng, numerators[d], slots.count(d)))
             for d in numerators}
    slots = iter(slots)
    ops = []
    for i, width in enumerate(widths):
        grid = []
        for _ in range(width):
            d = next(slots)
            grid.append(f"{next(dealt[d])}/{d}")
        ops.append({"kind": "verify", "p_grid": grid,
                    "k_max": _int_uniform(k_u[i], 2, 6),
                    "n_max": round(_log_uniform(n_u[i], 30, 90)),
                    "r_max": _int_uniform(r_u[i], 2, 8)})
    plan.rng.shuffle(ops)
    return ops


def _exact_deep(plan):
    """Large-n exact queries at few (p, k): the Fraction recurrence dominates
    and about half the ops repeat the (p, k) of an earlier op."""
    kinds = plan.quota({"pmf": 0.5, "table": 0.3, "moments": 0.16,
                        "series": 0.04})
    count = {kind: kinds.count(kind)
             for kind in ("pmf", "table", "moments", "series")}
    # A few percent of single points have results too large to render.
    over = iter(plan.quota({True: 0.03, False: 0.97}, count["pmf"]))
    size = {kind: iter(plan.strata(n)) for kind, n in count.items()}
    k_u, wait_u = iter(plan.strata()), iter(plan.strata(count["series"]))
    places = iter(plan.quota({2: 0.5, 3: 0.5}))
    formats = iter(plan.quota({"json": 0.5, "csv": 0.5}))
    repeat = iter(plan.quota({True: 0.5, False: 0.5}))

    ops = []
    for kind in kinds:
        op = {"kind": kind, "k": _int_uniform(next(k_u), 1, 8),
              "places": next(places), "repeat": next(repeat)}
        u = next(size[kind])
        if kind == "pmf":
            lo, hi = ((STR_DIGITS_LIMIT + 100, STR_DIGITS_LIMIT + 500)
                      if next(over) else (100, 2950))
            op["n"] = max(math.ceil(_log_uniform(u, lo, hi) / op["places"]),
                          op["k"])
        elif kind == "table":
            digits = _log_uniform(u, 100, 2450)
            op["n_max"] = max(min(round(digits / op["places"]), 2000), op["k"])
        elif kind == "moments":
            op["r_max"] = _int_uniform(u, 2, 40)
        else:
            op.update(k=1 + op["k"] % 4, r_max=_int_uniform(u, 2, 4),
                      wait=_log_uniform(next(wait_u), 3, 100))
        if kind in ("pmf", "table"):
            op.update(engine="recurrence", format=next(formats))
        ops.append(op)
    plan.rng.shuffle(ops)

    pools = {}
    for op in ops:
        places, repeat = op.pop("places"), op.pop("repeat")
        if op["kind"] == "series":
            p = _p_for_mean(op.pop("wait"), op["k"])
            op["p"] = f"{p:.{places}f}"
            continue
        pool = pools.setdefault((op["k"], places), [])
        if repeat and pool:
            op["p"] = plan.rng.choice(pool)
        else:
            op["p"] = _decimal_p(plan.rng.random(), places)
            pool.append(op["p"])
        op["mode"] = "exact"
    return ops


def _float_p(u, dyadic):
    if dyadic:
        return repr(_int_uniform(u, 4, 60) / 64)
    return f"{0.05 + 0.9 * u:.3f}"


def _float_query(plan):
    """Float queries at a fresh p each: roots, spectral and recurrence tables,
    float alternating sums and moments; no op shares state with another."""
    kinds = plan.quota({"roots": 0.3, "table": 0.3, "pmf": 0.25,
                        "moments": 0.15})
    dyadic = iter(plan.quota({True: 0.15, False: 0.85}))
    engines = {"table": iter(plan.quota({"rootsum": 0.5, "recurrence": 0.5})),
               "pmf": iter(plan.quota({"muselli": 0.5, "closedform": 0.5}))}
    p_u, k_u, size_u = (iter(plan.strata()) for _ in range(3))
    ops = []
    for kind in kinds:
        op = {"kind": kind, "p": _float_p(next(p_u), next(dyadic)),
              "mode": "float"}
        k_draw, size = next(k_u), next(size_u)
        if kind == "roots":
            op["k"] = _int_uniform(k_draw, 1, 40)
        elif kind == "table":
            k = _int_uniform(k_draw, 1, 40)
            op.update(k=k, n_max=max(round(_log_uniform(size, 50, 2000)), k),
                      engine=next(engines[kind]))
        elif kind == "pmf":
            k = _int_uniform(k_draw, 1, 8)
            op.update(k=k, n=_int_uniform(size, k, 250),
                      engine=next(engines[kind]))
        else:
            op.update(k=_int_uniform(k_draw, 1, 10),
                      r_max=_int_uniform(size, 2, 8))
        ops.append(op)
    plan.rng.shuffle(ops)
    return ops


def _p_for_mean(target, k):
    """p in [0.05, 0.95] whose mean waiting time at k is ``target``."""
    lo, hi = 0.05, 0.95
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mean_wait(mid, k) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sample(plan):
    """Monte Carlo runs with a goodness-of-fit report: splitmix64 in pure
    Python dominates, and only this workload imports scipy."""
    wait_u, trial_u, k_u = plan.strata(), plan.strata(), plan.strata()
    capped = plan.quota({True: 0.2, False: 0.8})
    ops = []
    for i in range(plan.count):
        target = _log_uniform(wait_u[i], 2.5, 100)
        feasible = [k for k in range(1, 6)
                    if mean_wait(0.95, k) <= target <= mean_wait(0.05, k)]
        k = feasible[int(k_u[i] * len(feasible))]
        p = f"{_p_for_mean(target, k):.3f}"
        op = {"kind": "sample", "p": p, "k": k, "mode": "float",
              "trials": round(_log_uniform(trial_u[i], 2000, 6000)),
              "seed": plan.rng.randrange(2 ** 32)}
        if capped[i]:
            # Some trials hit the cap, so truncation is counted too.
            op["max_steps"] = max(k, math.ceil(3 * mean_wait(float(p), k)))
        ops.append(op)
    plan.rng.shuffle(ops)
    return ops


_GENERATORS = {"xval-exact": _xval_exact, "exact-deep": _exact_deep,
               "float-query": _float_query, "sample": _sample}

_WARMUP = {
    "xval-exact": [{"kind": "verify", "p_grid": ["1/2"], "k_max": 2,
                    "n_max": 6, "r_max": 2}],
    "exact-deep": [
        {"kind": "pmf", "p": "0.37", "k": 2, "mode": "exact", "n": 8,
         "engine": "recurrence", "format": "json"},
        {"kind": "table", "p": "0.37", "k": 2, "mode": "exact", "n_max": 8,
         "engine": "recurrence", "format": "csv"},
        {"kind": "moments", "p": "0.37", "k": 2, "mode": "exact", "r_max": 2},
        {"kind": "series", "p": "0.37", "k": 1, "r_max": 1}],
    "float-query": [
        {"kind": "roots", "p": "0.37", "k": 3, "mode": "float"},
        {"kind": "table", "p": "0.37", "k": 3, "mode": "float", "n_max": 8,
         "engine": "rootsum"},
        {"kind": "pmf", "p": "0.37", "k": 2, "mode": "float", "n": 8,
         "engine": "muselli"},
        {"kind": "moments", "p": "0.37", "k": 2, "mode": "float", "r_max": 2}],
    "sample": [{"kind": "sample", "p": "0.5", "k": 1, "mode": "float",
                "trials": 50, "seed": 1}],
}
