"""Monte Carlo sampling of the waiting time, with goodness-of-fit checks.

Randomness comes from a self-contained splitmix64 generator (Steele, Lea &
Flood's constants) so the bit stream is identical on every platform and
Python version:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    output  <- mix(state)   where mix is the splitmix64 finalizer
    uniform <- (output >> 11) * 2^-53

Trial i draws from its own stream whose initial state is
mix((seed + i * 0x9E3779B97F4A7C15) mod 2^64).  Because streams are keyed
by trial index, any partition of trials across workers reproduces the
single-threaded result exactly.

The stream is counter-based: draw n of a stream at state s is
mix((s + n * 0x9E3779B97F4A7C15) mod 2^64), so any draw can be computed
without the ones before it.  The one-trial loop behind
`sample_waiting_time` uses this to skip work, in the manner of Boyer-Moore
string search: it first tests the last draw of the earliest window of k
draws that could complete a run.  A failure there rules out every window
containing it, so the k - 1 draws before it are never computed; a success
is followed by a backward scan over the draws not yet decided.  The step
at which the first run completes, and the stream's state after it, are the
same as the draw-by-draw loop's, bit for bit; only the number of draws
evaluated falls.

`run_simulation` does not call that loop per trial.  It runs the trials of
a block of 1024 in lockstep, one draw per live trial per round, as 128-bit
lanes of one Python int (SIMD within a register): each lane holds a 64-bit
state, and its upper half takes the 64x64-bit products of the finalizer,
so CPython's bigint loops pay the per-draw cost once per round instead of
the interpreter once per draw.  Right shifts are masked so that no bits
cross lanes.  A block is compacted once fewer than half its lanes are
live, and once at most 16 are, each is finished by the skip loop,
restarted k - 1 draws back (see _lane_block).  Histograms and truncation
counts are those of the one-trial loop, bit for bit.

A run of more than one block is shared among the usable CPUs
(_run_shared): this process runs the first of near-equal contiguous
chunks of the trials, and one forked worker per further CPU runs each of
the others.  Workers start at the first call that needs them, take tasks
and return results as marshalled ints, floats and dicts over pipes, and
live until their task pipe reads EOF: at the process's exit, or when it
is killed.  The histograms and truncation counts add up to those of one
process, whatever the number of CPUs.

Chi-square p-values use the finite closed form of the upper tail for an
integer number of degrees of freedom (Abramowitz & Stegun 26.4.4, 26.4.5).
"""

from __future__ import annotations

import atexit
import marshal
import math
import os
import sys
import threading
from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from . import moments as moments_mod
from .numerics import DomainError
# pmf_recurrence stays importable from here: perfbench's tracer rebinds it.
from .pmf import _float_pmf, _nth, _tail_mass, pmf_recurrence  # noqa: F401
from .params import Params, as_float_params

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0 ** -53
_LANES = 1024        # trials per block: 16 KB per packed int
_SLOT = 128          # bits per lane
_SLOT_BYTES = _SLOT // 8
_HANDOFF = 16        # live lanes at or below which the skip loop takes over


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal seedable stream; see the module docstring for the contract."""

    def __init__(self, state: int):
        self.state = state & _MASK

    @classmethod
    def for_trial(cls, seed: int, index: int) -> "SplitMix64":
        return cls(_mix64((seed + index * _GOLDEN) & _MASK))

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix64(self.state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _U53


@dataclass(frozen=True)
class SimConfig:
    params: Params
    trials: int
    seed: int
    max_steps_per_trial: int = 10_000_000

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.max_steps_per_trial < self.params.k:
            raise DomainError("max_steps_per_trial must allow at least one run")


@dataclass(frozen=True)
class SimSummary:
    config: SimConfig
    sample_mean: Optional[float]
    sample_variance: Optional[float]    # unbiased; None when < 2 samples
    histogram: dict
    trials: int
    truncated_count: int

    def to_dict(self):
        return {
            "p": str(self.config.params.p),
            "k": self.config.params.k,
            "trials": self.trials,
            "seed": self.config.seed,
            "max_steps_per_trial": self.config.max_steps_per_trial,
            "sample_mean": self.sample_mean,
            "sample_variance": self.sample_variance,
            "truncated_count": self.truncated_count,
            "histogram": {str(n): c for n, c in sorted(self.histogram.items())},
        }


def _threshold(p: float) -> int:
    """t with uniform() < p exactly when the draw's 64-bit output is < t."""
    return math.ceil(p * 2.0 ** 53) << 11


def _first_run(state: int, p: float, k: int, cap: int):
    """(step, state): the step at which the first run of k successes
    completes in the stream at `state`, or None after `cap` steps without
    one, and the stream's state after the last draw.

    This is the one-trial loop.  Draw n succeeds when
    (mix(state + n*G) >> 11) * 2^-53 < p, which holds exactly when
    mix(state + n*G) < t with t = ceil(p * 2^53) << 11 (scaling by 2^53 is
    exact, and the left side is an integer multiple of 2^-53).

    Invariant: draws 1..done are decided, no run completes by draw done,
    and the last `streak` of those draws are successes after a failure (or
    after the start).  The earliest step a run can complete at is then
    end = done + k - streak.  Draws end, end - 1, ... are tested until one
    fails: if none of done+1..end fails, the run completes at `end`; if
    draw m fails, draws m+1..end succeed, so done = end, streak = end - m
    and the next end is m + k.  Draws done+1..m-1 are never computed.  The
    generator is inlined because a call per draw would dominate the cost.
    """
    t = _threshold(p)
    step_k = k * _GOLDEN
    done = 0
    end = k
    top = (state + step_k) & _MASK        # the state of draw `end`
    while end <= cap:
        s = top
        m = end
        while True:
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            if z ^ (z >> 31) >= t:
                break
            m -= 1
            if m == done:
                return end, top
            s = (s - _GOLDEN) & _MASK
        done = end
        end = m + k
        top = (s + step_k) & _MASK
    # A cap below zero draws nothing, like a cap of zero.
    return None, (state + max(cap, 0) * _GOLDEN) & _MASK


def sample_waiting_time(params: Params, rng: SplitMix64,
                        max_steps: int = 10_000_000) -> Optional[int]:
    """Trial index at which the first run of k successes completes.

    Returns None when the cap is hit (a truncation marker, not an error);
    callers count truncations instead of dropping them silently.
    """
    step, rng.state = _first_run(rng.state, float(params.p), params.k,
                                 max_steps)
    return step


def _spread(n: int):
    """(ones, index): 1 and i in lane i of n lanes, built by doubling."""
    ones, index, m = 1, 0, 1
    while m < n:
        index |= (index + m * ones) << (_SLOT * m)
        ones |= ones << (_SLOT * m)
        m *= 2
    width = (1 << (_SLOT * n)) - 1
    return ones & width, index & width


def _mix_lanes(s: int, mask: int) -> int:
    """The splitmix64 finalizer in every lane; `mask` holds 2^64 - 1 in each.

    A right shift pulls the low bits of the next lane into the top of this
    one, so every shift is masked before the next multiply."""
    z = (s ^ (s >> 30)) & mask
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z = (z ^ (z >> 27)) & mask
    z = (z * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def _lane_bytes(flags: int, n: int) -> bytes:
    """Byte j is nonzero exactly when bit 64 of lane j is set in `flags`."""
    return flags.to_bytes(_SLOT_BYTES * n, "little")[8::_SLOT_BYTES]


def _compact(x: int, keep: list, n: int) -> int:
    """The lanes `keep` of the n-lane packed int x, packed anew in order."""
    b = x.to_bytes(_SLOT_BYTES * n, "little")
    w = _SLOT_BYTES
    return int.from_bytes(b"".join([b[w * j:w * j + w] for j in keep]),
                          "little")


def _lane_block(key: int, n: int, p: float, k: int, cap: int,
                histogram: Counter) -> int:
    """Run the n trials keyed by key, key + G, ..., key + (n-1)*G (mod
    2^64): add the step at which each completes to `histogram`, and return
    how many hit the cap.

    Round `step` draws once in every lane.  Draw `step` succeeds in a lane
    when bit 64 of (2^64 + t - 1) - output is set, that is when output < t,
    the test _first_run makes; the subtraction never borrows across lanes.
    Success masks keep only live lanes.  A run completes in a lane when the
    success masks of the last k rounds all have its bit; the k - 1 masks
    before round 1 are zero, so nothing completes before round k.

    Lanes that have completed keep drawing until fewer than half the block
    is live; then the live lanes are copied out through to_bytes and packed
    anew.  Once at most _HANDOFF lanes are live, each is finished by
    _first_run from the state of draw d = max(step - k + 1, 0).  The restart
    is exact: a run that completes after `step` begins after d, and a run
    inside draws d + 1..step would have completed already.
    """
    ones, index = _spread(n)
    mask = ones * _MASK
    golden = ones * _GOLDEN
    limit = ones * ((1 << 64) + _threshold(p) - 1)
    live = ones << 64
    s = _mix_lanes((key * ones + index * _GOLDEN) & mask, mask)
    recent = deque([0] * (k - 1), maxlen=k - 1)
    lanes = alive = n
    step = 0
    while step < cap and alive > _HANDOFF:
        step += 1
        s = (s + golden) & mask
        success = (limit - _mix_lanes(s, mask)) & live
        run = success
        for earlier in recent:
            run &= earlier
        recent.append(success)
        if run:
            live ^= run
            done = run.bit_count()
            histogram[step] += done
            alive -= done
            if alive > _HANDOFF and 2 * alive < lanes:
                keep = list(compress(range(lanes), _lane_bytes(live, lanes)))
                s = _compact(s, keep, lanes)
                recent = deque([_compact(m, keep, lanes) for m in recent],
                               maxlen=k - 1)
                lanes = alive
                width = (1 << (_SLOT * lanes)) - 1
                mask &= width
                golden &= width
                limit &= width
                live = (ones & width) << 64
    if not alive:
        return 0
    if step == cap:
        return alive
    # Hand the last live lanes to the skip loop.
    d = max(step - k + 1, 0)
    back = (step - d) * _GOLDEN
    states = s.to_bytes(_SLOT_BYTES * lanes, "little")
    truncated = 0
    for j in compress(range(lanes), _lane_bytes(live, lanes)):
        state = int.from_bytes(states[_SLOT_BYTES * j:_SLOT_BYTES * j + 8],
                               "little")
        wait, _ = _first_run((state - back) & _MASK, p, k, cap - d)
        if wait is None:
            truncated += 1
        else:
            histogram[d + wait] += 1
    return truncated


def _run_trials(key: int, trials: int, p: float, k: int, cap: int):
    """(histogram, truncated) of the trials keyed by key, key + G, ...,
    key + (trials-1)*G (mod 2^64), run in blocks of _LANES lanes."""
    histogram = Counter()
    truncated = 0
    for start in range(0, trials, _LANES):
        truncated += _lane_block((key + start * _GOLDEN) & _MASK,
                                 min(_LANES, trials - start),
                                 p, k, cap, histogram)
    return histogram, truncated


# The worker processes: [pid, task fd, result fd] each, in start order.
# Workers are forked on the first call with more than one lane block and
# serve _run_trials tasks until their task pipe reads EOF.
_workers = []
_hooked = False     # the at-fork and at-exit hooks are registered


def _usable_cpus() -> int:
    """The CPUs this process may run on (taskset restricts them), or 1 on a
    platform that cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    """This process's OS threads.  Python's own threads are not all of
    them: numpy's OpenBLAS starts its pool at import."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _send(fd: int, message) -> None:
    """Write one message: its length in 8 bytes, then marshal's bytes."""
    data = marshal.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next message on fd, or None at EOF (its writer is gone)."""
    head = _read(fd, 8)
    body = head and _read(fd, int.from_bytes(head, "little"))
    return None if body is None else marshal.loads(body)


def _read(fd: int, size: int):
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _serve(tasks: int, results: int) -> None:
    while (task := _receive(tasks)) is not None:
        histogram, truncated = _run_trials(*task)
        _send(results, (dict(histogram), truncated))


def _start_worker():
    """Fork one worker and return its entry, or None if that fails."""
    global _hooked
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    task_r, task_w, result_r, result_w = fds
    if pid == 0:
        # The at-fork hook has closed the earlier workers' pipe ends; the
        # parent's ends of this worker's pipes go too, so that the parent's
        # exit, however it comes, ends the task stream.
        status = 1
        try:
            os.close(task_w)
            os.close(result_r)
            _serve(task_r, result_w)
            status = 0
        finally:
            os._exit(status)
    os.close(task_r)
    os.close(result_w)
    if not _hooked:
        _hooked = True
        os.register_at_fork(after_in_child=_forget_workers)
        atexit.register(_stop_workers)
    return [pid, task_w, result_r]


def _forget_workers() -> None:
    """In a forked child: close the parent's pipe ends, so that each worker
    still reads EOF once the parent is gone, and own no workers."""
    for worker in list(_workers):
        _close(worker)


def _close(worker) -> None:
    _workers.remove(worker)
    os.close(worker[1])
    os.close(worker[2])


def _drop(worker, kill: bool = False) -> None:
    """Close a worker's pipes and reap it, killing it first if asked."""
    _close(worker)
    try:
        if kill:
            import signal   # here, not at the top: its import costs 1.5 ms
            os.kill(worker[0], signal.SIGKILL)
        os.waitpid(worker[0], 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _stop_workers(kill: bool = False) -> None:
    """End every worker: at exit each reads EOF and leaves; after an
    exception it is killed, so no later call reads a stale result."""
    for worker in list(_workers):
        _drop(worker, kill)


def _pool(size: int) -> list:
    """Up to `size` live workers: dead ones are reaped and new ones forked,
    unless a fork fails."""
    for worker in list(_workers):
        try:
            dead = os.waitpid(worker[0], os.WNOHANG)[0]
        except ChildProcessError:       # reaped elsewhere
            dead = True
        if dead:
            _close(worker)
    while len(_workers) < size:
        worker = _start_worker()
        if worker is None:
            break
        _workers.append(worker)
    return _workers[:size]


def _run_shared(key: int, trials: int, p: float, k: int, cap: int):
    """_run_trials over the whole range, split into near-equal contiguous
    chunks: chunk 0 runs here and one more on each worker, with one worker
    per usable CPU beyond the first, and at most one per lane block beyond
    the first.  Trial i is keyed by its index alone, so the sums are the
    same for any split.

    The range runs here alone when it is one block, when there is one
    usable CPU, when the process has another thread (which could share the
    pipes, or hold a lock the forked child needs), or when no worker can be
    started.
    """
    width = min(_usable_cpus(), -(-trials // _LANES)) - 1
    if width < 1 or _threads() > 1:
        return _run_trials(key, trials, p, k, cap)
    try:
        pool = _pool(width)
        cuts = [trials * i // (len(pool) + 1) for i in range(len(pool) + 2)]
        tasks = [((key + start * _GOLDEN) & _MASK, stop - start, p, k, cap)
                 for start, stop in zip(cuts, cuts[1:])]
        local, sent = tasks[:1], []
        for worker, task in zip(pool, tasks[1:]):
            try:
                _send(worker[1], task)
                sent.append((worker, task))
            except OSError:             # it died since _pool looked
                _drop(worker)
                local.append(task)
        results = [_run_trials(*task) for task in local]
        for worker, task in sent:
            result = _receive(worker[2])
            if result is None:          # it died mid-task: run its chunk here
                _drop(worker)
                result = _run_trials(*task)
            results.append(result)
    except BaseException:
        _stop_workers(kill=True)
        raise
    histogram, truncated = results[0]
    for part, cut in results[1:]:
        histogram.update(part)
        truncated += cut
    return histogram, truncated


def run_simulation(config: SimConfig) -> SimSummary:
    """Deterministic summary over config.trials independent samples.

    Trial i is the stream keyed by (seed + i*G) mod 2^64, as in
    SplitMix64.for_trial; the trials run in blocks of _LANES lanes (see
    _lane_block), so the histogram and the truncation count are those of
    sample_waiting_time on each trial's stream, bit for bit.  A run of
    more than one block is shared with one forked worker per further
    usable CPU (_run_shared), and its summary is the same for any number
    of CPUs.
    """
    p = float(config.params.p)
    k = config.params.k
    cap = config.max_steps_per_trial
    histogram, truncated = _run_shared(config.seed & _MASK, config.trials,
                                       p, k, cap)

    completed = config.trials - truncated
    mean = variance = None
    if completed >= 1:
        total = sum(n * c for n, c in histogram.items())
        mean = total / completed
        if completed >= 2:
            ss = math.fsum(c * (n - mean) ** 2 for n, c in histogram.items())
            variance = ss / (completed - 1)
    return SimSummary(config=config, sample_mean=mean, sample_variance=variance,
                      histogram=dict(histogram), trials=config.trials,
                      truncated_count=truncated)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with an integer dof >= 1.

    With y = x/2 the tail is sum_{j < dof//2} y^(j+h) e^-y / Gamma(j+h+1),
    h = (dof mod 2)/2, plus erfc(sqrt(y)) for odd dof.  Terms are formed in
    log space because e^-y alone underflows once x > 1490.
    """
    y = x / 2.0
    if y <= 0.0:
        return 1.0
    h = (dof % 2) / 2.0
    total = math.erfc(math.sqrt(y)) if h else 0.0
    log_y = math.log(y)
    for j in range(dof // 2):
        total += math.exp((j + h) * log_y - y - math.lgamma(j + h + 1.0))
    return min(total, 1.0)


@dataclass(frozen=True)
class GofReport:
    chi_square: float
    dof: int
    p_value: float
    flagged: bool            # soft: p-value below threshold
    hard_fail: bool          # impossible support observed
    mean_z: Optional[float]
    variance_z: Optional[float]
    bins: tuple              # (label, observed, expected)
    threshold: float

    def to_dict(self):
        return {
            "chi_square": self.chi_square,
            "dof": self.dof,
            "p_value": self.p_value,
            "flagged": self.flagged,
            "hard_fail": self.hard_fail,
            "mean_z": self.mean_z,
            "variance_z": self.variance_z,
            "threshold": self.threshold,
            "bins": [{"bin": label, "observed": obs, "expected": exp}
                     for label, obs, exp in self.bins],
        }


def gof_report(summary: SimSummary, params: Params,
               threshold: float = 0.001, min_expected: float = 5.0) -> GofReport:
    """Chi-square comparison of the empirical histogram against the pmf.

    Every trial counts.  Bin n holds the trials that completed at step n,
    expected trials * f(n); bins with expected count below min_expected are
    pooled into the tail.  When trials hit the cap, the completed ones end
    by it, so the tail bin stops at the cap and one bin `>cap` holds the
    truncated trials, expected trials * P(N > cap), P(N > cap) =
    f(cap + k + 1) / (q p^k) (pmf._tail_mass); below min_expected it pools
    into the tail too.  Mass observed below the support (n < k) is a hard
    failure; a small chi-square p-value only flags the report (soft, to
    tolerate 1-in-1000 flukes in CI).  Mean and variance z-scores use the
    analytic moments of N, so they are None once a trial is truncated: the
    completed trials are then a sample of N given N <= cap.
    """
    own = summary.config.params
    if own.k != params.k or float(own.p) != float(params.p):
        raise DomainError(
            f"summary was simulated at {own} but compared against {params}")
    trials, truncated = summary.trials, summary.truncated_count
    cap = summary.config.max_steps_per_trial
    completed = trials - truncated
    if completed < 1:
        raise DomainError(
            f"no trial completed: all {trials} hit the cap of {cap} steps; "
            f"raise --max-steps")

    k = params.k
    hard_fail = any(n < k for n in summary.histogram)
    fparams = as_float_params(params)
    last = cap if truncated else math.inf

    # Individual bins while the expected count stays above the cutoff, then
    # one pooled tail bin, up to the cap when trials were truncated.
    edges = []
    cum = 0.0
    values = _float_pmf(fparams)
    for n, f in enumerate(values, start=k):
        if trials * f < min_expected or n - k > 100_000 or n > last:
            break
        edges.append((n, trials * f))
        cum += f
    # P(N > cap), the mass no completed trial can show, from f(cap + k + 1):
    # the walk stopped at f(n), n <= cap + 1.
    beyond = (_tail_mass(fparams, _nth(values, cap + k - n))
              if truncated else 0.0)
    tail_expected = trials * (1.0 - beyond - cum)
    while edges and tail_expected < min_expected:
        last_n, last_exp = edges.pop()
        tail_expected += last_exp
        n = last_n
    observed = [summary.histogram.get(m, 0) for m, _ in edges]
    tail_observed = sum(c for m, c in summary.histogram.items() if m >= n)
    bins = [(str(m), obs, exp) for (m, exp), obs in zip(edges, observed)]
    if truncated and trials * beyond >= min_expected:
        bins.append((str(n) if n == cap else f"{n}..{cap}", tail_observed,
                     tail_expected))
        bins.append((f">{cap}", truncated, trials * beyond))
    else:
        bins.append((f">={n}", tail_observed + truncated,
                     tail_expected + trials * beyond))

    stat = sum((obs - exp) ** 2 / exp for _, obs, exp in bins)
    dof = max(len(bins) - 1, 1)
    p_value = _chi2_sf(stat, dof)

    mean_z = variance_z = None
    if not truncated and completed >= 2 and summary.sample_mean is not None:
        report = moments_mod.moment_report(fparams, 4)
        mu = float(report.mean)
        var = float(report.variance)
        mean_z = (summary.sample_mean - mu) / math.sqrt(var / completed)
        mu4 = float(report.central[2])
        var_of_s2 = (mu4 - var ** 2 * (completed - 3) / (completed - 1)) / completed
        if var_of_s2 > 0 and summary.sample_variance is not None:
            variance_z = (summary.sample_variance - var) / math.sqrt(var_of_s2)

    return GofReport(chi_square=stat, dof=dof, p_value=p_value,
                     flagged=p_value < threshold, hard_fail=hard_fail,
                     mean_z=mean_z, variance_z=variance_z,
                     bins=tuple(bins), threshold=threshold)
