import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk import simulate
from geomk.cli import main
from geomk.moments import mean, variance
from geomk.numerics import DomainError
from geomk.params import make_params
from geomk.simulate import (_GOLDEN, _LANES, _MASK, SimConfig, SimSummary,
                            SplitMix64, _chi2_sf, _mix64, gof_report,
                            run_simulation, sample_waiting_time)

HALF2 = make_params(0.5, 2)


class TestSplitMix64:
    def test_reference_stream(self):
        # published splitmix64 outputs for seed state 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679]

    def test_uniform_range(self):
        rng = SplitMix64(987654321)
        values = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_trial_streams_differ(self):
        a = SplitMix64.for_trial(7, 0).next_u64()
        b = SplitMix64.for_trial(7, 1).next_u64()
        assert a != b

    def test_trial_stream_deterministic(self):
        a = [SplitMix64.for_trial(11, 5).next_u64() for _ in range(1)]
        b = [SplitMix64.for_trial(11, 5).next_u64() for _ in range(1)]
        assert a == b


class TestSampleWaitingTime:
    def test_support_lower_bound(self):
        params = make_params(0.8, 3)
        rng = SplitMix64(1)
        assert all(sample_waiting_time(params, rng) >= 3 for _ in range(500))

    def test_reproducible_for_fixed_seed(self):
        draws = [sample_waiting_time(HALF2, SplitMix64.for_trial(11, 0))
                 for _ in range(2)]
        assert draws[0] == draws[1] == 10  # frozen golden draw

    def test_truncation_marker(self):
        params = make_params(0.5, 4)
        assert sample_waiting_time(params, SplitMix64(3), max_steps=3) is None

    def test_k1_first_trial_success_rate(self):
        params = make_params(0.5, 1)
        rng = SplitMix64(99)
        trials = 20_000
        hits = sum(sample_waiting_time(params, rng) == 1 for _ in range(trials))
        sigma = math.sqrt(0.25 * trials)
        assert abs(hits - 0.5 * trials) <= 3 * sigma


def _reference_waiting_time(params, rng, max_steps):
    """The trial loop written directly on the public stream specification."""
    p = float(params.p)
    streak = 0
    for step in range(1, max_steps + 1):
        if rng.uniform() < p:
            streak += 1
            if streak == params.k:
                return step
        else:
            streak = 0
    return None


class TestOneTrialLoop:
    @pytest.mark.parametrize("p, k, trials, seed, cap", [
        (0.5, 2, 3000, 4242, 10_000_000),    # uncapped
        (0.2, 6, 500, 9, 40),                # the cap bites often
    ])
    def test_sampler_and_simulation_agree(self, p, k, trials, seed, cap):
        params = make_params(p, k)
        summary = run_simulation(SimConfig(params=params, trials=trials,
                                           seed=seed, max_steps_per_trial=cap))
        draws = [sample_waiting_time(params, SplitMix64.for_trial(seed, i), cap)
                 for i in range(trials)]
        histogram = Counter(n for n in draws if n is not None)
        assert summary.histogram == dict(histogram)
        assert summary.truncated_count == draws.count(None)
        if cap < 10_000_000:
            assert 0 < summary.truncated_count < trials

    @pytest.mark.parametrize("cap", [3, 7, 1000])
    def test_sampler_follows_stream_specification(self, cap):
        params = make_params(0.6, 3)
        for i in range(200):
            rng = SplitMix64.for_trial(17, i)
            spec = SplitMix64.for_trial(17, i)
            assert (sample_waiting_time(params, rng, cap)
                    == _reference_waiting_time(params, spec, cap))
            assert rng.state == spec.state

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(state=st.integers(0, _MASK), k=st.integers(1, 12),
           cap=st.integers(-1, 400),
           p=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       st.integers(1, 63).map(lambda a: a / 64),
                       st.integers(1, 2 ** 20 - 1).map(lambda a: a / 2 ** 20),
                       st.sampled_from([1e-3, 1 - 2 ** -30])))
    def test_skip_search_matches_draw_by_draw_loop(self, state, k, cap, p):
        params = make_params(p, k)
        rng, spec = SplitMix64(state), SplitMix64(state)
        assert (sample_waiting_time(params, rng, cap)
                == _reference_waiting_time(params, spec, cap))
        assert rng.state == spec.state

    @pytest.mark.parametrize("k, m", [(1, 1), (3, 1), (3, 2), (3, 3)])
    def test_threshold_boundary(self, k, m):
        # p equal to draw m's value makes that draw a failure (u < p is
        # false); the next float up makes it a success.  Streams whose draw
        # m has its low 11 bits zero put the draw exactly on the threshold.
        states = (SplitMix64.for_trial(2718, i).state for i in range(10 ** 6))
        exact = (s for s in states
                 if _mix64((s + m * _GOLDEN) & _MASK) & 0x7FF == 0)
        for _, state in zip(range(20), exact):
            u = (_mix64((state + m * _GOLDEN) & _MASK) >> 11) * 2.0 ** -53
            for p in (u, math.nextafter(u, 1.0)):
                params = make_params(p, k)
                rng, spec = SplitMix64(state), SplitMix64(state)
                step = sample_waiting_time(params, rng, 60)
                assert step == _reference_waiting_time(params, spec, 60)
                assert rng.state == spec.state
                if k == 1 and m == 1:
                    assert (step == 1) == (p > u)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_cap_edges(self, k):
        params = make_params(1 - 2 ** -30, k)    # every draw here succeeds
        state = SplitMix64.for_trial(5, 0).state
        for cap in (-1, 0, k - 1, k, k + 1):
            rng, spec = SplitMix64(state), SplitMix64(state)
            step = sample_waiting_time(params, rng, cap)
            assert step == _reference_waiting_time(params, spec, cap)
            assert rng.state == spec.state
            if cap < k:
                assert step is None
                assert rng.state == (state + max(cap, 0) * _GOLDEN) & _MASK
            else:
                assert step == k


def _one_trial_counts(params, trials, seed, cap):
    """(histogram, truncated) of sample_waiting_time over each trial."""
    draws = [sample_waiting_time(params, SplitMix64.for_trial(seed, i), cap)
             for i in range(trials)]
    return dict(Counter(n for n in draws if n is not None)), draws.count(None)


def _lane_counts(params, trials, seed, cap):
    summary = run_simulation(SimConfig(params=params, trials=trials,
                                       seed=seed, max_steps_per_trial=cap))
    return summary.histogram, summary.truncated_count


class TestLaneKernel:
    """run_simulation's lanes against the independent one-trial loop."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(k=st.integers(1, 12), trials=st.integers(1, 90),
           seed=st.integers(0, _MASK), extra=st.integers(0, 400),
           p=st.one_of(st.integers(1, 63).map(lambda a: a / 64),
                       st.integers(1, 2 ** 20 - 1).map(lambda a: a / 2 ** 20),
                       st.sampled_from([1e-3, 1 - 2 ** -30])))
    def test_matches_one_trial_loop(self, k, trials, seed, extra, p):
        params = make_params(p, k)
        cap = min(k + extra, 400)
        assert (_lane_counts(params, trials, seed, cap)
                == _one_trial_counts(params, trials, seed, cap))

    @pytest.mark.parametrize("trials", [1, _LANES - 1, _LANES, _LANES + 1,
                                        4095, 4096, 4097])
    def test_block_edges(self, trials):
        assert (_lane_counts(HALF2, trials, 606, 10_000_000)
                == _one_trial_counts(HALF2, trials, 606, 10_000_000))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cap_at_k_and_k_plus_1(self, k):
        params = make_params(0.7, k)
        for cap in (k, k + 1):
            counts = _lane_counts(params, 500, 12, cap)
            assert counts == _one_trial_counts(params, 500, 12, cap)
            assert 0 < counts[1] < 500
            assert set(counts[0]) <= {k, k + 1}

    @pytest.mark.parametrize("k, m", [(1, 1), (2, 2), (3, 1)])
    def test_draw_on_the_threshold(self, k, m):
        # The first trial whose draw m has its low 11 bits zero: at p equal
        # to that draw's uniform it fails, one float up it succeeds.
        i = next(i for i in range(10 ** 6)
                 if _mix64((SplitMix64.for_trial(99, i).state + m * _GOLDEN)
                           & _MASK) & 0x7FF == 0 and i >= 40)
        state = SplitMix64.for_trial(99, i).state
        u = (_mix64((state + m * _GOLDEN) & _MASK) >> 11) * 2.0 ** -53
        for p in (u, math.nextafter(u, 1.0)):
            params = make_params(p, k)
            assert (_lane_counts(params, i + 1, 99, 60)
                    == _one_trial_counts(params, i + 1, 99, 60))

    def test_hand_off_to_one_trial_loop(self, monkeypatch):
        params = make_params(0.5, 3)
        want = _one_trial_counts(params, 300, 8, 10_000_000)
        caps = []
        real = simulate._first_run

        def recording(state, p, k, cap):
            caps.append(cap)
            return real(state, p, k, cap)

        monkeypatch.setattr(simulate, "_first_run", recording)
        # 300 trials are one lane block, so they run in this process; past
        # _LANES trials a spy on lane internals sees only this process's
        # chunk, the workers' chunks run in forked copies.
        assert _lane_counts(params, 300, 8, 10_000_000) == want
        # At most 16 trials reach the one-trial loop, restarted past draw 0.
        assert 0 < len(caps) <= 16
        assert len(set(caps)) == 1 and caps[0] < 10_000_000 - 3


def _python(code, *args, **kwargs):
    """Popen of a fresh interpreter running `code` on this checkout's geomk,
    with every warning an error: no numpy or scipy thread is running there,
    so run_simulation forks its workers."""
    import geomk
    src = os.path.dirname(os.path.dirname(geomk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-W", "error", "-c", code, *args],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def _finish(proc, timeout=60):
    """proc.communicate(), killing proc if it outlasts the timeout (a worker
    that never reads EOF hangs its process's exit)."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


def _run_python(code, *args):
    """(stdout as JSON) of _python(code, *args), which must exit 0."""
    with _python(code, *args) as proc:
        out, err = _finish(proc)
    assert proc.returncode == 0, err
    assert err == ""
    return json.loads(out)


_SHARED = """
import json, os, signal, sys, time
from geomk import simulate
from geomk.params import make_params
from geomk.simulate import SimConfig, run_simulation

def use_cpus(n):
    simulate._usable_cpus = lambda: n

def pids():
    return [worker[0] for worker in simulate._workers]

def state(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return None

def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def _process_state(pid):
    """The state letter of process pid, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return None


needs_proc = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and os.path.isdir("/proc/self/task")),
    reason="forked workers need os.fork, sched_getaffinity and /proc")


class TestSharedTrials:
    """run_simulation's split of the trials among forked workers."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(k=st.integers(1, 6), extra=st.integers(0, 60),
           trials=st.integers(1, 3 * _LANES), seed=st.integers(0, _MASK),
           cuts=st.lists(st.integers(0, 3 * _LANES), min_size=1, max_size=3),
           p=st.one_of(st.integers(8, 63).map(lambda a: a / 64),
                       st.sampled_from([0.3, 0.5, 1 - 2 ** -30])))
    def test_pieces_add_up_to_the_whole(self, k, extra, trials, seed, cuts, p):
        cap = k + extra
        bounds = sorted({0, trials, *(c % (trials + 1) for c in cuts)})
        histogram, truncated = Counter(), 0
        for start, stop in zip(bounds, bounds[1:]):
            part, cut = simulate._run_trials((seed + start * _GOLDEN) & _MASK,
                                             stop - start, p, k, cap)
            histogram.update(part)
            truncated += cut
        assert (histogram, truncated) == simulate._run_trials(seed, trials,
                                                              p, k, cap)

    @needs_proc
    def test_any_cpu_count_gives_the_same_summary(self):
        out = _run_python(_SHARED + """
out = {"summaries": [], "workers": []}
for trials, cap in ((1025, 10_000_000), (4097, 40), (20000, 10_000_000)):
    config = SimConfig(params=make_params(0.5, 3), trials=trials, seed=7,
                       max_steps_per_trial=cap)
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        out["summaries"].append(run_simulation(config).to_dict())
        out["workers"].append(pids())
use_cpus(2)
run_simulation(config)
out["again"] = pids()
print(json.dumps(out))
""")
        summaries = out["summaries"]
        for i in range(0, 9, 3):
            assert summaries[i] == summaries[i + 1] == summaries[i + 2]
        assert summaries[3]["truncated_count"] > 0
        # At most one worker per CPU beyond the first and per block beyond
        # the first (1025 trials are two blocks); workers live on unused.
        first, second = out["workers"][5]
        assert out["workers"] == [[], [first], [first],
                                  [first], [first], [first, second],
                                  [first, second], [first, second],
                                  [first, second]]
        assert out["again"] == [first, second]

    @needs_proc
    def test_killed_worker_is_reaped_and_replaced(self):
        out = _run_python(_SHARED + """
use_cpus(2)
config = SimConfig(params=make_params(0.5, 3), trials=4097, seed=7)
first = run_simulation(config)
[old] = pids()
os.kill(old, signal.SIGKILL)
deadline = time.monotonic() + 10
while state(old) != "Z" and time.monotonic() < deadline:
    time.sleep(0.005)
second = run_simulation(config)
print(json.dumps({"same": first == second, "old": old, "now": pids(),
                  "reaped": reaped(old)}))
""")
        assert out["same"] and out["reaped"]
        assert len(out["now"]) == 1 and out["now"] != [out["old"]]

    @needs_proc
    def test_worker_killed_mid_task_is_dropped(self):
        # The timer kills the worker while both halves are running; the
        # parent reads EOF and runs the worker's half itself.
        out = _run_python(_SHARED + """
use_cpus(1)
config = SimConfig(params=make_params(0.5, 5), trials=20000, seed=3)
serial = run_simulation(config)
use_cpus(2)
run_simulation(SimConfig(params=make_params(0.5, 2), trials=2000, seed=1))
[old] = pids()
signal.signal(signal.SIGALRM, lambda *_: os.kill(old, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, 0.05)
shared = run_simulation(config)
print(json.dumps({"same": serial == shared, "now": pids(),
                  "reaped": reaped(old)}))
""")
        assert out == {"same": True, "now": [], "reaped": True}

    @needs_proc
    def test_interrupt_mid_task_stops_the_workers(self):
        # No later call may read the interrupted call's result.
        out = _run_python(_SHARED + """
use_cpus(2)
config = SimConfig(params=make_params(0.5, 5), trials=20000, seed=3)
run_simulation(SimConfig(params=make_params(0.5, 2), trials=2000, seed=1))
[old] = pids()

def interrupt(*_):
    raise KeyboardInterrupt

signal.signal(signal.SIGALRM, interrupt)
signal.setitimer(signal.ITIMER_REAL, 0.05)
try:
    run_simulation(config)
except KeyboardInterrupt:
    pass
stopped = {"now": pids(), "reaped": reaped(old)}
shared = run_simulation(config)
use_cpus(1)
print(json.dumps({**stopped, "same": shared == run_simulation(config),
                  "new": len(set(pids()) - {old})}))
""")
        assert out == {"now": [], "reaped": True, "same": True, "new": 1}

    @needs_proc
    def test_output_before_a_fork_is_written_once(self):
        # stdout is a pipe, so "before" waits in a buffer the fork copies:
        # a worker that writes would flush that copy too, unless the parent
        # flushed first.
        code = _SHARED + """
print("before")
serve = simulate._serve

def chatty(tasks, results):
    print("worker", flush=True)
    serve(tasks, results)

simulate._serve = chatty
use_cpus(2)
run_simulation(SimConfig(params=make_params(0.5, 2), trials=2000, seed=1))
"""
        with _python(code) as proc:
            out, err = _finish(proc)
        assert proc.returncode == 0, err
        assert out == "before\nworker\n"

    @needs_proc
    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_no_worker_outlives_its_process(self, ending):
        code = _SHARED + """
use_cpus(3)
run_simulation(SimConfig(params=make_params(0.5, 2), trials=5000, seed=1))
print(json.dumps(pids()), flush=True)
if sys.argv[1] == "kill":
    sys.stdin.read()
"""
        with _python(code, ending, stdin=subprocess.PIPE) as proc:
            workers = json.loads(proc.stdout.readline())
            assert len(workers) == 2
            if ending == "kill":
                proc.kill()
            _, err = _finish(proc)
        if ending == "exit":
            assert proc.returncode == 0 and err == ""
            # reaped by the process's exit hook, so gone, not even a zombie
            assert [_process_state(pid) for pid in workers] == [None, None]
            return
        # An orphan reads EOF on its task pipe and leaves; it stays a
        # zombie only where nothing reaps orphans.
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline and any(
                _process_state(pid) not in (None, "Z") for pid in workers):
            time.sleep(0.01)
        assert all(_process_state(pid) in (None, "Z") for pid in workers)


class TestRunSimulation:
    def test_determinism(self):
        config = SimConfig(params=HALF2, trials=5000, seed=4242)
        assert run_simulation(config) == run_simulation(config)

    def test_single_trial(self):
        config = SimConfig(params=HALF2, trials=1, seed=5)
        summary = run_simulation(config)
        assert summary.truncated_count == 0
        assert sum(summary.histogram.values()) == 1
        assert summary.sample_variance is None

    def test_histogram_mass_plus_truncated_is_total(self):
        params = make_params(0.2, 6)
        config = SimConfig(params=params, trials=300, seed=9,
                           max_steps_per_trial=10)
        summary = run_simulation(config)
        assert sum(summary.histogram.values()) + summary.truncated_count == 300
        assert summary.truncated_count > 0   # cap of 10 steps bites hard

    def test_mean_within_band(self):
        config = SimConfig(params=HALF2, trials=50_000, seed=77)
        summary = run_simulation(config)
        mu = float(mean(HALF2))
        var = float(variance(HALF2))
        assert abs(summary.sample_mean - mu) <= 3 * math.sqrt(var / 50_000)

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            SimConfig(params=HALF2, trials=0, seed=1)

    def test_support_frequency_at_k(self):
        config = SimConfig(params=HALF2, trials=100_000, seed=31337)
        summary = run_simulation(config)
        freq = summary.histogram.get(2, 0) / 100_000
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(freq - 0.25) <= 3 * sigma

    def test_plateau_band(self):
        # n in [k+1, 2k] all share probability q p^k = 1/8
        config = SimConfig(params=HALF2, trials=100_000, seed=31337)
        summary = run_simulation(config)
        expected = 0.125
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        for n in (3, 4):
            freq = summary.histogram.get(n, 0) / 100_000
            assert abs(freq - expected) <= 3 * sigma


@pytest.fixture(scope="module")
def summary():
    return run_simulation(SimConfig(params=HALF2, trials=100_000, seed=2024))


class TestGofReport:
    def test_matching_data_not_flagged(self, summary):
        report = gof_report(summary, HALF2)
        assert not report.hard_fail
        assert not report.flagged
        assert report.p_value > 0.001
        assert abs(report.mean_z) < 4
        assert abs(report.variance_z) < 4

    def test_bins_have_minimum_expectation(self, summary):
        report = gof_report(summary, HALF2)
        assert all(exp >= 5.0 for _, _, exp in report.bins)
        assert report.bins[-1][0].startswith(">=")

    def test_exact_params_accepted(self, summary):
        report = gof_report(summary, make_params(Fraction(1, 2), 2))
        assert not report.hard_fail

    def test_mismatched_params_rejected(self, summary):
        with pytest.raises(DomainError):
            gof_report(summary, make_params(0.4, 2))
        with pytest.raises(DomainError):
            gof_report(summary, make_params(0.5, 3))

    def test_impossible_support_hard_fails(self):
        config = SimConfig(params=HALF2, trials=10, seed=3)
        base = run_simulation(config)
        doctored = SimSummary(config=config, sample_mean=base.sample_mean,
                              sample_variance=base.sample_variance,
                              histogram={**base.histogram, 1: 2},
                              trials=12, truncated_count=0)
        report = gof_report(doctored, HALF2)
        assert report.hard_fail

    def test_all_truncated_raises_domain_error(self):
        params = make_params(0.01, 2)
        summary = run_simulation(SimConfig(params=params, trials=5, seed=1,
                                           max_steps_per_trial=2))
        assert summary.truncated_count == 5
        with pytest.raises(DomainError, match="no trial completed"):
            gof_report(summary, params)

    @pytest.mark.parametrize("p, k, cap, seed", [
        (0.5, 5, 40, 1), (0.5, 5, 40, 2), (0.3, 3, 25, 1), (0.7, 8, 30, 1)])
    def test_capped_runs_are_censored_not_flagged(self, p, k, cap, seed):
        params = make_params(p, k)
        summary = run_simulation(SimConfig(params=params, trials=20_000,
                                           seed=seed, max_steps_per_trial=cap))
        report = gof_report(summary, params)
        assert summary.truncated_count > 5000
        assert not report.flagged and not report.hard_fail
        assert report.mean_z is None and report.variance_z is None
        # Every trial is in a bin, the truncated ones in the last.
        assert sum(obs for _, obs, _ in report.bins) == 20_000
        assert report.bins[-1][:2] == (f">{cap}", summary.truncated_count)
        assert sum(exp for _, _, exp in report.bins) == pytest.approx(20_000)
        assert all(exp >= 5.0 for _, _, exp in report.bins)

    def test_rare_truncations_pool_into_the_tail(self):
        # P(N > 20) = F(22) / 2^20 = 0.017 at p = 0.5, k = 2: 1.7 of 100
        # trials expected beyond the cap, too few for a bin of their own.
        params = make_params(0.5, 2)
        summary = run_simulation(SimConfig(params=params, trials=100,
                                           seed=11, max_steps_per_trial=20))
        report = gof_report(summary, params)
        assert summary.truncated_count > 0
        assert report.bins[-1][0].startswith(">=")
        assert sum(obs for _, obs, _ in report.bins) == 100
        assert report.mean_z is None and report.variance_z is None

    def test_json_payload_shape(self, summary):
        payload = gof_report(summary, HALF2).to_dict()
        assert {"chi_square", "dof", "p_value", "flagged", "hard_fail",
                "mean_z", "variance_z", "threshold", "bins"} <= set(payload)


class TestChi2Tail:
    @pytest.mark.parametrize("dof", [1, 2, 3, 7, 60, 1200, 5000])
    def test_matches_scipy(self, dof):
        chi2 = pytest.importorskip("scipy.stats").chi2
        for i in range(60):
            x = dof * (0.05 + i * 2.95 / 59)
            want = float(chi2.sf(x, dof))
            got = _chi2_sf(x, dof)
            assert got == want or abs(got - want) <= 1e-10 * want, (x, got, want)

    @pytest.mark.parametrize("x", [1e-9, 0.3, 2.0, 17.5, 400.0, 1400.0])
    def test_closed_forms_at_dof_1_and_2(self, x):
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))

    @pytest.mark.parametrize("dof", [1, 2, 3, 60])
    def test_zero_statistic_is_certain(self, dof):
        assert _chi2_sf(0.0, dof) == 1.0

    def test_no_underflow_past_e_to_minus_745(self):
        # e^(-x/2) alone is 0.0 here; the tail itself is about 5.3e-274
        assert math.exp(-1500.0 / 2) == 0.0
        assert 1e-275 < _chi2_sf(1500.0, 60) < 1e-273

    def test_sample_command_does_not_import_scipy(self):
        import geomk
        src = os.path.dirname(os.path.dirname(geomk.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys\n"
                "from geomk.cli import main\n"
                "assert main(['sample', '--p', '0.5', '--k', '2',"
                " '--trials', '2000', '--seed', '3']) == 0\n"
                "assert 'scipy' not in sys.modules\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert '"p_value"' in result.stdout


def test_summary_json_roundtrip(capsys):
    assert main(["sample", "--p", "0.5", "--k", "2", "--trials", "200",
                 "--seed", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)["summary"]
    assert payload["trials"] == 200
    assert payload["seed"] == 8
    assert sum(payload["histogram"].values()) == 200


def test_histogram_csv_has_analytic_column(capsys):
    assert main(["sample", "--p", "0.5", "--k", "2", "--trials", "500",
                 "--seed", "13", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,count,frequency,analytic"
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[3]) == pytest.approx(0.25)
