import json
import math
from fractions import Fraction

import pytest

import checks
import geomk
import geomk.cli  # noqa: F401  (the runner calls geomk.cli.main)
import reference
import workloads
from worker import _Runner


@pytest.fixture
def run(tmp_path):
    runner = _Runner(geomk, str(tmp_path), workloads.argv)

    def _run(**op):
        op.setdefault("index", 0)
        record = runner.run(op)
        return op, record

    return _run


def _classify(op, record):
    return checks.classify(op, record, checks.References())


def _rewrite(record, edit):
    with open(record["out"], encoding="utf-8") as handle:
        payload = json.load(handle)
    edit(payload)
    with open(record["out"], "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def test_corrupted_engine_counts_as_failed(run):
    op, record = run(kind="verify", p_grid=["1/3"], k_max=2, n_max=8, r_max=2,
                     corrupt_engine="muselli")
    reason, wrong = _classify(op, record)
    assert reason == "exit 1: cross_engine_pmf" and not wrong


def test_float_value_one_ulp_beyond_tolerance_fails(run):
    op, record = run(kind="pmf", p="0.37", k=2, n=40, mode="float",
                     engine="muselli")
    assert _classify(op, record) == (None, False)
    exact = reference.Recurrence(Fraction(0.37), 2).pmf(40)
    edge = float(exact) + checks.FLOAT_PMF_TOL
    while abs(Fraction(edge) - exact) > checks.FLOAT_PMF_TOL:
        edge = math.nextafter(edge, 0.0)
    _rewrite(record, lambda p: p.update(value=edge))
    assert _classify(op, record) == (None, False)
    _rewrite(record, lambda p: p.update(value=math.nextafter(edge, 1.0)))
    assert _classify(op, record) == ("wrong output: pmf value beyond tolerance",
                                     True)


def test_exact_value_must_match_bit_for_bit(run):
    op, record = run(kind="pmf", p="0.37", k=3, n=60, mode="exact",
                     engine="recurrence", format="json")
    assert _classify(op, record) == (None, False)
    value = reference.Recurrence(Fraction("0.37"), 3).pmf(60)
    _rewrite(record, lambda p: p.update(
        value=f"{value.numerator + 1}/{value.denominator}"))
    assert _classify(op, record) == ("wrong output: pmf value", True)
    _rewrite(record, lambda p: p.update(
        value=f"{2 * value.numerator}/{2 * value.denominator}"))
    assert _classify(op, record) == ("wrong output: pmf value", True)


@pytest.mark.parametrize("op", [
    dict(kind="table", p="0.43", k=3, n_max=40, mode="exact",
         engine="recurrence", format="csv"),
    dict(kind="table", p="0.43", k=3, n_max=40, mode="float",
         engine="rootsum"),
    dict(kind="moments", p="0.43", k=3, r_max=5, mode="exact"),
    dict(kind="moments", p="0.43", k=3, r_max=5, mode="float"),
    dict(kind="roots", p="0.43", k=6, mode="float"),
    dict(kind="series", p="0.43", k=2, r_max=3),
    dict(kind="sample", p="0.5", k=2, mode="float", trials=300, seed=9,
         max_steps=8),
])
def test_correct_outputs_pass(run, op):
    op, record = run(**op)
    assert _classify(op, record) == (None, False)


def test_sample_replay_catches_a_moved_count(run):
    op, record = run(kind="sample", p="0.5", k=2, mode="float", trials=300,
                     seed=9)

    def move(payload):
        hist = payload["summary"]["histogram"]
        first, second = sorted(hist, key=int)[:2]
        hist[first] -= 1
        hist[second] += 1

    _rewrite(record, move)
    assert _classify(op, record) == (
        "wrong output: histogram != splitmix64 replay", True)


def test_known_defects_are_named(run):
    op, record = run(kind="pmf", p="0.123457", k=1, n=800, mode="exact",
                     engine="recurrence", format="csv")
    assert _classify(op, record)[0] == (
        "raised ValueError: Exceeds the limit (4300 digits) for integer "
        "string conversion")
    op, record = run(kind="verify", p_grid=["2/5"], k_max=1, n_max=6, r_max=1)
    assert _classify(op, record)[0] == "exit 1: pgf_identity"
    op, record = run(kind="roots", p="0.2", k=30, mode="float")
    assert _classify(op, record)[0] == "exit 2: root magnitude >= 1"


def test_reference_recurrence_matches_geomk():
    for p, k, n in ((Fraction(1, 3), 2, 30), (Fraction(5, 7), 4, 41),
                    (Fraction(37, 100), 1, 12)):
        params = geomk.make_params(p, k)
        assert reference.Recurrence(p, k).pmf(n) == geomk.pmf_recurrence(params, n)


def test_fixed_point_series_is_within_a_hair_of_exact():
    p = Fraction(0.61)
    fixed = reference.fixed_point_series(p, 4, 500)
    rec = reference.Recurrence(p, 4)
    for n in range(0, 501, 25):
        assert abs(Fraction(fixed[n], 1 << 256) - rec.pmf(n)) < Fraction(1, 10 ** 70)


def test_parse_int_reads_past_the_decimal_limit():
    digits = "7" * 9000
    assert reference.parse_int(digits) == int("7" * 4000) * 10 ** 5000 + \
        int("7" * 4000) * 10 ** 1000 + int("7" * 1000)
