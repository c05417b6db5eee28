"""Exact recurrence tables: pinned output bytes, the checks that guard them,
and a JSON writer that holds one row at a time.

An exact recurrence table is checked and cumulated on the integers
g(n) = f(n) b^n and C(n) = F(n) b^n (pmf._scaled_cumulative), and its digits
come from a Decimal walk that divides by the factors each reduction kept.
Every other table goes through pmf._checked_cumulative.
"""

import hashlib
import io
import math
import sys
from fractions import Fraction

import pytest

from geomk.cli import main
from geomk.numerics import ConsistencyError
from geomk.params import make_params
from geomk.pmf import Engine, _strip_step, build_table

pmf_mod = sys.modules["geomk.pmf"]    # the package's `pmf` is the function

# floor(10^100 / 3) / 10^100, as in test_cli: b = 10^100 is larger than the
# strip step's one-digit bound, so the step is b itself
WIDE_P = Fraction(10 ** 100 // 3, 10 ** 100)

# sha256 of `geomk table --mode exact` output per (p, k, n_max) and format,
# recorded before exact tables were checked on integers and their JSON rows
# streamed; every byte must stay as it was.
GOLDEN = {
    # past the 4300-digit int limit from n = 2150 on
    ("37/100", 2, 2500): {
        "json": "44fed56bcf3d6d8e1f445a231566bcf326e0bdfb61c97f43ee41223813cb8d91",
        "csv": "324ed434186e643a32777282955848f6b9544fd17f54f5d5a84fe744703290f3",
        "text": "1f100250f6b30d5099bbfebb81af9863458e668daba24ed08e5a944e13852f3c",
    },
    # Fibonacci numerators: 2 is stripped repeatedly
    ("1/2", 2, 300): {
        "json": "d4f6ff827713e524d795d03ea421f661d218d3fb6957df02a3c4014444babdde",
        "csv": "a90af4a4ea110314b9ed8d6adb8c5711035466de91fac222515c106bf1b093ee",
        "text": "a7698e64e66ea2cc1cca546031cc11c58eb6d694549aa2a4f32f957967183ca3",
    },
    ("0.123", 7, 900): {
        "json": "8f988039c8f28dc5cf5c852927f0eea4249de411eb57800a61754e2eb4524a94",
        "csv": "dc0cbf11791364e87852487b95d1599995b04f924bf07873920ad120ebb560d4",
        "text": "1c2f0d31eaf0b273edbbfa23aa9368947972904ee01c3ae957598f5caf09426f",
    },
    (f"{WIDE_P.numerator}/{WIDE_P.denominator}", 2, 48): {
        "json": "92bcea0fed3de2b6f508485ad47f1216a931cbcaf207f9dca81ddf6d3eb630ac",
        "csv": "0138cfbd56b1929a777285ec3a79f6185485a7c0feb3d9a402d7d3320912a7c8",
        "text": "50cc99fe2282f1daeedc57be8ccfd242f643ebbb2e030dee0bb46de2e0c8427d",
    },
    # zeros below k
    ("7/12", 6, 20): {
        "json": "98d097044b6689ef3062bec96f088eb494bd9b1179118d2193c3ce58794f5b3e",
        "csv": "66e8db43901d179637579bbb1ff6af9e54b182ba4158ab3c8f7c3ada129541fb",
        "text": "f66d8a7e6f8178d10b280085fff6e153c72ee0f16b8288323357b93542e8ace0",
    },
    ("1/3", 1, 400): {
        "json": "9f3e6550bc135ed55204e8a935bf40ff5aa97e91d5381015cd91193a5501282c",
        "csv": "8025abaffd3ba6cfc17f49d9e3dba224fafc9d0c7505a773913289f0a29b565b",
        "text": "e002431766934fff6d2bea2f304df0b113ff5dcd35a7f6201f728f2a6df3f85f",
    },
}


def table_argv(p, k, n_max, fmt):
    return ["table", "--mode", "exact", "--p", p, "--k", str(k),
            "--n-max", str(n_max), "--format", fmt]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("cell", list(GOLDEN), ids=lambda cell: "-".join(
    map(str, ("wide" if len(cell[0]) > 12 else cell[0],) + cell[1:])))
def test_golden_bytes(cell, fmt, tmp_path):
    out = tmp_path / "table"
    assert main(table_argv(*cell, fmt) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[cell][fmt]


class _Pieces(io.StringIO):
    """A stdout that records the length of every piece written to it."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_json_rows_are_streamed(monkeypatch):
    params = make_params(Fraction(37, 100), 2)
    rows = list(build_table(params, Engine.RECURRENCE, 2500).text_rows())
    longest = max(len(str(n)) + len(f) + len(c) for n, f, c in rows)
    # a row's fixed punctuation: its separator, braces, keys and quotes
    punctuation = len(',\n    {\n      "n": ,\n      "f": "",\n'
                      '      "cumulative": ""\n    }')
    out = _Pieces()
    monkeypatch.setattr("sys.stdout", out)
    assert main(table_argv("37/100", 2, 2500, "json")) == 0
    assert len(out.lengths) > len(rows)
    assert max(out.lengths) <= longest + punctuation
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[("37/100", 2, 2500)]["json"]


def _fake_walk(values):
    """A stand-in for pmf._scaled_pmf that yields values (g(k), g(k+1), ...)
    and then zeros."""
    def walk(a, c, k):
        yield from values
        while True:
            yield 0
    return walk


class TestExactTableChecks:
    """Each check of an exact recurrence table still fires, with the
    message _checked_cumulative gives, when the kernel goes wrong."""

    @pytest.mark.parametrize("values,n_max,message", [
        # p = 1/2, k = 2: g(2) = 1, and g(5) = 2^5 + 1 is above b^5
        ([1, 1, 2, 33], 8, r"^pmf value out of \[0,1\] at n=5: 33/32$"),
        # g(2) = 2 is not a^k = 1
        ([2, 1, 2], 8, r"^pmf at n=k is 1/2, expected p\^k = 1/4$"),
        # every value at most b^n, but 1/4 + 1/2 + 1/2 + 1/2 passes 1
        ([1, 4, 8, 16], 5, r"^cumulative mass exceeds 1: 7/4$"),
    ])
    def test_kernel_fault_raises(self, monkeypatch, values, n_max, message):
        monkeypatch.setattr(pmf_mod, "_scaled_pmf", _fake_walk(values))
        with pytest.raises(ConsistencyError, match=message):
            build_table(make_params(Fraction(1, 2), 2), Engine.RECURRENCE,
                        n_max)

    @pytest.mark.parametrize("engine,p,routed", [
        (Engine.RECURRENCE, Fraction(3, 10), False),
        (Engine.MUSELLI, Fraction(3, 10), True),
        (Engine.CLOSED_FORM, Fraction(3, 10), True),
        (Engine.RECURRENCE, 0.3, True),
        (Engine.MUSELLI, 0.3, True),
        (Engine.CLOSED_FORM, 0.3, True),
        (Engine.ROOT_SUM, 0.3, True),
    ])
    def test_which_tables_use_checked_cumulative(self, monkeypatch, engine,
                                                 p, routed):
        calls = []
        original = pmf_mod._checked_cumulative

        def spy(params, entries):
            calls.append(len(entries))
            return original(params, entries)

        monkeypatch.setattr(pmf_mod, "_checked_cumulative", spy)
        table = build_table(make_params(p, 3), engine, 40)
        assert calls == ([41] if routed else [])
        assert (table.shared is None) == routed

    def test_float_recurrence_nan_fails(self, monkeypatch):
        original = pmf_mod._float_pmf

        def walk(params):
            for n, value in enumerate(original(params), start=params.k):
                yield math.nan if n == 9 else value

        monkeypatch.setattr(pmf_mod, "_float_pmf", walk)
        with pytest.raises(ConsistencyError,
                           match=r"^pmf value out of \[0,1\] at n=9: nan$"):
            build_table(make_params(0.5, 2), Engine.RECURRENCE, 30)


@pytest.mark.parametrize("b", [2, 3, 10, 100, 1000, 2 ** 20, 10 ** 100])
def test_strip_step_is_the_largest_one_digit_power(b):
    step, digit = _strip_step(b), 1 << sys.int_info.bits_per_digit
    power = b
    while power < step:
        power *= b
    assert power == step
    assert step < digit <= step * b or step == b >= digit // b
