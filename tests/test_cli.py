import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomk import cli
from geomk import moments as moments_mod
from geomk import roots as roots_mod
from geomk import simulate as sim_mod
from geomk import verify as verify_mod
from geomk.cli import build_parser, main
from geomk.numerics import Mode, PrecisionWarning
from geomk.params import make_params
from geomk.pmf import Engine, build_table
from geomk.schema import SCHEMA_NAMES, load_schema


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestPmfCommand:
    def test_exact_fraction_output(self, capsys):
        code, out, _ = run_cli("pmf", "--p", "1/2", "--k", "2", "--n", "5",
                               "--engine", "recurrence", "--mode", "exact",
                               capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "3/32"
        assert "decimal: 0.09375" in out
        assert "engine: recurrence, mode: exact" in out

    def test_below_support_is_zero(self, capsys):
        code, out, _ = run_cli("pmf", "--p", "0.5", "--k", "2", "--n", "1",
                               capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_out_of_range_p_exits_2(self, capsys):
        code, _, err = run_cli("pmf", "--p", "1.5", "--k", "2", "--n", "5",
                               capsys=capsys)
        assert code == 2
        assert "--p" in err

    def test_malformed_p_exits_2(self, capsys):
        code, _, err = run_cli("pmf", "--p", "x/y", "--k", "2", "--n", "5",
                               capsys=capsys)
        assert code == 2
        assert "--p" in err

    def test_rootsum_rejected_in_exact_mode(self, capsys):
        code, _, err = run_cli("pmf", "--p", "1/2", "--k", "2", "--n", "5",
                               "--engine", "rootsum", "--mode", "exact",
                               capsys=capsys)
        assert code == 2
        assert "float-only" in err

    def test_rootsum_in_float_mode(self, capsys):
        code, out, _ = run_cli("pmf", "--p", "0.5", "--k", "2", "--n", "5",
                               "--engine", "rootsum", "--mode", "float",
                               capsys=capsys)
        assert code == 0
        assert abs(float(out.splitlines()[0]) - 0.09375) < 1e-10

    def test_json_schema(self, capsys):
        code, out, _ = run_cli("pmf", "--p", "1/2", "--k", "2", "--n", "5",
                               "--format", "json", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("pmf_value"))
        assert payload["value"] == "3/32"


class TestTableCommand:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli("table", "--p", "1/2", "--k", "2", "--n-max", "5",
                               "--format", "csv", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,f,cumulative"
        assert lines[-1] == "5,3/32,19/32"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli("table", "--p", "0.5", "--k", "2", "--n-max", "12",
                               "--mode", "float", "--format", "json",
                               capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("pmf_table"))
        assert payload["tail_bound"] > 0

    def test_float_table_at_k_60(self, capsys):
        # q p^k = 2^-61: the float roots are lost, the tail mass is not
        code, out, err = run_cli("table", "--p", "0.5", "--k", "60",
                                 "--n-max", "80", "--mode", "float",
                                 "--format", "json", capsys=capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        mass = payload["tail_bound"] + payload["entries"][-1]["cumulative"]
        assert abs(mass - 1) <= 1e-15

    def test_float_table_past_the_double_range_exits_2(self, capsys):
        code, out, err = run_cli("table", "--p", "0.5", "--k", "1100",
                                 "--n-max", "1200", "--mode", "float",
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: q p^k = 0 underflows")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_n_max_validation(self, capsys):
        code, _, err = run_cli("table", "--p", "1/2", "--k", "3", "--n-max", "1",
                               capsys=capsys)
        assert code == 2
        assert "n_max" in err

    # the vanishing-free sum cancels heavily at p = 0.75, k = 2 from n = 25 on
    DEGRADED = ("table", "--p", "0.75", "--k", "2", "--n-max", "400",
                "--mode", "float", "--engine", "closedform")
    NOTE = ("note: precision degraded at 376 of 401 entries (heavy "
            "cancellation in this formula at these arguments)\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_degraded_entries_are_one_stderr_note(self, fmt, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)   # none may leak
            code, out, err = run_cli(*self.DEGRADED, "--format", fmt,
                                     capsys=capsys)
        assert (code, err) == (0, self.NOTE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionWarning)
            table = build_table(make_params(0.75, 2), Engine.CLOSED_FORM, 400)
        if fmt == "json":
            assert out == json.dumps(table.to_dict(), indent=2) + "\n"
        else:
            assert out == "".join(f"{n},{f},{c}\n" for n, f, c in
                                  [("n", "f", "cumulative"), *table.text_rows()])

    def test_degraded_entries_end_the_text(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            code, out, err = run_cli(*self.DEGRADED, capsys=capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert lines[-1] == self.NOTE
        assert lines[-2].startswith("  tail bound beyond n_max: ")
        assert "note:" not in "".join(lines[:-1])

    def test_clean_table_has_no_note(self, capsys):
        code, out, err = run_cli("table", "--p", "0.5", "--k", "2", "--n-max",
                                 "20", "--mode", "float", "--engine", "muselli",
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert "note:" not in out


class TestMomentsCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli("moments", "--p", "1/2", "--k", "2",
                               "--r-max", "2", capsys=capsys)
        assert code == 0
        assert "mean     = 6" in out
        assert "variance = 22" in out
        assert "factorial=52" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli("moments", "--p", "1/3", "--k", "2",
                               "--r-max", "3", "--format", "json",
                               capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("moment_report"))
        assert payload["mean"] == "12"

    @pytest.mark.parametrize("engine", ["recurrence", "muselli", "closedform"])
    def test_float_divisor_underflow_exits_2(self, engine, capsys):
        # (q p^k)^2 underflows to 0.0 in double at p = 0.5, k = 1100.
        code, out, err = run_cli("moments", "--p", "0.5", "--k", "1100",
                                 "--mode", "float", "--engine", engine,
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: factorial moment r=1 of (p=0.5, k=1100, float): "
                       "(q p^k)^2 underflows the float range; use exact mode\n")


class TestRootsCommand:
    def test_json_schema_and_golden(self, capsys):
        code, out, _ = run_cli("roots", "--p", "0.5", "--k", "2", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("root_certification"))
        assert payload["passed"] is True
        assert payload["roots"][0]["re"] == pytest.approx(0.8090169943749475)

    def test_exact_mode_rejected(self, capsys):
        code, _, err = run_cli("roots", "--p", "1/2", "--k", "2",
                               "--mode", "exact", capsys=capsys)
        assert code == 2
        assert "float" in err


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli("verify", "--p-grid", "1/2", "--k-max", "2",
                               "--n-max", "40", "--r-max", "3", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("verify_report"))
        assert payload["passed"] is True

    def test_degenerate_grid_passes(self, capsys):
        code, out, _ = run_cli("verify", "--p-grid", "2/3", "--k-max", "2",
                               "--n-max", "40", "--r-max", "3", capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_corrupted_engine_fails_with_triple(self, capsys):
        code, out, _ = run_cli("verify", "--p-grid", "1/2", "--k-max", "2",
                               "--n-max", "20", "--r-max", "2",
                               "--corrupt-engine", "muselli", capsys=capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        failing = [c for c in payload["checks"] if not c["passed"]]
        first = failing[0]["failures"][0]
        assert {"p", "k", "n"} <= set(first)

    def test_unknown_corrupt_engine_exits_2(self, capsys):
        code, out, err = run_cli("verify", "--p-grid", "1/2", "--k-max", "1",
                                 "--corrupt-engine", "bogus", capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: --corrupt-engine: unknown engine 'bogus'; "
                       "valid engines: muselli, closedform\n")

    @pytest.mark.parametrize("flag,value", [("--k-max", "0"), ("--r-max", "0"),
                                            ("--n-max", "-1")])
    def test_vacuous_grid_exits_2(self, flag, value, capsys):
        code, out, err = run_cli("verify", "--p-grid", "1/2", "--k-max", "1",
                                 "--n-max", "5", "--r-max", "1", flag, value,
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: must be >= ")
        assert err.count("\n") == 1

    def test_malformed_p_grid_names_the_flag(self, capsys):
        code, _, err = run_cli("verify", "--p-grid", "1/2,x", "--k-max", "1",
                               capsys=capsys)
        assert code == 2
        assert err.startswith("error: --p-grid: ")

    def test_text_format(self, capsys):
        code, out, _ = run_cli("verify", "--p-grid", "1/2", "--k-max", "1",
                               "--n-max", "20", "--r-max", "2",
                               "--format", "text", capsys=capsys)
        assert code == 0
        assert "PASS overall" in out


class TestSampleCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli("sample", "--p", "0.5", "--k", "2",
                               "--trials", "5000", "--seed", "99",
                               capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("sample_report"))
        assert payload["summary"]["trials"] == 5000
        assert payload["gof"]["hard_fail"] is False

    def test_determinism_across_invocations(self, capsys):
        args = ("sample", "--p", "0.5", "--k", "2", "--trials", "2000",
                "--seed", "5")
        _, out1, _ = run_cli(*args, capsys=capsys)
        _, out2, _ = run_cli(*args, capsys=capsys)
        assert out1 == out2

    def test_csv_histogram(self, capsys):
        code, out, _ = run_cli("sample", "--p", "0.5", "--k", "1",
                               "--trials", "1000", "--seed", "3",
                               "--format", "csv", capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,count,frequency,analytic"

    def test_text_with_one_trial_prints_na_z_scores(self, capsys):
        code, out, err = run_cli("sample", "--p", "0.5", "--k", "2",
                                 "--trials", "1", "--format", "text",
                                 capsys=capsys)
        assert code == 0
        assert "mean z, var z   = n/a, n/a" in out
        assert err == ""

    def test_text_with_one_trial_prints_na_sample_variance(self, capsys):
        code, out, _ = run_cli("sample", "--p", "0.5", "--k", "2",
                               "--trials", "1", "--format", "text",
                               capsys=capsys)
        assert code == 0
        assert "sample variance = n/a" in out
        assert "None" not in out

    def test_p_near_one_gives_finite_z_scores(self, capsys):
        code, out, err = run_cli("sample", "--p", "0.999999999", "--k", "1",
                                 "--trials", "20", capsys=capsys)
        assert code == 0
        assert err == ""
        gof = json.loads(out)["gof"]
        assert math.isfinite(gof["mean_z"]) and math.isfinite(gof["variance_z"])

    def test_all_trials_truncated_exits_2(self, capsys):
        code, out, err = run_cli("sample", "--p", "0.01", "--k", "2",
                                 "--trials", "5", "--max-steps", "2",
                                 capsys=capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: no trial completed")
        assert "--max-steps" in err


def test_bench_is_not_a_subcommand(capsys):
    # Engine timing lives in the benchmark harness, and engine deviations
    # in `geomk verify --mode float`.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--p", "0.5", "--k", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("usage: geomk ")
    assert "invalid choice: 'bench'" in err
    assert "Traceback" not in err


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli("table", "--p", "1/2", "--k", "2",
                               "--n-max", "4", "--format", "csv",
                               "--out", str(target), capsys=capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,f,cumulative")

    def test_unopenable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        code, out, err = run_cli("pmf", "--p", "1/2", "--k", "1", "--n", "5",
                                 "--out", str(target), capsys=capsys)
        assert code == 2
        assert out == ""
        assert err == (f"error: --out: cannot open {target}: "
                       "No such file or directory\n")


CSV_HEADERS = {
    "pmf": ["n", "f"],
    "table": ["n", "f", "cumulative"],
    "moments": ["r", "factorial", "raw", "central"],
    "roots": ["index", "re", "im", "identity_residual"],
    "sample": ["n", "count", "frequency", "analytic"],
}
COMMANDS = [
    ("pmf", "--p", "1/2", "--k", "2", "--n", "5"),
    ("table", "--p", "1/3", "--k", "2", "--n-max", "8"),
    ("moments", "--p", "0.3", "--k", "2", "--r-max", "3", "--mode", "float"),
    ("roots", "--p", "0.5", "--k", "3"),
    ("verify", "--p-grid", "1/2", "--k-max", "1", "--n-max", "10",
     "--r-max", "2"),
    ("sample", "--p", "0.5", "--k", "2", "--trials", "200", "--seed", "2"),
]


@pytest.mark.parametrize("argv,fmt", [
    (argv, fmt) for argv in COMMANDS
    for fmt in (("text", "json") if argv[0] == "verify" else ("text", "json", "csv"))
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_every_format_is_one_dialect(argv, fmt, tmp_path, capsys):
    code, out, err = run_cli(*argv, "--format", fmt, capsys=capsys)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and not out.endswith("\n\n")
    if fmt == "csv":
        assert "\r" not in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADERS[argv[0]]
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
    elif fmt == "json":
        json.loads(out)
    target = tmp_path / "report"
    code, out_with_file, _ = run_cli(*argv, "--format", fmt, "--out",
                                     str(target), capsys=capsys)
    assert (code, out_with_file) == (0, "")
    assert target.read_bytes() == out.encode()


def test_closed_stdout_exits_141_without_traceback():
    # `geomk table ... | head -1`: the reader leaves after the header.  The
    # table (about 0.8 MB) outgrows the pipe buffer, so later writes fail.
    import geomk
    src = os.path.dirname(os.path.dirname(geomk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "geomk", "table", "--p", "1/3", "--k", "2",
         "--n-max", "20000", "--mode", "float", "--format", "csv"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"n,f,cumulative\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == 141


def test_every_schema_loads():
    for name in SCHEMA_NAMES:
        schema = load_schema(name)
        jsonschema.Draft202012Validator.check_schema(schema)


def test_shipped_schemas_are_the_named_ones():
    # Both directions: no name without a file, and no file without a name.
    shipped = {entry.name.removesuffix(".schema.json")
               for entry in (resources.files("geomk") / "schemas").iterdir()
               if entry.name.endswith(".schema.json")}
    assert shipped == set(SCHEMA_NAMES)


def test_unknown_schema_rejected():
    with pytest.raises(KeyError):
        load_schema("nope")


def json_written(payload, stdout=None):
    """What `_write` puts on stdout for `payload` in JSON format."""
    stdout = io.StringIO() if stdout is None else stdout
    with contextlib.redirect_stdout(stdout):
        cli._write(types.SimpleNamespace(out="-", format="json"),
                   lambda: payload, (), ())
    return stdout.getvalue()


# Strings that look like the writer's own structure, beside arbitrary text.
JSON_TEXT = st.one_of(
    st.text(),
    st.sampled_from(["{", "[", "}", "]", "},\n      {", '"', "\\", "\n",
                     "{}", "[1]", ": ", "\u00e9", "\u2603", "\U0001f600"]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=True, allow_infinity=True),
                         JSON_TEXT)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.floats(), st.booleans(),
                      st.none())
JSON_ROWS = st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=6)
JSON_PAYLOADS = st.recursive(
    st.one_of(JSON_SCALARS, JSON_ROWS),
    lambda children: st.one_of(
        st.lists(st.one_of(JSON_ROWS, children), max_size=6),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=6)),
    max_leaves=40)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c", "python"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(payload=JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(c_encoder, payload):
    with contextlib.ExitStack() as stack:
        if not c_encoder:
            stack.enter_context(mock.patch.object(cli, "c_make_encoder", None))
        assert json_written(payload) == json.dumps(payload, indent=2) + "\n"


def test_json_writer_streams_rows():
    # A report is written in pieces, never as one document string.
    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    payload = {"entries": [{"n": n, "f": str(3 ** n)} for n in range(400)]}
    stdout = Writes()
    assert json_written(payload, stdout) == json.dumps(payload, indent=2) + "\n"
    assert max(stdout.sizes) < 400


def csv_written(rows):
    """What `_write` puts on stdout for `rows` in CSV format."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._write(types.SimpleNamespace(out="-", format="csv"),
                   None, iter(rows), ())
    return stdout.getvalue()


def csv_module_written(rows):
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerows(rows)
    return stream.getvalue()


# No "\r": whether csv quotes it with an LF line terminator differs across
# Python versions.
CSV_TEXT = st.text(alphabet='0123456789abcXYZ/-., "\n', max_size=12)
CSV_FIELDS = st.one_of(st.none(), st.integers(),
                       st.floats(allow_nan=True, allow_infinity=True),
                       CSV_TEXT)
CSV_ROWS = st.lists(st.one_of(st.lists(CSV_FIELDS, max_size=6),
                              st.lists(CSV_FIELDS, max_size=6).map(tuple)),
                    max_size=8)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=CSV_ROWS)
def test_csv_writer_matches_csv_module(rows):
    assert csv_written(rows) == csv_module_written(rows)


@pytest.mark.parametrize("row,expected", [
    ([""], '""\n'), ([None], '""\n'), ((), "\n"), (["", ""], ",\n"),
    (['a"b', "c,d", "e\nf", ""], '"a""b","c,d","e\nf",\n'),
    ([float("nan"), float("-inf"), 1e300, -0.0], "nan,-inf,1e+300,-0.0\n"),
])
def test_csv_writer_pins(row, expected):
    assert csv_written([row]) == csv_module_written([row]) == expected


def _roots_payload(params):
    root_set = roots_mod.find_roots(params)
    cert = roots_mod.certify_roots(root_set, params)
    return {"p": str(params.p), "k": params.k,
            "roots": [{"re": z.real, "im": z.imag} for z in root_set.roots],
            "principal_index": root_set.principal_index, **cert.to_dict()}


def _sample_payload(params, trials, seed):
    summary = sim_mod.run_simulation(sim_mod.SimConfig(params, trials, seed))
    gof = sim_mod.gof_report(summary, params)
    return {"summary": summary.to_dict(), "gof": gof.to_dict()}


# p = floor(10^100 / 3) / 10^100: f(n) has a denominator of 100n digits, so
# the last rows of the exact table are past CPython's 4300-digit int limit.
WIDE_P = Fraction(10 ** 100 // 3, 10 ** 100)
LIBRARY_REPORTS = {
    "table-float": (
        ("table", "--p", "0.3", "--k", "3", "--n-max", "300", "--mode", "float",
         "--engine", "rootsum"),
        lambda: build_table(make_params(0.3, 3), Engine.ROOT_SUM, 300).to_dict()),
    "table-exact": (
        ("table", "--p", f"{WIDE_P.numerator}/{WIDE_P.denominator}", "--k", "2",
         "--n-max", "48"),
        lambda: build_table(make_params(WIDE_P, 2), Engine.RECURRENCE, 48).to_dict()),
    "roots": (("roots", "--p", "0.4", "--k", "5"),
              lambda: _roots_payload(make_params(0.4, 5))),
    "moments": (("moments", "--p", "1/3", "--k", "2", "--r-max", "5"),
                lambda: moments_mod.moment_report(
                    make_params(Fraction(1, 3), 2), 5).to_dict()),
    "verify": (("verify", "--p-grid", "1/2", "--k-max", "2", "--n-max", "20",
                "--r-max", "2", "--corrupt-engine", "muselli"),
               lambda: verify_mod.run_verify(
                   [Fraction(1, 2)], 2, 20, 2, Mode.EXACT,
                   corrupt_engine="muselli").to_dict()),
    "sample": (("sample", "--p", "0.5", "--k", "2", "--trials", "300",
                "--seed", "4"),
               lambda: _sample_payload(make_params(0.5, 2), 300, 4)),
}


@pytest.mark.parametrize("name", LIBRARY_REPORTS)
def test_json_output_is_json_dumps_of_the_library_report(name, capsys):
    argv, library = LIBRARY_REPORTS[name]
    expected = json.dumps(library(), indent=2) + "\n"
    _, out, err = run_cli(*argv, "--format", "json", capsys=capsys)
    assert err == ""
    assert out == expected
    if name == "table-exact":
        assert max(len(entry["f"]) for entry in json.loads(out)["entries"]) > 4300


def test_parser_is_built_once_per_process():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def _calls(argvs, capsys):
    results = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        results.append((code, out, err))
    return results


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    argvs = [
        ("moments", "--p", "1/2", "--k", "2", "--r-max", "8", "--format", "json"),
        ("moments", "--p", "1/2", "--k", "2", "--format", "json"),
        ("pmf", "--p", "1/2", "--k", "2", "--n", "5"),
        ("pmf", "--p", "1/2", "--k", "2"),
        ("pmf", "--p", "1/2", "--k", "2", "--n", "5"),
        ("table", "--p", "1/3", "--k", "2"),
        ("verify", "--p-grid", "1/2", "--k-max", "1", "--n-max", "10",
         "--r-max", "2", "--format", "text"),
        ("pmf", "--p", "1.5", "--k", "2", "--n", "5"),
        ("moments", "--p", "1/2", "--k", "2", "--format", "json"),
    ]
    reused = _calls(argvs, capsys)
    # The default --r-max comes back after a call that set it.
    assert json.loads(reused[0][1])["r_max"] == 8
    assert json.loads(reused[1][1])["r_max"] == 4
    # A usage error goes to the current stderr, exits 2 and leaves the
    # parser as it was.
    assert reused[3][:2] == (2, "")
    assert reused[3][2].startswith("usage: geomk pmf ")
    assert reused[3][2].endswith(
        "error: the following arguments are required: --n\n")
    assert reused[4] == reused[2]
    assert reused[5][0] == 2 and "--n-max" in reused[5][2]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert _calls(argvs, capsys) == reused
