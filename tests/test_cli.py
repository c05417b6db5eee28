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

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomk import cli
from geomk import moments as moments_mod
from geomk import roots as roots_mod
from geomk import simulate as sim_mod
from geomk import verify as verify_mod
from geomk.cli import build_parser, main
from geomk.numerics import Mode, SolverError
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

    def test_rootsum_near_degenerate_matches_recurrence(self, capsys):
        # 1e-11 from 8/9, outside the 1e-12 degeneracy flag: Feller's form
        # of the weights, (p^k/(k+1)) (z - p) / (z - k/(k+1)), is 0/0-like
        # here and puts the value 5.6e-6 relative off
        values = {}
        for engine in ("rootsum", "recurrence"):
            code, out, _ = run_cli("pmf", "--p", "0.8888888888988889",
                                   "--k", "8", "--n", "20", "--mode", "float",
                                   "--engine", engine, capsys=capsys)
            assert code == 0
            values[engine] = float(out.splitlines()[0])
        assert (abs(values["rootsum"] - values["recurrence"])
                <= 1e-13 * values["recurrence"])

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
        assert not [key for key in payload if key.startswith("precision_")]


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

    # The vanishing-free sum cancels heavily at p = 0.75, k = 2 from n = 25
    # on (sum |terms| > 1e6 |f(n)| at 376 of the 401 entries).  Each entry
    # is rounded once, so nothing goes to stderr.
    DEGRADED = ("table", "--p", "0.75", "--k", "2", "--n-max", "400",
                "--mode", "float", "--engine", "closedform")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_degraded_entries_are_one_stderr_note(self, fmt, capsys):
        code, out, err = run_cli(*self.DEGRADED, "--format", fmt, capsys=capsys)
        assert (code, err) == (0, "")
        table = build_table(make_params(0.75, 2), Engine.CLOSED_FORM, 400)
        if fmt == "json":
            assert out == json.dumps(table.to_dict(), indent=2) + "\n"
        else:
            assert out == "".join(f"{n},{f},{c}\n" for n, f, c in
                                  [("n", "f", "cumulative"), *table.text_rows()])

    def test_degraded_entries_end_the_text(self, capsys):
        code, out, err = run_cli(*self.DEGRADED, capsys=capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert len(lines) == 1 + 401 + 1
        assert lines[-1].startswith("  tail bound beyond n_max: ")
        assert "note:" not in out

    def test_clean_table_has_no_note(self, capsys):
        code, out, err = run_cli("table", "--p", "0.5", "--k", "2", "--n-max",
                                 "20", "--mode", "float", "--engine", "muselli",
                                 capsys=capsys)
        assert (code, err) == (0, "")
        assert "note:" not in out


def test_heavy_cancellation_warns_nowhere(capsys):
    # sum |terms| > 1e6 |f(n)| at each point, past 1.8e308 at the last
    pmf_points = [("0.5", "2", "60"), ("0.75", "2", "400"),
                  ("0.9", "7", "1500"), ("0.5", "2", "2000"),
                  ("0.5", "1", "3780")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, k, n in pmf_points:
            for engine in ("muselli", "closedform"):
                code, out, err = run_cli("pmf", "--p", p, "--k", k, "--n", n,
                                         "--mode", "float", "--engine", engine,
                                         capsys=capsys)
                assert (code, err) == (0, ""), (p, k, n, engine)
        assert out.startswith("0.0\n")            # f(3780) is below 5e-324
        for fmt in ("csv", "json", "text"):
            code, _, err = run_cli(*TestTableCommand.DEGRADED, "--format", fmt,
                                   capsys=capsys)
            assert (code, err) == (0, "")
        for engine in ("muselli", "closedform"):
            code, out, err = run_cli("moments", "--p", "0.75", "--k", "2",
                                     "--r-max", "12", "--mode", "float",
                                     "--engine", engine, capsys=capsys)
            assert (code, err) == (0, "")
            assert "[precision degraded]" not in out


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
        assert not [key for key in payload if key.startswith("precision_")]

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


    @pytest.mark.parametrize("k,r_max,what", [(1, 200, "factorial moment r=171"),
                                              (2, 140, "factorial moment r=133")])
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_float_moments_past_the_double_range_exit_2(self, k, r_max, what,
                                                        fmt, capsys):
        # neither a traceback nor Infinity/NaN tokens in the JSON
        code, out, err = run_cli("moments", "--p", "0.5", "--k", str(k),
                                 "--r-max", str(r_max), "--mode", "float",
                                 "--format", fmt, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: {what} of (p=0.5, k={k}, float) exceeds the "
                       f"float range; use exact mode\n")


class TestRootsCommand:
    def test_json_schema_and_golden(self, capsys):
        code, out, _ = run_cli("roots", "--p", "0.5", "--k", "2", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("root_certification"))
        assert payload["passed"] is True
        assert payload["roots"][0]["re"] == pytest.approx(0.8090169943749475)
        assert payload["min_separation"] == pytest.approx(math.sqrt(5) / 2)

    @pytest.mark.parametrize("p", ["2/3", "0.5", "0.01", "0.99", "5e-10"])
    def test_one_root_report_is_strict_json(self, p, capsys):
        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        code, out, _ = run_cli("roots", "--p", p, "--k", "1", capsys=capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=no_constant)
        jsonschema.validate(payload, load_schema("root_certification"))
        assert payload["min_separation"] is None

    def test_exact_mode_rejected(self, capsys):
        code, _, err = run_cli("roots", "--p", "1/2", "--k", "2",
                               "--mode", "exact", capsys=capsys)
        assert code == 2
        assert "float" in err

    def test_certified_once(self, monkeypatch, capsys):
        # the report is the certificate find_roots attached to its set
        certify, calls = roots_mod.certify_roots, []

        def counting(root_set, params):
            calls.append(params.k)
            return certify(root_set, params)

        monkeypatch.setattr(roots_mod, "certify_roots", counting)
        code, out, _ = run_cli("roots", "--p", "0.37", "--k", "7", capsys=capsys)
        assert (code, calls) == (0, [7])
        assert json.loads(out)["passed"] is True


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

    def test_root_failures_are_skipped_cells(self, capsys):
        # float roots are lost from k = 53 at p = 1/2: the two root checks
        # skip those cells and every exact check still runs to k = 60
        argv = ("verify", "--p-grid", "1/2", "--k-max", "60", "--n-max", "70",
                "--r-max", "1")
        code, out, err = run_cli(*argv, "--format", "text", capsys=capsys)
        assert (code, err) == (0, "")
        assert "PASS rootsum_pmf (3692 cases, 8 skipped)\n" in out
        assert "PASS root_certification (52 cases, 8 skipped)\n" in out
        assert "PASS cross_engine_pmf (8520 cases)\n" in out
        assert out.endswith("PASS overall\n")
        code, out, _ = run_cli(*argv, "--format", "json", capsys=capsys)
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("verify_report"))
        assert {c["name"]: c["skipped"] for c in payload["checks"]} == {
            "cross_engine_pmf": 0, "rootsum_pmf": 8, "moment_routes": 0,
            "mean_variance": 0, "root_certification": 8, "pgf_identity": 0}


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

    def test_capped_run_is_censored(self, capsys):
        args = ("sample", "--p", "0.5", "--k", "5", "--trials", "20000",
                "--max-steps", "40", "--seed", "1")
        code, out, err = run_cli(*args, "--format", "text", capsys=capsys)
        assert code == 0 and err == ""
        assert "  truncated       = 10517\n" in out
        assert "  chi-square p    = 0.328396\n" in out
        assert out.endswith("  mean z, var z   = n/a (10517 truncated)\n")
        code, out, _ = run_cli(*args, capsys=capsys)
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("sample_report"))
        gof = payload["gof"]
        assert gof["mean_z"] is None and gof["variance_z"] is None
        assert gof["bins"][-1] == {"bin": ">40", "observed": 10517,
                                   "expected": pytest.approx(10641.6268)}

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


# "c" is unused; it only keeps the test ids ("[c]", "[c-<case>]" below).
@pytest.mark.parametrize("writer", ["c"])
@settings(derandomize=True, max_examples=200, deadline=None)
@given(payload=JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(writer, payload):
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


class FloatSub(float):
    """A float whose repr is not float.__repr__, as numpy 2's float64 is."""

    def __repr__(self):
        return f"FloatSub({float.__repr__(self)})"


class StrSub(str):
    """A str of another type, which json writes as a str."""


# name -> (keys, columns, whether the columns have a float table's shape:
# ints and finite floats of exact types, at least one row)
COLUMN_ROWS = {
    "ints and floats": (("n", "f"), (range(3), (0.5, 1e-300, 0.25)), True),
    "negative zero": (("n", "f"), (range(2), (-0.0, 0.25)), True),
    "int above 2^1024": (("n", "f"), ((2 ** 1100, -1), (0.5, 2.5)), True),
    "one row": (("re", "im"), ((0.5,), (-0.0,)), True),
    "keys to escape": (('%r "\u00e9\n', "a%%b"), ((1.5,), (2,)), True),
    "nan": (("n", "f"), (range(2), (0.5, math.nan)), False),
    "inf": (("n", "f"), (range(2), (-math.inf, 0.5)), False),
    "bool": (("n", "f"), ((0, True), (0.5, 0.5)), False),
    "int in a float column": (("n", "f"), (range(2), (0.5, 2 ** 1100)),
                              False),
    "str column": (("bin", "f"), (('a"b\\c', "100%s %r", "x\ny",
                                     "\u00e9\u2603\U0001f600", ""),
                                    (0.5, 0.25, 1.0, -0.0, 2.0)), False),
    "str value": (("n", "f"), (range(2), ("1/2", 0.5)), False),
    "str and int": (("bin", "f"), (("1", 2), (0.5, 0.5)), False),
    "str subclass": (("bin", "f"), (("1", StrSub("2")), (0.5, 0.5)), False),
    "None value": (("n", "f"), (range(2), (None, 0.5)), False),
    "float subclass": (("n", "f"), (range(2), (0.5, FloatSub(0.5))), False),
    "nested row": (("n", "f"), (range(2), ([0.5], [0.25])), False),
    "no rows": (("n", "f"), ((), ()), False),
    "no keys": ((), (), False),
}


# A report key that json escapes, with a "%" the row template must not read.
ESCAPED_KEY = 'entries "\u00e9%r\n'


@pytest.mark.parametrize("name", COLUMN_ROWS)
@pytest.mark.parametrize("writer", ["c"])   # unused, as above
def test_column_rows_write_as_their_dict_rows(name, writer):
    # Any table-shaped list of dicts is written by the stdlib encoder, and
    # columns of a float table's shape also through the row template, as
    # the report's last value: both with the bytes of json.dumps.
    keys, columns, table_shaped = COLUMN_ROWS[name]
    dicts = [dict(zip(keys, row)) for row in zip(*columns)]
    reports = [{"entries": dicts}, {"tail": None, ESCAPED_KEY: dicts}]
    for report in reports:
        assert json_written(report) == json.dumps(report, indent=2) + "\n"
    if table_shaped:
        rows = cli._Rows(keys, columns)
        for report in reports:
            key = next(reversed(report))
            assert (json_written({**report, key: rows})
                    == json.dumps(report, indent=2) + "\n")


def test_templated_rows_are_streamed_in_blocks():
    count = 5 * cli._BLOCK + 7
    values = [1 / (n + 3) for n in range(count)]
    rows = cli._Rows(("n", "f"), (range(count), values))
    expected = json.dumps({"entries": [{"n": n, "f": f} for n, f
                                       in enumerate(values)]}, indent=2) + "\n"
    sizes = []

    class Writes(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    assert json_written({"entries": rows}, Writes()) == expected
    assert max(sizes) < len(expected) / 4


def cli_output(argv):
    """(exit status, stdout, stderr) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


# p as a user types it: dyadic (i/64 as a decimal) or three decimals
FLOAT_TABLE_P = st.one_of(
    st.integers(1, 63).map(lambda i: repr(i / 64)),
    st.integers(1, 999).map(lambda i: f"{i / 1000:.3f}"))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(p=FLOAT_TABLE_P, k=st.integers(1, 12), n_max=st.integers(0, 300),
       engine=st.sampled_from(Engine), mode=st.sampled_from(Mode))
def test_float_table_output_is_the_library_table(p, k, n_max, engine, mode):
    n_max = max(n_max, k)
    if mode is Mode.EXACT:
        assume(engine is not Engine.ROOT_SUM)
        params = make_params(Fraction(p), k)
    else:
        params = make_params(float(p), k)
    if engine is Engine.ROOT_SUM:
        try:
            roots_mod.find_roots(params)
        except SolverError:
            assume(False)
    table = build_table(params, engine, n_max)
    argv = ("table", "--p", p, "--k", str(k), "--n-max", str(n_max),
            "--mode", mode.value, "--engine", engine.value, "--format")

    assert cli_output(argv + ("json",)) == (
        0, json.dumps(table.to_dict(), indent=2) + "\n", "")
    # str is repr for a float and the reduced a/b for a Fraction; no value
    # here is past the int digit limit
    assert cli_output(argv + ("csv",)) == (
        0, csv_module_written([("n", "f", "cumulative"), *table.rows()]), "")
    lines = [f"pmf table for p={params.p}, k={k} "
             f"(engine={engine.value}, mode={mode.value})"]
    lines += [f"  n={n:<5d} f={f!s:<24} cumulative={c!s}"
              for n, f, c in table.rows()]
    if mode is Mode.FLOAT:
        lines.append(f"  tail bound beyond n_max: {table.tail_bound!r}")
    assert cli_output(argv + ("text",)) == (
        0, "".join(f"{line}\n" for line in lines), "")


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


@settings(derandomize=True, max_examples=15, deadline=None)
@given(i=st.integers(20, 60), k=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32))
def test_roots_and_sample_json_are_the_library_dicts(i, k, seed):
    # The roots and the goodness-of-fit bins have the bytes of json.dumps
    # of cert.to_dict() and gof.to_dict().
    p = repr(i / 64)
    params = make_params(float(p), k)
    roots = _roots_payload(params)
    sample = _sample_payload(params, 300, seed)
    assert cli_output(("roots", "--p", p, "--k", str(k))) == (
        0 if roots["passed"] else 1,
        json.dumps(roots, indent=2) + "\n", "")
    assert cli_output(("sample", "--p", p, "--k", str(k), "--trials",
                       "300", "--seed", str(seed))) == (
        1 if sample["gof"]["hard_fail"] else 0,
        json.dumps(sample, indent=2) + "\n", "")


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
