import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import tracing
from conftest import BENCH, ROOT, SRC


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (0.0, 10.0, -1),   # root
        (1.0, 4.0, 0),     # child of root
        (3.0, 6.0, 0),     # overlaps the first child: union counts once
        (2.0, 3.0, 1),     # grandchild: covers its parent, not the root
        (9.0, 12.0, 0),    # runs past the root's end: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([(5.0, 7.5, -1)]) == [2.5]


def _params(mode="exact", k=2):
    return SimpleNamespace(mode=SimpleNamespace(value=mode), k=k)


def test_tracer_records_nesting_counts_and_failures():
    tracer = tracing.Tracer()

    def engine(params, n):
        return n

    traced_engine = tracer.wrap(engine, lambda a: f"pmf.muselli.{a[0].mode.value}",
                                tracing._terms)

    def outer():
        return traced_engine(_params(), 10) + traced_engine(_params("float"), 5)

    def broken(params):
        raise ValueError("boom")

    traced_outer = tracer.wrap(outer, lambda a: "cli.main", lambda a, r: {})
    traced_broken = tracer.wrap(broken, lambda a: "roots.find_roots",
                                lambda a, r: {})
    assert traced_outer() == 15
    with pytest.raises(ValueError):
        traced_broken(_params())
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["cli.main", "pmf.muselli.exact", "pmf.muselli.float",
                     "roots.find_roots"]
    assert parents == [-1, 0, 0, -1]
    totals = tracing.span_totals(tracer)
    metrics = tracing.layer_metrics([totals, totals], output_bytes=7,
                                    overhead_ratio=1.1)
    # two processes with identical totals: counts add up
    assert metrics["pmf.muselli.exact.terms"]["value"] == 2 * (11 // 3)
    assert metrics["pmf.muselli.float.terms"]["value"] == 2 * (6 // 3)
    assert metrics["roots.find_roots.failed"]["value"] == 2
    assert metrics["cli.main.calls"]["value"] == 2
    assert metrics["cli.output_bytes"]["value"] == 7
    assert set(metrics) == set(tracing.PER_LAYER)
    tracer.reset()
    assert tracer.spans == [] and "cli.main" in tracer.first_call_s


def test_per_layer_table_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    assert {m["name"]: (m["unit"], m["better"]) for m in declared} == \
        tracing.PER_LAYER


def test_install_rebinds_every_import_site():
    # Run in a fresh interpreter: install() rewires geomk module-wide.
    script = f"""
import sys, json
sys.path[:0] = [{SRC!r}, {BENCH!r}]
import geomk, geomk.cli, tracing
tracer = tracing.Tracer()
replaced = tracing.install(tracer)
pmf_mod = sys.modules["geomk.pmf"]
import geomk.verify, geomk.simulate, geomk.moments
assert geomk.verify.pmf_muselli is pmf_mod.pmf_muselli
assert geomk.simulate.pmf_recurrence is pmf_mod.pmf_recurrence
assert geomk.cli.build_table is pmf_mod.build_table
assert geomk.factorial_moment_series is geomk.moments.factorial_moment_series
assert hasattr(geomk.cli.main, "__wrapped__")
geomk.cli.main(["table", "--p", "1/3", "--k", "2", "--n-max", "12",
                "--out", "{os.devnull}"])
print(json.dumps([replaced, [s[0] for s in tracer.spans]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    replaced, names = json.loads(proc.stdout)
    assert replaced > len(tracing._targets())
    assert names == ["cli.main", "pmf.build_table", "pmf.series.exact"]
