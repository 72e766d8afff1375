"""Self-tests of the whole-flow benchmark.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
The smoke tests run every workload at a reduced stimulus size through the
same code paths as the benchmark (set-up, untraced and traced flows,
golden checks, metric assembly).
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import golden  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repro.bench import get_benchmark  # noqa: E402
from repro.circuit import CircuitBuilder  # noqa: E402
from workloads import EXTRA_WORKLOADS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, name, start, end, parent=-1, run_id=0):
    return spans.Span(sid, name, start, end, parent, run_id)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    tree = [
        _span(0, "flow", 0, 100),
        _span(1, "explore", 10, 90, parent=0),
        _span(2, "scan", 20, 40, parent=1),
        _span(3, "scan", 50, 60, parent=1),
        _span(4, "measure", 92, 99, parent=0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 100 - 80 - 7, 1: 80 - 30, 2: 20, 3: 10, 4: 7}
    assert spans.check_self_times(tree) == []
    totals = spans.layer_totals(tree)
    assert totals["scan"] == (2, 30, 30)
    assert totals["explore"] == (1, 80, 50)


def test_overlapping_children_break_the_sum():
    tree = [
        _span(0, "flow", 0, 100),
        _span(1, "a", 0, 60, parent=0),
        _span(2, "b", 40, 100, parent=0),
    ]
    assert spans.self_times(tree)[0] == 0
    bad = spans.check_self_times(tree)
    assert len(bad) == 1 and bad[0].startswith("flow#0")


def test_child_escaping_its_parent_is_flagged():
    tree = [_span(0, "flow", 0, 100), _span(1, "late", 90, 120, parent=0)]
    assert spans.check_self_times(tree)


def test_tracer_nests_and_tags_runs():
    tracer = spans.Tracer()
    tracer.run = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent == -1
    assert {s.run for s in tracer.spans} == {3}
    assert tracer.run_spans(3) == tracer.spans and tracer.run_spans(0) == []


def test_instrument_wraps_restores_and_reports_absent(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def scan(self, x):
            return helper(x) + 1

    def helper(x):
        return 2 * x

    mod.Engine, mod.helper = Engine, helper
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    bounds = (
        (mod.__name__, "helper", "layer.helper"),
        (mod.__name__, "Engine.scan", "layer.scan"),
        (mod.__name__, "Engine.gone", "layer.gone"),
        ("perfbench_no_such_module", "f", "layer.missing"),
    )
    original_scan = Engine.__dict__["scan"]
    tracer = spans.Tracer()
    with spans.instrument(tracer, bounds) as absent:
        assert Engine.__dict__["scan"] is not original_scan
        assert Engine().scan(1) == 3
        mod.helper(5)
    assert absent == ["layer.gone", "layer.missing"]
    assert [s.name for s in tracer.spans] == ["layer.scan", "layer.helper"]
    assert mod.helper is helper and Engine.__dict__["scan"] is original_scan


def test_chrome_trace_is_loadable(tmp_path):
    tree = [_span(0, "flow", 1000, 5000), _span(1, "x", 2000, 3000, parent=0)]
    path = tmp_path / "t.json"
    spans.write_chrome_trace(tree, str(path), {"seed": 7})
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["flow", "x"]
    assert events[0]["ts"] == 0 and events[0]["dur"] == 4.0
    assert events[1]["args"]["parent"] == 0 and doc["metadata"] == {"seed": 7}


# ---------------------------------------------------------------------------
# failure-counting rules
# ---------------------------------------------------------------------------
def _ok(**kw):
    return measure.FlowOutcome(seconds=1.0, digest="d0", **kw)


def test_clean_flow_passes():
    assert measure.failure_reasons(_ok(), "d0", accurate_ok=True) == []


def test_raising_flow_fails():
    out = measure.FlowOutcome(seconds=1.0, error="Traceback...\nValueError: boom\n")
    reasons = measure.failure_reasons(out, "d0", accurate_ok=True)
    assert reasons == ["run_blasys raised: ValueError: boom"]


def test_missing_design_fails():
    reasons = measure.failure_reasons(_ok(missing=[0.01]), "d0", True)
    assert reasons == ["no design at threshold 0.01"]


def test_golden_mismatch_fails():
    reasons = measure.failure_reasons(_ok(), "d0", accurate_ok=False)
    assert reasons == ["accurate circuit disagrees with the golden model"]


def test_digest_drift_fails_traced_or_not():
    assert measure.failure_reasons(_ok(), "other", True) == [
        "untraced digest differs from the first flow's"
    ]
    traced = _ok(traced=True)
    assert measure.failure_reasons(traced, "other", True) == [
        "traced digest differs from the first flow's"
    ]


def test_span_errors_fail():
    reasons = measure.failure_reasons(_ok(span_errors=["flow#0: x"]), "d0", True)
    assert reasons == ["span arithmetic: flow#0: x"]


def test_flow_window_rules():
    one = [measure.FlowOutcome(seconds=4.0)]
    assert measure.more_flows([], 100.0, 1.0)
    assert measure.more_flows(one, 100.0, 1.0)  # below MIN_FLOWS
    two = one * 2
    assert measure.more_flows(two, 8.0, 12.0)
    assert not measure.more_flows(two, 8.5, 12.0)
    assert measure.more_setups([5.0, 5.0])
    assert not measure.more_setups([5.0, 5.0, 5.0])
    assert measure.more_setups([0.3, 0.3, 0.3])
    assert not measure.more_setups([0.1] * measure.MAX_SETUPS)


# ---------------------------------------------------------------------------
# golden reference
# ---------------------------------------------------------------------------
def test_exhaustive_reference_enumerates_every_pattern():
    method, n, packed = golden.reference_patterns(3, seed=0)
    assert (method, n) == ("exhaustive", 64)
    bits = golden._row_bits(packed[1], n)
    assert list(bits[:8]) == [0, 0, 1, 1, 0, 0, 1, 1]


def test_sampled_reference_is_seeded_and_wide():
    a = golden.reference_patterns(64, seed=1)
    b = golden.reference_patterns(64, seed=1)
    assert a[0] == "sampled" and a[1] == golden.SAMPLED_PATTERNS
    assert (a[2] == b[2]).all()
    assert not (golden.reference_patterns(64, seed=2)[2] == a[2]).all()


def test_golden_checks_accurate_and_broken_circuits():
    bench = get_benchmark("mult8")
    circuit = bench.factory()
    ref = golden.build_reference(bench, circuit, seed=7)
    assert ref.method == "exhaustive" and ref.n == 1 << 16
    assert golden.accurate_matches(circuit, ref)
    assert golden.true_mre(circuit, ref) == 0.0

    # Same word names, wrong function: a + b instead of a * b.
    b = CircuitBuilder("broken")
    b.output_word("p", b.add_expand(b.input_word("a", 8), b.input_word("b", 8)))
    broken = b.build()
    assert not golden.accurate_matches(broken, ref)
    assert golden.true_mre(broken, ref) > 0.0


# ---------------------------------------------------------------------------
# reduced-size smoke of every workload
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture(scope="module")
def mult8_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mult8-cache"))


@pytest.mark.parametrize("name", ["mult8_cold", "mult8_warm64k"])
def test_mult8_workload_smoke(name, mult8_cache):
    # Both mult8 workloads share one cache; the cold one runs first and
    # fills it, so the warm one must read every window back.
    workload = replace(WORKLOADS[name], n_samples=512)
    runner = measure.FlowRunner(workload, seed=7, cache_dir=mult8_cache)
    runner.run()
    runner.run(traced=True)
    quality = measure.golden_quality(runner, seed=7)
    first = runner.first_digest()
    for o in runner.outcomes:
        assert measure.failure_reasons(o, first, quality["accurate_ok"]) == []
    assert runner.absent == []
    assert set(quality["true_error"]) == set(workload.thresholds)
    layers = measure.layer_metrics(runner)
    assert layers["core.explorer.evals"] > 0
    assert layers["core.profile_s"] > 0 and layers["core.engine.scan_s"] > 0
    if workload.warm:
        assert layers["core.profile.cache_hits"] == layers["partition.windows"]
        assert layers["core.profile.syntheses"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_end_to_end(trace, tmp_path, monkeypatch, capsys):
    name = "adder32_warm128k"
    monkeypatch.setitem(
        EXTRA_WORKLOADS, name, replace(EXTRA_WORKLOADS[name], n_samples=1024)
    )
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == measure.WARMUP_FLOWS + measure.MIN_FLOWS
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["kernel_backend"] and provenance["usable_cores"] >= 1
    record = json.loads((tmp_path / "out" / f"{name}-seed3-trace{trace}.json").read_text())
    assert record["golden_reference"] == f"sampled ({golden.SAMPLED_PATTERNS} patterns)"
    assert not (tmp_path / "tmp").exists()
    # The warm-up flow is checked but never timed.
    assert [f["warmup"] for f in record["flows"]] == [True, False, False]
    assert record["flow_samples"] == (1 if trace else 2)
    if trace:
        assert (tmp_path / "out" / f"{name}-seed3-trace1.trace.json").exists()
        assert result["metrics"]["core.qor.delta_calls"]["value"] > 0
