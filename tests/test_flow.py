"""Integration tests for the end-to-end BLASYS flow."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.bench import butterfly, ripple_adder
from repro.core.explorer import ExplorerConfig
from repro.core.qor import QoRSpec
from repro.errors import ExplorationError
from repro.flow import FlowResult, measure_error, run_blasys


@pytest.fixture(scope="module")
def adder_flow():
    circuit = ripple_adder(8)
    config = ExplorerConfig(n_samples=2048, max_inputs=8, max_outputs=8)
    return circuit, run_blasys(
        circuit, thresholds=[0.05, 0.25], config=config, final_samples=8192
    )


class TestRunBlasys:
    def test_returns_flow_result(self, adder_flow):
        _, result = adder_flow
        assert isinstance(result, FlowResult)
        assert result.baseline.area_um2 > 0

    def test_designs_realized_per_threshold(self, adder_flow):
        _, result = adder_flow
        assert set(result.designs) <= {0.05, 0.25}
        assert 0.25 in result.designs

    def test_area_savings_positive_at_loose_threshold(self, adder_flow):
        _, result = adder_flow
        design = result.designs[0.25]
        assert design.savings["area"] > 0

    def test_savings_monotone_in_threshold(self, adder_flow):
        _, result = adder_flow
        if 0.05 in result.designs:
            assert (
                result.designs[0.25].savings["area"]
                >= result.designs[0.05].savings["area"] - 1e-9
            )

    def test_measured_error_respects_regime(self, adder_flow):
        _, result = adder_flow
        for thr, design in result.designs.items():
            # Independent re-measurement should be in the same regime as the
            # exploration threshold (sampling noise allowed).
            assert design.measured["mre"] <= 2.0 * thr + 0.02

    def test_summary_mentions_thresholds(self, adder_flow):
        _, result = adder_flow
        text = result.summary()
        assert "baseline" in text
        assert "thr" in text

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ExplorationError):
            run_blasys(ripple_adder(4), thresholds=[])

    def test_interface_preserved(self, adder_flow):
        circuit, result = adder_flow
        for design in result.designs.values():
            assert design.circuit.input_names() == circuit.input_names()
            assert design.circuit.output_names() == circuit.output_names()


class TestQoRSpecHonored:
    """Regression: run_blasys used to re-measure and report with the
    default mre spec even when config.qor drove exploration with another
    metric."""

    def test_hamming_driven_flow_reports_hamming(self):
        circuit = ripple_adder(6)
        config = ExplorerConfig(
            n_samples=1024, max_inputs=6, max_outputs=6,
            qor=QoRSpec("hamming"),
        )
        # thresholds are in the explorer's metric: mean flipped bits/sample
        result = run_blasys(
            circuit, thresholds=[1.5], config=config, final_samples=2048
        )
        assert result.qor_metric == "hamming"
        assert result.designs, "hamming-driven exploration found no design"
        for design in result.designs.values():
            assert design.measured["qor"] == design.measured["hamming"]
            # the filter must have applied to the driving metric
            assert design.point.qor <= 1.5
        assert "hamming" in result.summary()

    def test_measure_error_exposes_spec_metric_as_qor(self):
        circuit = butterfly(5)
        for metric in ("mre", "mae", "hamming"):
            measured = measure_error(
                circuit, circuit, n_samples=512, spec=QoRSpec(metric)
            )
            assert measured["qor"] == measured[metric]


class TestThresholdConsistency:
    """Regression: a config.threshold below max(thresholds) used to stop
    exploration early and silently realize nothing at larger thresholds."""

    def test_too_small_config_threshold_rejected(self):
        config = ExplorerConfig(
            n_samples=256, max_inputs=6, max_outputs=6, threshold=0.05
        )
        with pytest.raises(ExplorationError, match="below the largest"):
            run_blasys(ripple_adder(6), thresholds=[0.05, 0.25], config=config)

    def test_matching_config_threshold_accepted(self):
        config = ExplorerConfig(
            n_samples=512, max_inputs=6, max_outputs=6, threshold=0.25
        )
        result = run_blasys(
            ripple_adder(6), thresholds=[0.25], config=config,
            final_samples=1024,
        )
        assert isinstance(result, FlowResult)

    def test_error_cap_sweeps_unaffected(self):
        config = ExplorerConfig(
            n_samples=512, max_inputs=6, max_outputs=6, error_cap=0.5,
            max_iterations=3,
        )
        result = run_blasys(
            ripple_adder(6), thresholds=[0.25], config=config,
            final_samples=1024,
        )
        assert isinstance(result, FlowResult)


class TestMeasureError:
    def test_zero_for_identical(self):
        circuit = butterfly(5)
        metrics = measure_error(circuit, circuit, n_samples=4096)
        assert metrics["mre"] == 0.0
        assert metrics["hamming"] == 0.0

    def test_input_mismatch_rejected(self):
        with pytest.raises(ExplorationError):
            measure_error(ripple_adder(4), ripple_adder(5), n_samples=128)

    def test_deterministic_given_seed(self):
        circuit = ripple_adder(6)
        from repro.core.explorer import ExplorerConfig, explore

        res = explore(
            circuit,
            ExplorerConfig(n_samples=512, max_inputs=6, max_outputs=6, max_iterations=4),
        )
        approx = res.realize(res.trajectory[-1])
        a = measure_error(circuit, approx, n_samples=2048, seed=9)
        b = measure_error(circuit, approx, n_samples=2048, seed=9)
        assert a == b


def test_default_explore_emits_no_runtime_warning():
    """A fresh process running ``explore()`` with defaults stays silent
    even when runtime warnings are promoted to errors."""
    script = (
        "from repro.bench import get_benchmark\n"
        "from repro.core.explorer import ExplorerConfig, explore\n"
        "explore(get_benchmark('but').factory(), ExplorerConfig("
        "n_samples=256, max_inputs=8, max_outputs=8, max_iterations=1))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
