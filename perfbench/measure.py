"""Set-up, timed flows, traced flows and correctness checks of one run.

A *flow* is one whole ``run_blasys`` call on a freshly built circuit.
Untimed work (circuit build, golden checks, digests) stays outside the
timed region.  Every flow is checked by :func:`failure_reasons`; the
golden-model checks of :mod:`golden` run once per benchmark run on the
first flow's designs, since every later flow must reproduce the first
flow's digest exactly.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import gc
import hashlib
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.registry import get_benchmark
from repro.core.explorer import explore
from repro.flow import run_blasys

import golden
from spans import Tracer, check_self_times, instrument, layer_totals
from workloads import HEADLINE, Workload

#: Set-ups per run whose median is ``setup_s`` — at least this many
#: (one on traced runs, which do not report it) ...
SETUP_REPEATS = 3
#: ... and more, up to :data:`MAX_SETUPS`, while they have taken less
#: than this many seconds in all (cheap set-ups are noisy).
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 9
#: Untimed flows before the measuring window: the first flow of a
#: process may pay one-off costs (lazy imports, allocator growth) that
#: later flows do not.  They are checked like every other flow.
WARMUP_FLOWS = 1
#: Timed flows per run at least, however short ``--seconds`` is.
MIN_FLOWS = 2
#: Where the source tree lives relative to the benchmark directory.
SRC = Path(__file__).resolve().parent.parent / "src"

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.flow, repro.bench.registry; "
    "print(time.perf_counter() - t)"
)


@dataclass
class FlowOutcome:
    """What one ``run_blasys`` call produced, minus the heavy result."""

    seconds: float
    traced: bool = False
    warmup: bool = False
    digest: Optional[str] = None
    error: Optional[str] = None
    missing: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    span_errors: List[str] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)


def result_digest(result) -> str:
    """SHA-256 over the trajectory and the realized designs' numbers.

    ``repr`` of a float round-trips exactly, so equal digests mean
    byte-identical trajectories, selections and re-measured errors.
    """
    h = hashlib.sha256()
    for point in result.exploration.trajectory:
        h.update(repr(point).encode())
    for thr in sorted(result.designs):
        d = result.designs[thr]
        h.update(
            repr(
                (thr, d.point.iteration, sorted(d.measured.items()),
                 sorted(d.savings.items()))
            ).encode()
        )
    return h.hexdigest()


def failure_reasons(
    outcome: FlowOutcome,
    first_digest: Optional[str],
    accurate_ok: bool,
) -> List[str]:
    """Why a flow counts as a failed operation (empty when it passed).

    A flow fails when ``run_blasys`` raised, a requested threshold got no
    design, the accurate circuit disagrees with the golden model, its
    digest differs from the run's first flow (traced flows included:
    tracing must not change a byte), or its span tree does not add up.
    """
    if outcome.error is not None:
        return [f"run_blasys raised: {outcome.error.strip().splitlines()[-1]}"]
    reasons = [f"no design at threshold {t:g}" for t in outcome.missing]
    if not accurate_ok:
        reasons.append("accurate circuit disagrees with the golden model")
    if first_digest is not None and outcome.digest != first_digest:
        kind = "traced" if outcome.traced else "untraced"
        reasons.append(f"{kind} digest differs from the first flow's")
    reasons.extend(f"span arithmetic: {e}" for e in outcome.span_errors)
    return reasons


def _stats_counters(result) -> Dict[str, float]:
    """Work counters of one flow, read back from its ``RuntimeStats``."""
    ex = result.exploration
    stats = ex.runtime_stats
    iterations = len(ex.trajectory) - 1
    sweeps = stats.n_preview_sweeps
    memo = stats.n_preview_cache_hits
    return {
        "partition.windows": len(ex.windows),
        "core.profile.tasks_computed": stats.tasks_computed,
        "core.profile.cache_hits": stats.cache_hits,
        "core.profile.factorizations": stats.n_factorizations,
        "core.profile.syntheses": stats.n_syntheses,
        "core.profile.syntheses_per_commit": (
            stats.n_syntheses / iterations if iterations else 0.0
        ),
        "core.explorer.evals": ex.n_evaluations,
        "core.explorer.iterations": iterations,
        "core.engine.preview_sweeps": sweeps,
        "core.engine.memo_hit_ratio": memo / (sweeps + memo) if sweeps + memo else 0.0,
        "core.engine.sweep_units": stats.n_sweep_units,
        "core.engine.peak_matrix_mb": stats.peak_sample_matrix_bytes / 1e6,
        "kernel_backend": stats.kernel_backend,
    }


class FlowRunner:
    """Runs flows of one workload and keeps the first flow's designs."""

    def __init__(self, workload: Workload, seed: int, cache_dir: Optional[str]):
        self.workload = workload
        self.bench = get_benchmark(workload.bench)
        self.config = workload.config(seed, cache_dir)
        self.outcomes: List[FlowOutcome] = []
        #: ``RealizedDesign`` per threshold of the first successful flow.
        #: The flow result itself is dropped, so one flow's memory never
        #: counts towards the next one's peak.
        self.designs: Optional[Dict[float, object]] = None
        self.tracer = Tracer()
        self.absent: List[str] = []
        #: False when the peak-RSS counter could not be reset, so each
        #: flow's peak is the process's peak so far.
        self.peak_resets = True

    def run(self, traced: bool = False, warmup: bool = False) -> FlowOutcome:
        circuit = self.bench.factory()
        thresholds = self.workload.thresholds
        self.tracer.run = len(self.outcomes)
        patch = instrument(self.tracer) if traced else nullcontext([])
        span = self.tracer.span("flow") if traced else nullcontext()
        result = error = None
        gc.collect()
        release_freed_memory()
        self.peak_resets &= reset_peak_rss()
        with patch as absent:
            start = time.perf_counter()
            try:
                with span:
                    result = run_blasys(circuit, thresholds, self.config)
            except Exception:  # a failed operation, counted by the caller
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        outcome = FlowOutcome(seconds, traced=traced, warmup=warmup, error=error)
        outcome.peak_rss_mb = peak_rss_mb()
        if traced:
            self.absent = absent
            outcome.span_errors = check_self_times(
                self.tracer.run_spans(self.tracer.run)
            )
        if result is not None:
            outcome.digest = result_digest(result)
            outcome.missing = [t for t in thresholds if t not in result.designs]
            outcome.counters = _stats_counters(result)
            if self.designs is None:
                self.designs = dict(result.designs)
        self.outcomes.append(outcome)
        return outcome

    def first_digest(self) -> Optional[str]:
        return next((o.digest for o in self.outcomes if o.digest), None)


def more_setups(setups: Sequence[float]) -> bool:
    """Whether an untraced run should set up once more."""
    if len(setups) < SETUP_REPEATS:
        return True
    return len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S


def more_flows(outcomes: Sequence[FlowOutcome], elapsed: float, seconds: float) -> bool:
    """Whether another flow fits the measuring window.

    ``outcomes`` are the flows made in the window so far (warm-up flows
    excluded) and ``elapsed`` the window's time so far.

    A flow starts only if the last one's duration still fits before
    ``seconds``, so a run measures at most ``seconds`` unless it needs
    its :data:`MIN_FLOWS`.
    """
    if len(outcomes) < MIN_FLOWS:
        return True
    return elapsed + outcomes[-1].seconds <= seconds


def import_seconds() -> float:
    """Import time of the flow in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_once(workload: Workload, seed: int, cache_dir: Optional[str]) -> float:
    """One set-up: imports, circuit build, and on warm workloads the
    cache-filling exploration (profiles every window into ``cache_dir``)."""
    seconds = import_seconds()
    start = time.perf_counter()
    circuit = get_benchmark(workload.bench).factory()
    if workload.warm:
        explore(circuit, replace(workload.config(seed, cache_dir), max_iterations=0))
    return seconds + time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def _glibc():
    """The C library when it is glibc (it has ``malloc_trim``), else None."""
    name = ctypes.util.find_library("c")
    try:
        libc = ctypes.CDLL(name) if name else None
    except OSError:
        return None
    return libc if hasattr(libc, "malloc_trim") else None


def release_freed_memory() -> None:
    """Hand the heap's free pages back to the system (glibc only).

    glibc raises its mmap threshold each time a large block is freed, so
    later large arrays come from the heap, whose freed pages stay
    resident: on ``mult8_warm64k`` the per-flow peak stepped from ~208 MB
    to ~230 MB at a random flow and stayed there.  Trimming before each
    flow keeps one flow's peak free of what earlier flows freed.
    """
    libc = _glibc()
    if libc:
        libc.malloc_trim(0)


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter (Linux); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set size of this process since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def golden_quality(runner: FlowRunner, seed: int) -> Dict[str, object]:
    """Golden-model checks of the accurate circuit and the first flow's
    designs: the true error of each design relative to its threshold."""
    circuit = runner.bench.factory()
    ref = golden.build_reference(runner.bench, circuit, seed)
    out: Dict[str, object] = {
        "reference": f"{ref.method} ({ref.n} patterns)",
        "accurate_ok": golden.accurate_matches(circuit, ref),
        "true_error": {},
    }
    for thr, design in sorted((runner.designs or {}).items()):
        out["true_error"][thr] = golden.true_mre(design.circuit, ref)
    return out


def quality_metrics(runner: FlowRunner, quality: Dict[str, object]) -> Dict[str, float]:
    """End-to-end quality numbers of the run (all deterministic)."""
    ratios = [err / thr for thr, err in quality["true_error"].items()]
    headline = (runner.designs or {}).get(HEADLINE)
    return {
        "area_savings_pct": headline.savings["area"] if headline else 0.0,
        "power_savings_pct": headline.savings["power"] if headline else 0.0,
        "thr_error_ratio": max(ratios) if ratios else 0.0,
        "quality.thr_violations": sum(r > 1.0 for r in ratios),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(runner: FlowRunner) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced flows' spans, and the
    work counters of the first traced flow."""
    traced = [o for o in runner.outcomes if o.traced and o.error is None]
    untraced = [
        o for o in runner.outcomes
        if not o.traced and not o.warmup and o.error is None
    ]
    per_run = [
        layer_totals(runner.tracer.run_spans(run))
        for run, o in enumerate(runner.outcomes)
        if o.traced and o.error is None
    ]

    def total_s(name: str) -> float:
        return median([t.get(name, (0, 0, 0))[1] / 1e9 for t in per_run])

    def self_s(name: str) -> float:
        return median([t.get(name, (0, 0, 0))[2] / 1e9 for t in per_run])

    def calls(name: str) -> float:
        return median([t.get(name, (0, 0, 0))[0] for t in per_run])

    counters = dict(traced[0].counters) if traced else {}
    counters.pop("kernel_backend", None)
    search_s = (
        total_s("core.explorer") - total_s("core.profile")
        - total_s("partition.decompose")
    )
    evals = counters.get("core.explorer.evals", 0)
    out = {
        "partition.decompose_s": total_s("partition.decompose"),
        "partition.realize_s": total_s("partition.realize"),
        "core.profile_s": total_s("core.profile"),
        "core.explorer_s": total_s("core.explorer"),
        "core.explorer.self_s": self_s("core.explorer"),
        "core.explorer.evals_per_s": evals / search_s if search_s > 0 else 0.0,
        "core.engine.scan_s": total_s("core.engine.scan"),
        "core.engine.commit_s": total_s("core.engine.commit"),
        "core.qor.delta_s": total_s("core.qor.delta"),
        "core.qor.delta_calls": calls("core.qor.delta"),
        "core.qor.rebase_s": total_s("core.qor.rebase"),
        "synth.evaluate_design_s": total_s("synth.evaluate_design"),
        "flow.measure_error_s": total_s("flow.measure_error"),
        "flow.traced_s": median([o.seconds for o in traced]),
        "trace.overhead_s": (
            median([o.seconds for o in traced])
            - median([o.seconds for o in untraced])
        ),
    }
    out.update(counters)
    return out


def layer_table(runner: FlowRunner) -> List[Dict[str, object]]:
    """Every span name of the first traced flow with its share of it."""
    run = next(
        (i for i, o in enumerate(runner.outcomes) if o.traced and o.error is None),
        None,
    )
    if run is None:
        return []
    totals = layer_totals(runner.tracer.run_spans(run))
    flow_ns = totals.get("flow", (0, 1, 0))[1]
    return [
        {
            "layer": name,
            "calls": calls,
            "total_s": total / 1e9,
            "self_s": own / 1e9,
            "share_pct": 100.0 * total / flow_ns,
        }
        for name, (calls, total, own) in sorted(
            totals.items(), key=lambda kv: -kv[1][1]
        )
    ]
