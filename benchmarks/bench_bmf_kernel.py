"""BMF kernel benchmark: packed bitsets + degree-ladder profiling.

Measures the two levers of the kernel rework (see DESIGN.md "BMF kernel")
and writes the results to ``BENCH_bmf.json`` at the repository root so the
perf trajectory accumulates across PRs:

* **old path vs ladder** — cold profiling of a ``max_outputs >= 8`` bench
  circuit through the legacy per-degree worker
  (:func:`profile_window_task_reference`) and the ladder worker
  (:func:`profile_window_task`): wall time, factorization-call counts
  (the reduction ratio equals the greedy-descent reduction — both paths
  sweep the same taus per call), and a byte-identity check between the
  two profiles (the ladder-equivalence contract).
* **kernel micro-benchmarks** — the weighted-error primitive dense vs
  packed, and the fused popcount-and-reduce (``bit_count(words).sum()``)
  vs materialized per-word LUT counts — with numpy / CPU provenance
  recorded so the committed numbers are attributable.

Runs standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_bmf_kernel.py          # full
    PYTHONPATH=src python benchmarks/bench_bmf_kernel.py --smoke  # CI

and doubles as a pytest smoke test (``test_bmf_kernel_smoke``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_bmf.json"

#: The headline configuration: the paper's window budget (k = m = 10)
#: gives windows of up to 10 outputs on the mult8 benchmark.
BENCH_NAME = "mult8"
WINDOW = 10

#: Required amortization on the full run: the ladder must do at least 5x
#: fewer greedy descents than the per-degree path.
MIN_REDUCTION_FULL = 5.0
MIN_REDUCTION_SMOKE = 3.0


def _profiles_equal(a, b) -> bool:
    """Byte-identity of two WindowTaskResult profiles (ignoring counters)."""
    if a.exact_area != b.exact_area or list(a.variants) != list(b.variants):
        return False
    for f in a.variants:
        va, vb = a.variants[f], b.variants[f]
        if len(va) != len(vb):
            return False
        for x, y in zip(va, vb):
            if not (
                np.array_equal(x.table, y.table)
                and np.array_equal(x.B, y.B)
                and np.array_equal(x.C, y.C)
                and x.area == y.area
                and x.bmf_error == y.bmf_error
                and x.kind == y.kind
            ):
                return False
    return True


def _profiling_comparison(smoke: bool) -> dict:
    from repro.bench import get_benchmark
    from repro.core.profile import (
        ProfileParams,
        WindowTask,
        output_significance,
        profile_window_task,
        profile_window_task_reference,
        window_weights,
    )
    from repro.partition import decompose

    circuit = get_benchmark(BENCH_NAME).factory()
    windows = decompose(circuit, WINDOW, WINDOW)
    if smoke:
        # A slice is enough to smoke the contract; keep the widest windows
        # so the amortization factor stays representative.
        windows = sorted(windows, key=lambda w: -w.n_outputs)[:6]
    sig = output_significance(circuit)
    # estimate_area=False isolates the factorization kernel: variant
    # synthesis is identical (and identically memoized) on both paths.
    params = ProfileParams(estimate_area=False)
    tasks = [
        WindowTask(
            w.table(circuit),
            window_weights(circuit, w, "significance", sig),
            None,
            params,
        )
        for w in windows
    ]

    t0 = time.perf_counter()
    legacy = [profile_window_task_reference(t) for t in tasks]
    t1 = time.perf_counter()
    ladder = [profile_window_task(t) for t in tasks]
    t2 = time.perf_counter()

    equivalent = all(_profiles_equal(a, b) for a, b in zip(ladder, legacy))
    legacy_fact = sum(r.n_factorizations for r in legacy)
    ladder_fact = sum(r.n_factorizations for r in ladder)
    return {
        "benchmark": BENCH_NAME,
        "window": WINDOW,
        "n_windows": len(windows),
        "max_outputs": max(w.n_outputs for w in windows),
        "legacy": {
            "wall_s": round(t1 - t0, 4),
            "factorizations": legacy_fact,
            "degree_results": sum(r.n_ladder_levels for r in legacy),
        },
        "ladder": {
            "wall_s": round(t2 - t1, 4),
            "factorizations": ladder_fact,
            "degree_results": sum(r.n_ladder_levels for r in ladder),
        },
        "factorization_reduction": round(legacy_fact / ladder_fact, 3),
        "wall_speedup": round((t1 - t0) / (t2 - t1), 3),
        "profiles_byte_identical": equivalent,
    }


def _time_us(fn, repeats: int) -> float:
    fn()  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats * 1e6


def _cpu_model() -> str:
    """Human-readable CPU model, best effort (provenance only)."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _kernel_micro(smoke: bool) -> dict:
    from repro.circuit.simulate import _bit_count_lut, bit_count
    from repro.core.bmf.packed import PackedColumns, packed_weighted_error

    rng = np.random.default_rng(0xB1A5)
    # The paper's window budget: k = 10 inputs -> 1024 truth-table rows,
    # m = 10 outputs.
    n, m = (1 << 10), 10
    repeats = 20 if smoke else 200
    M = rng.random((n, m)) < 0.4
    A = rng.random((n, m)) < 0.4
    w = np.arange(1, m + 1, dtype=float)
    Pm, Pa = PackedColumns.from_dense(M), PackedColumns.from_dense(A)

    dense_err_us = _time_us(
        lambda: float(((M ^ A).astype(float) @ w).sum()), repeats
    )
    packed_err_us = _time_us(lambda: packed_weighted_error(Pm, Pa, w), repeats)

    # Fused popcount-and-reduce vs materializing the per-word LUT counts
    # and summing them (the pre-bitwise_count formulation).
    words = rng.integers(0, 1 << 64, size=(1 << 13,), dtype=np.uint64)
    assert int(bit_count(words).sum()) == int(_bit_count_lut(words).sum())
    lut_us = _time_us(lambda: int(_bit_count_lut(words).sum()), repeats)
    fused_us = _time_us(lambda: int(bit_count(words).sum()), repeats)

    return {
        "rows": n,
        "cols": m,
        "numpy_version": np.__version__,
        "cpu_model": _cpu_model(),
        "note": (
            "fused_popcount compares the fused count-and-reduce against "
            "materialized per-word LUT counts"
        ),
        "weighted_error": {
            "dense_us": round(dense_err_us, 2),
            "packed_us": round(packed_err_us, 2),
            "speedup": round(dense_err_us / packed_err_us, 2),
        },
        "fused_popcount": {
            "words": int(words.size),
            "lut_us": round(lut_us, 2),
            "fused_us": round(fused_us, 2),
            "speedup": round(lut_us / fused_us, 2),
        },
    }


def run(smoke: bool = False, write: bool = True) -> dict:
    report = {
        "bench": "bmf_kernel",
        "smoke": smoke,
        "profiling": _profiling_comparison(smoke),
        "kernel_micro": _kernel_micro(smoke),
    }
    prof = report["profiling"]
    assert prof["profiles_byte_identical"], (
        "ladder profiles diverged from the per-degree reference"
    )
    min_reduction = MIN_REDUCTION_SMOKE if smoke else MIN_REDUCTION_FULL
    assert prof["factorization_reduction"] >= min_reduction, (
        f"greedy-descent reduction {prof['factorization_reduction']} "
        f"below the {min_reduction}x bar"
    )
    micro = report["kernel_micro"]
    if not smoke:
        # Wall-clock is noisy on shared CI boxes; only the full local run
        # (the committed BENCH_bmf.json) must show a measured speedup.
        assert prof["wall_speedup"] > 1.0, "ladder slower than per-degree"
        assert micro["fused_popcount"]["speedup"] >= 2.0, (
            "fused popcount-reduce below the 2x bar vs the LUT path"
        )
        if write:
            OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_bmf_kernel_smoke() -> None:
    """Pytest entry: run the reduced benchmark, assert the contracts."""
    report = run(smoke=True, write=False)
    print(json.dumps(report, indent=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced run for CI: fewer windows, no BENCH_bmf.json write",
    )
    args = parser.parse_args()
    report = run(smoke=args.smoke)
    print(json.dumps(report, indent=2))
    if not args.smoke:
        print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
