"""Whole-flow BLASYS benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mult8_cold --seed 7 --seconds 45 --trace 0

``--trace 0`` times whole ``run_blasys`` calls with tracing off and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced flows and reports the per-layer metrics,
the tracing overhead included, and writes a Chrome trace.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A human-readable report
goes to standard error and a detailed record (provenance, per-flow
times, failures, layer table) to ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  The flow itself is
# single-threaded (``ExplorerConfig.jobs`` is 1); a second BLAS thread on
# a few shared cores would time the scheduler, and now and then raises
# the flow's peak memory.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"


def _import_flow() -> float:
    """Import the flow from this checkout's ``src``; returns seconds."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    import repro
    import repro.flow  # noqa: F401

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not this checkout")
    return time.perf_counter() - start


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git)"


def provenance(backend: str) -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def measure_run(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run flows, check them; returns ``(runner, values, details)``."""
    import measure as m

    cache_dir = str(workdir / "cache") if workload.warm else None
    setups = []
    while not setups or not trace and m.more_setups(setups):
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
        setups.append(m.setup_once(workload, seed, cache_dir))

    runner = m.FlowRunner(workload, seed, cache_dir)
    for _ in range(m.WARMUP_FLOWS):
        runner.run(warmup=True)
    start = time.perf_counter()
    while m.more_flows(
        runner.outcomes[m.WARMUP_FLOWS:], time.perf_counter() - start, seconds
    ):
        runner.run(traced=trace and len(runner.outcomes) % 2 == 1)

    quality = m.golden_quality(runner, seed)
    first = runner.first_digest()
    for outcome in runner.outcomes:
        outcome.reasons = m.failure_reasons(outcome, first, quality["accurate_ok"])

    ok = [o for o in runner.outcomes if o.error is None]
    timed = [o for o in ok if not o.traced and not o.warmup]
    untraced = [o.seconds for o in timed]
    values = {
        "flow_s": m.median(untraced),
        "setup_s": m.median(setups),
        "peak_rss_mb": m.median([o.peak_rss_mb for o in timed]),
    }
    values.update(m.quality_metrics(runner, quality))
    if trace:
        values.update(m.layer_metrics(runner))
    details = {
        "setup_s": setups,
        "flows": [
            {"seconds": o.seconds, "traced": o.traced, "warmup": o.warmup,
             "peak_rss_mb": o.peak_rss_mb, "failed": o.reasons}
            for o in runner.outcomes
        ],
        "flow_samples": len(untraced),
        "flow_percentiles": (
            "median only: a higher percentile needs at least 10 samples "
            "beyond it"
            if len(untraced) < 11
            else f"p{100 * (1 - 10 / len(untraced)):.0f} supported"
        ),
        "peak_rss_per_flow": runner.peak_resets,
        "golden_reference": quality["reference"],
        "accurate_matches_golden": quality["accurate_ok"],
        "true_error": {f"{t:g}": e for t, e in quality["true_error"].items()},
        "absent_layers": runner.absent,
        "layers": m.layer_table(runner) if trace else [],
    }
    return runner, values, details


def report(record: dict, units: dict, out=sys.stderr) -> None:
    """Readable summary: failures, every value with its unit, layers."""
    flows = record["flows"]
    failed = sum(1 for f in flows if f["failed"])
    print(f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{failed} of {len(flows)} flows failed ({100 * failed / len(flows):.0f}%)",
          file=out)
    for f in flows:
        for reason in f["failed"]:
            print(f"  FAILED: {reason}", file=out)
    for name, value in sorted(record["values"].items()):
        print(f"  {name:38s} {value:>14.6g} {units.get(name, '')}", file=out)
    for row in record["layers"]:
        print(f"  layer {row['layer']:24s} {row['total_s']:9.3f} s "
              f"self {row['self_s']:8.3f} s {row['share_pct']:6.1f}% "
              f"({row['calls']} calls)", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_flow()
    from workloads import DEFAULT_SEED, EXTRA_WORKLOADS, WORKLOADS

    known = {**EXTRA_WORKLOADS, **WORKLOADS}
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
    workload = known[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    workdir = TMP_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner, values, details = measure_run(
            workload, seed, args.seconds, trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if TMP_DIR.exists() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    missing = sorted(set(reported) - set(values))
    if missing:
        raise KeyError(f"benchmark computed no value for {missing}")
    backend = next(
        (o.counters["kernel_backend"] for o in runner.outcomes if o.counters), ""
    )
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": trace,
        "import_s": import_s,
        "provenance": provenance(backend),
        "values": values,
        **details,
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        from spans import write_chrome_trace

        trace_path = OUT_DIR / f"{stem}.trace.json"
        write_chrome_trace(runner.tracer.spans, str(trace_path), record["provenance"])
        record["trace_file"] = trace_path.name
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))

    report(record, units)
    failed = sum(1 for o in runner.outcomes if o.reasons)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
