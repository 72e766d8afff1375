"""The benchmark's named workloads.

Every workload is one whole ``run_blasys`` call on a registry benchmark
with ``ExplorerConfig`` defaults plus the fields below.  The workload
seed becomes ``ExplorerConfig.seed`` — the only input the program takes
from it; the flow draws its own stimulus from that seed.  See README.md
for why each workload was chosen and which layer dominates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.explorer import ExplorerConfig

#: The paper's Table 2 threshold sweep; 0.05 is the headline column.
SWEEP = (0.01, 0.02, 0.03, 0.05, 0.10, 0.20)
#: Threshold whose design the savings metrics report.
HEADLINE = 0.05
#: Seed when ``--seed`` is not given (``ExplorerConfig``'s default).
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name on the command line.
        bench: Registry benchmark name (:mod:`repro.bench.registry`).
        n_samples: Exploration stimulus size.
        thresholds: Thresholds ``run_blasys`` realizes designs for.
        warm: Fill a profile cache during set-up and run against it.
    """

    name: str
    bench: str
    n_samples: int
    thresholds: Tuple[float, ...]
    warm: bool

    def config(self, seed: int, cache_dir: Optional[str]) -> ExplorerConfig:
        return ExplorerConfig(
            n_samples=self.n_samples, seed=seed, cache_dir=cache_dir
        )


#: The workloads ``BENCHMARK.json`` names, in its order.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mult8_cold", "mult8", 4096, SWEEP, warm=False),
        Workload("mult8_warm64k", "mult8", 65536, (HEADLINE,), warm=True),
    )
}

#: Workloads the command runs by name but ``BENCHMARK.json`` does not
#: name: their runs do not fit the benchmark's time budget next to the
#: named ones (see README.md).
EXTRA_WORKLOADS = {
    w.name: w
    for w in (
        Workload("adder32_warm128k", "adder32", 131072, SWEEP, warm=True),
    )
}
