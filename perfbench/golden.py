"""Independent error reference for realized designs.

The flow re-measures each realized design against the *accurate netlist*
on 65536 fresh samples.  This module checks it against something the
flow never sees: the registry's golden numpy model of the benchmark
function (:mod:`repro.bench.registry`), evaluated on its own pattern set —
the whole input space when the circuit has at most
:data:`EXHAUSTIVE_INPUTS` inputs, otherwise :data:`SAMPLED_PATTERNS`
uniformly random patterns drawn from a generator seeded apart from the
flow's stimulus.  It runs outside every timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.bench.registry import Benchmark
from repro.circuit.simulate import simulate_outputs

#: Circuits with at most this many inputs are checked on every pattern.
EXHAUSTIVE_INPUTS = 20
#: Pattern count of the sampled reference for wider circuits (2**20).
SAMPLED_PATTERNS = 1 << 20
#: Mixed into the workload seed so the reference patterns never coincide
#: with the flow's own stimulus stream.
_REFERENCE_STREAM = 0x601DE4


@dataclass(frozen=True)
class Reference:
    """A pattern set plus the golden model's outputs on it.

    Attributes:
        method: ``"exhaustive"`` or ``"sampled"``.
        n: Pattern count.
        packed: Packed input words, shape ``(n_inputs, n // 64)``.
        golden: Golden output value per output word name.
    """

    method: str
    n: int
    packed: np.ndarray
    golden: Dict[str, np.ndarray]


def _row_bits(row: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(row.view(np.uint8), bitorder="little")[:n]


def _word_values(packed: np.ndarray, n: int, spec) -> np.ndarray:
    """Integer value of one word, read bit by bit from packed rows."""
    vals = np.zeros(n, dtype=np.int64)
    for pos, port in enumerate(spec.indices):
        vals |= _row_bits(packed[port], n).astype(np.int64) << pos
    if spec.signed and spec.width:
        vals = np.where(vals >> (spec.width - 1) & 1, vals - (1 << spec.width), vals)
    return vals


def reference_patterns(n_inputs: int, seed: int) -> tuple:
    """``(method, n, packed)`` for a circuit with ``n_inputs`` inputs."""
    if n_inputs <= EXHAUSTIVE_INPUTS:
        n = max(64, 1 << n_inputs)
        idx = np.arange(n, dtype=np.int64) % (1 << n_inputs)
        bits = ((idx[None, :] >> np.arange(n_inputs)[:, None]) & 1).astype(np.uint8)
        packed = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)
        return "exhaustive", n, np.ascontiguousarray(packed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _REFERENCE_STREAM]))
    n = SAMPLED_PATTERNS
    packed = rng.integers(0, 1 << 64, size=(n_inputs, n // 64), dtype=np.uint64)
    return "sampled", n, packed


def build_reference(bench: Benchmark, circuit, seed: int) -> Reference:
    """Golden outputs of ``bench`` on the reference pattern set."""
    method, n, packed = reference_patterns(circuit.n_inputs, seed)
    ins = {
        spec.name: _word_values(packed, n, spec)
        for spec in circuit.attrs["input_words"]
    }
    golden = {name: np.asarray(v, dtype=np.int64) for name, v in bench.golden(ins).items()}
    return Reference(method, n, packed, golden)


def output_values(circuit, ref: Reference) -> Dict[str, np.ndarray]:
    """Each output word's integer value when ``circuit`` runs on ``ref``."""
    out = simulate_outputs(circuit, ref.packed, n_samples=ref.n)
    return {
        spec.name: _word_values(out, ref.n, spec) for spec in circuit.attrs["words"]
    }


def accurate_matches(circuit, ref: Reference) -> bool:
    """Whether the accurate netlist computes the golden function exactly."""
    values = output_values(circuit, ref)
    return set(values) == set(ref.golden) and all(
        np.array_equal(values[name], ref.golden[name]) for name in ref.golden
    )


def true_mre(circuit, ref: Reference) -> float:
    """Average relative error (paper Eq. 1, ``max(|R|, 1)`` denominator)
    of ``circuit`` against the golden model, averaged over output words."""
    values = output_values(circuit, ref)
    per_word = [
        float(np.mean(np.abs(exact - values[name]) / np.maximum(np.abs(exact), 1)))
        for name, exact in ref.golden.items()
    ]
    return sum(per_word) / len(per_word)
