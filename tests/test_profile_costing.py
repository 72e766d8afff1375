"""Cost after choosing: profiling synthesizes only the variants it keeps.

The hybrid rule decides on factorization error alone, so
:func:`profile_window_task` applies it to the raw factorizations and
costs only the winner.  The oracle here costs *both* candidates and picks
with the rule over the costed variants; the stored profile must be
byte-identical to the oracle's under every selection, and under
``hybrid`` no losing candidate may ever reach synthesis.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.bench import get_benchmark
from repro.core import profile as profile_mod
from repro.core.bmf import column_select_ladder, factorize_ladder
from repro.core.profile import (
    HYBRID_ERROR_FACTOR,
    SELECTIONS,
    CandidateVariant,
    ProfileParams,
    WindowTask,
    _bmf_candidate,
    _cone_candidate,
    _VariantCosting,
    _weight_rails,
    output_significance,
    profile_window_task,
    window_weights,
)
from repro.partition import decompose


def _tasks(bench: str, size: int, selection: str) -> List[WindowTask]:
    circuit = get_benchmark(bench).factory()
    sig = output_significance(circuit)
    params = ProfileParams(selection=selection)
    return [
        WindowTask(
            w.table(circuit),
            window_weights(circuit, w, "significance", sig),
            w.subcircuit(circuit),
            params,
        )
        for w in decompose(circuit, size, size)[:3]
    ]


def _costing_key(v: CandidateVariant) -> tuple:
    """What identifies a synthesis request for this variant."""
    if v.kind == "bmf":
        return ("bmf", v.B.tobytes(), v.C.tobytes())
    return ("cone", v.C.tobytes(), tuple(v.replacement.selected))


def _cost_everything(task: WindowTask):
    """Oracle: cost every profiled candidate, then pick by the hybrid rule.

    Returns the stored variants and the costing key of every pick, in
    (degree, rail) order.
    """
    p = task.params
    m = int(task.table.shape[1])
    costing = _VariantCosting(p.library, p.espresso, p.match_macros)
    variants: Dict[int, List[CandidateVariant]] = {}
    picks: List[tuple] = []
    rails = _weight_rails(task)
    bmf = [
        factorize_ladder(task.table, m - 1, weights=r, algebra=p.algebra,
                         method=p.method, taus=p.taus)
        for r in rails
    ] if p.selection != "cone" else None
    cone = [
        column_select_ladder(task.table, m - 1, weights=r, algebra=p.algebra)
        for r in rails
    ] if p.selection != "bmf" else None
    for f in range(1, m):
        by_table: Dict[bytes, CandidateVariant] = {}
        for idx in range(len(rails)):
            b = _bmf_candidate(costing, p, bmf[idx][f]) if bmf else None
            c = _cone_candidate(costing, p, task, f, cone[idx][f]) if cone else None
            if b is None or c is None:
                variant = b or c
            else:
                take_bmf = b.bmf_error < HYBRID_ERROR_FACTOR * c.bmf_error
                variant = b if take_bmf else c
            picks.append(_costing_key(variant))
            held = by_table.get(variant.table.tobytes())
            if held is None or variant.area < held.area:
                by_table[variant.table.tobytes()] = variant
        variants[f] = list(by_table.values())
    return variants, picks


def _assert_same_variants(got, want) -> None:
    assert list(got) == list(want)
    for f in want:
        assert len(got[f]) == len(want[f])
        for x, y in zip(got[f], want[f]):
            assert x.kind == y.kind and x.f == y.f
            assert x.table.tobytes() == y.table.tobytes()
            assert x.B.tobytes() == y.B.tobytes()
            assert x.C.tobytes() == y.C.tobytes()
            assert x.area == y.area and x.bmf_error == y.bmf_error


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("bench,size", [("mult8", 6), ("adder32", 5)])
def test_stored_variants_match_cost_everything_oracle(bench, size, selection):
    for task in _tasks(bench, size, selection):
        _assert_same_variants(
            profile_window_task(task).variants, _cost_everything(task)[0]
        )


class _RecordingCosting(_VariantCosting):
    """Records the key of every factored pair or cone sent to costing."""

    costed: List[tuple] = []

    def factored_area(self, B, C, algebra):
        self.costed.append(("bmf", B.tobytes(), C.tobytes()))
        return super().factored_area(B, C, algebra)

    def cone_area(self, sub, replacement):
        self.costed.append(
            ("cone", replacement.C.tobytes(), tuple(replacement.selected))
        )
        return super().cone_area(sub, replacement)


@pytest.mark.parametrize("bench,size", [("mult8", 6), ("adder32", 5)])
def test_hybrid_never_synthesizes_a_loser(bench, size, monkeypatch):
    monkeypatch.setattr(profile_mod, "_VariantCosting", _RecordingCosting)
    for task in _tasks(bench, size, "hybrid"):
        _, picks = _cost_everything(task)
        _RecordingCosting.costed = []
        result = profile_window_task(task)
        # exactly the winners, one per (degree, rail), in order
        assert _RecordingCosting.costed == picks
        assert len(picks) == len(_weight_rails(task)) * (task.table.shape[1] - 1)
        memo_hits = sum(
            1 for i, c in enumerate(picks) if c[0] == "bmf" and c in picks[:i]
        )
        assert result.n_syntheses == 1 + len(picks) - memo_hits
