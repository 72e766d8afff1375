"""Packed-bitset primitives for the Boolean matrix factorization kernels.

Truth-table matrices in BLASYS are tall and narrow: ``2**k`` rows by a
handful of output columns.  The dense kernels spend their time in float
matmuls over 0/1 matrices; this module replaces them with two bit-packed
views and popcount arithmetic (shared popcount helper:
:func:`repro.circuit.simulate.bit_count`, which uses ``np.bitwise_count``
when available and a byte lookup table otherwise):

* **Column words** (:class:`PackedColumns`) — each column packed over the
  ``2**k`` rows into ``uint64`` words, using the little-endian convention
  of :mod:`repro.circuit.simulate` (row ``r`` lives in word ``r // 64`` at
  bit ``r % 64``; tail bits are zero).  Column-wise quantities — mismatch
  counts, Boolean products, cover updates — become word ops + popcounts.
* **Row masks** (:func:`row_masks`) — each row packed over the ``m``
  columns into one integer.  Row-wise weighted sums over column subsets
  become a single table lookup (:func:`weight_table`), which is what the
  ASSO cover-gain scoring needs.

Determinism contract (see DESIGN.md "BMF kernel"): every weighted sum over
a set of columns is evaluated *left-associated in increasing column
order*, and weighted mismatch totals are always ``np.dot(counts, w)`` over
exact integer per-column counts.  The dense reference formulas in the test
suite follow the same rule, which is what makes packed and dense results
bit-for-bit identical rather than merely close.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...circuit.simulate import bit_count, pack_bits, words_for
from ...errors import FactorizationError

#: Row masks / weight tables are only used up to this many columns; the
#: subset-sum table has ``2**m`` entries, so 16 keeps it at 512 KiB.  BLASYS
#: windows are far below this (``max_outputs`` defaults to 10).
MAX_MASK_BITS = 16


def weighted_counts_error(counts: np.ndarray, w: np.ndarray) -> float:
    """Canonical weighted error: ``dot`` of per-column mismatch counts and weights.

    This is *the* definition of weighted Hamming error throughout the BMF
    package — both the dense :func:`repro.core.bmf.boolean.weighted_error`
    and every packed kernel reduce to this exact expression, so the two
    paths agree bit-for-bit (integer counts are exact in float64).
    """
    return float(np.dot(np.asarray(counts, dtype=np.float64), w))


class PackedColumns:
    """A boolean matrix with each *column* packed over the rows.

    Attributes:
        words: ``(m, W)`` uint64 array, ``W = words_for(n_rows)``; tail bits
            of each column are zero (the packed-word invariant of
            DESIGN.md), so full-array popcounts are exact.
        n_rows: Number of matrix rows represented.
    """

    __slots__ = ("words", "n_rows")

    def __init__(self, words: np.ndarray, n_rows: int) -> None:
        self.words = words
        self.n_rows = n_rows

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "PackedColumns":
        """Pack a dense (n, m) boolean matrix column-by-column."""
        M = np.asarray(M, dtype=bool)
        if M.ndim != 2:
            raise FactorizationError("can only pack a 2-D matrix")
        return cls(pack_bits(M.T.astype(np.uint8)), M.shape[0])

    @classmethod
    def zeros(cls, m: int, n_rows: int) -> "PackedColumns":
        """An all-zero packed matrix of ``m`` columns over ``n_rows`` rows."""
        return cls(np.zeros((m, words_for(n_rows)), dtype=np.uint64), n_rows)

    @property
    def m(self) -> int:
        return self.words.shape[0]

    def to_dense(self) -> np.ndarray:
        """Unpack back to a dense (n, m) boolean matrix."""
        from ...circuit.simulate import unpack_bits

        return unpack_bits(self.words, self.n_rows).T.astype(bool)

    def copy(self) -> "PackedColumns":
        return PackedColumns(self.words.copy(), self.n_rows)


def mismatch_counts(P: PackedColumns, A: PackedColumns) -> np.ndarray:
    """Per-column Hamming mismatch counts between two packed matrices."""
    if P.words.shape != A.words.shape or P.n_rows != A.n_rows:
        raise FactorizationError(
            f"packed shape mismatch {P.words.shape} vs {A.words.shape}"
        )
    return bit_count(P.words ^ A.words).sum(axis=1)


def packed_weighted_error(
    P: PackedColumns, A: PackedColumns, w: np.ndarray
) -> float:
    """Weighted Hamming error between packed matrices (canonical form)."""
    return weighted_counts_error(mismatch_counts(P, A), w)


def combine_columns(
    basis_words: np.ndarray, select: np.ndarray, algebra: str
) -> np.ndarray:
    """OR/XOR-accumulate the selected basis columns into one packed column.

    Args:
        basis_words: ``(f, W)`` packed basis columns.
        select: ``(f,)`` boolean selector.
        algebra: ``"semiring"`` (OR) or ``"field"`` (XOR).

    Accumulation runs in increasing basis order; both Boolean accumulators
    are associative and commutative, so order only matters for determinism
    of intermediate states, not the result.
    """
    acc = np.zeros(basis_words.shape[1], dtype=np.uint64)
    for l in np.flatnonzero(select):
        if algebra == "semiring":
            acc |= basis_words[l]
        else:
            acc ^= basis_words[l]
    return acc


def packed_bool_product(
    B: PackedColumns, C: np.ndarray, algebra: str
) -> PackedColumns:
    """Packed Boolean matrix product: ``B`` (packed basis columns) times ``C``.

    ``C`` is a dense ``(f, m)`` boolean wiring matrix; output column ``j``
    is the OR/XOR accumulation of the basis columns selected by
    ``C[:, j]``.  Equivalent to packing
    :func:`repro.core.bmf.boolean.bool_product`'s result.
    """
    C = np.asarray(C, dtype=bool)
    if C.shape[0] != B.m:
        raise FactorizationError(
            f"shape mismatch: packed B has {B.m} columns, C has {C.shape[0]} rows"
        )
    out = np.zeros((C.shape[1], B.words.shape[1]), dtype=np.uint64)
    for j in range(C.shape[1]):
        out[j] = combine_columns(B.words, C[:, j], algebra)
    return PackedColumns(out, B.n_rows)


# ---------------------------------------------------------------------------
# Row masks and subset-sum weight tables (the ASSO gain representation)
# ---------------------------------------------------------------------------


def row_masks(M: np.ndarray) -> np.ndarray:
    """Pack each row of an (n, m) boolean matrix into one uint64 bitmask.

    Bit ``j`` of ``masks[r]`` is ``M[r, j]``; requires ``m <= 64``.
    """
    M = np.asarray(M, dtype=bool)
    m = M.shape[1]
    if m > 64:
        raise FactorizationError(f"row masks need m <= 64 columns, got {m}")
    shifts = np.uint64(1) << np.arange(m, dtype=np.uint64)
    return (M.astype(np.uint64) * shifts[None, :]).sum(axis=1, dtype=np.uint64)


def weight_table(w: np.ndarray) -> np.ndarray:
    """Subset-sum table: ``table[s] =`` sum of ``w[j]`` over the set bits of ``s``.

    Built so that every entry equals the *left-associated sum in increasing
    column order* of its weights — the canonical weighted-sum order of the
    kernel (DESIGN.md).  Requires ``len(w) <= MAX_MASK_BITS``.
    """
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    if m > MAX_MASK_BITS:
        raise FactorizationError(
            f"weight table needs m <= {MAX_MASK_BITS} columns, got {m}"
        )
    table = np.zeros(1 << m, dtype=np.float64)
    for j in range(m):
        size = 1 << j
        table[size : 2 * size] = table[:size] + w[j]
    return table


def candidate_gains_masks(
    good: np.ndarray,
    bad: np.ndarray,
    cand_masks: np.ndarray,
    wtab: np.ndarray,
    bonus: float,
    penalty: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """ASSO cover gains from row masks (the packed ``_candidate_gains``).

    Args:
        good: ``(n,)`` uint64 row masks of still-coverable 1s
            (``M & ~covered``).
        bad: ``(n,)`` uint64 row masks of coverable 0s (``~M & ~covered``).
        cand_masks: ``(n_cand,)`` uint64 masks of the candidate basis rows.
        wtab: Subset-sum table of the column weights.

    Returns:
        ``(totals, usage)`` exactly as the dense scoring defines them:
        ``gain[r, c] = bonus * wsum(good_r & cand_c) - penalty *
        wsum(bad_r & cand_c)``, ``usage = gain > 0`` and ``totals[c]`` the
        sum of the positive gains of candidate ``c``.
    """
    good_sub = good[:, None] & cand_masks[None, :]  # (n, n_cand) masks
    bad_sub = bad[:, None] & cand_masks[None, :]
    gain = bonus * wtab[good_sub] - penalty * wtab[bad_sub]
    usage = gain > 0
    totals = np.where(usage, gain, 0.0).sum(axis=0)
    return totals, usage


def fit_C_packed(
    target: PackedColumns,
    basis_words: np.ndarray,
    weights: np.ndarray,
    algebra: str,
) -> np.ndarray:
    """Greedy per-output decompressor fit on packed columns.

    Best-improvement greedy identical in its decisions to the dense
    ``_fit_C`` of :mod:`repro.core.bmf.colsel`: for a fixed output ``j``
    every candidate error is ``weights[j]`` times an integer mismatch
    count, so comparing counts (with the ``weights[j] > 0`` guard — a
    zero-weight output can never *strictly* improve) reproduces the dense
    float comparisons exactly (see DESIGN.md).
    """
    f = basis_words.shape[0]
    m = target.m
    C = np.zeros((f, m), dtype=bool)
    for j in range(m):
        if weights[j] <= 0:
            continue
        tcol = target.words[j]
        cur = np.zeros_like(tcol)
        cnt = int(bit_count(tcol).sum())
        while True:
            best_l, best_cnt, best_vec = None, cnt, None
            for l in range(f):
                if C[l, j]:
                    continue
                trial = (
                    (cur | basis_words[l])
                    if algebra == "semiring"
                    else (cur ^ basis_words[l])
                )
                trial_cnt = int(bit_count(tcol ^ trial).sum())
                if trial_cnt < best_cnt:
                    best_l, best_cnt, best_vec = l, trial_cnt, trial
            if best_l is None:
                break
            C[best_l, j] = True
            cnt, cur = best_cnt, best_vec
    return C
