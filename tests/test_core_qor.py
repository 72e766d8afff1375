"""Tests for QoR metrics (Eq. 1 / Eq. 2 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import ripple_adder
from repro.circuit import (
    CircuitBuilder,
    WordSpec,
    patterns_to_words,
    random_input_words,
    simulate_outputs,
    unpack_bits,
)
from repro.core.qor import METRICS, QoREvaluator, QoRSpec, circuit_words
from repro.errors import SimulationError


def _make_evaluator(circuit, patterns, spec=QoRSpec()):
    words = patterns_to_words(patterns)
    exact = simulate_outputs(circuit, words)
    return QoREvaluator(circuit, exact, patterns.shape[0], spec), exact


class TestQoRSpec:
    def test_valid_metrics(self):
        for m in METRICS:
            QoRSpec(m)

    def test_invalid_metric(self):
        with pytest.raises(SimulationError):
            QoRSpec("rmse")


class TestCircuitWords:
    def test_words_from_attrs(self):
        c = ripple_adder(4)
        words = circuit_words(c)
        assert len(words) == 1
        assert words[0].name == "sum"
        assert words[0].width == 5

    def test_fallback_single_word(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("y0", a)
        b.output("y1", b.not_(a))
        c = b.build()
        c.attrs.pop("words", None)
        words = circuit_words(c)
        assert len(words) == 1
        assert words[0].width == 2


class TestQoREvaluator:
    def test_zero_error_on_identical(self, rng):
        c = ripple_adder(4)
        pats = rng.integers(0, 2, size=(200, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        metrics = ev.metrics(exact)
        assert all(v == 0.0 for v in metrics.values())

    def test_known_absolute_error(self):
        # adder sum vs sum with LSB forced to 0: abs error = lsb value
        c = ripple_adder(4)
        pats = np.array(
            [[1, 0, 0, 0, 0, 0, 0, 0],  # a=1, b=0 -> sum=1
             [0, 0, 0, 0, 1, 0, 0, 0]],  # a=0, b=1 -> sum=1
            dtype=np.uint8,
        )
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[0] = 0  # clear output bit 0 (sum[0]) for all samples
        m = ev.metrics(approx)
        assert m["mae"] == pytest.approx(1.0)  # both samples lose their LSB
        assert m["mre"] == pytest.approx(1.0)  # |1-0|/1 for both
        assert m["hamming"] == pytest.approx(1.0)

    def test_relative_error_uses_max_denominator(self):
        # exact result 0 must not divide by zero
        c = ripple_adder(2)
        pats = np.zeros((1, 4), dtype=np.uint8)  # a=0,b=0 -> sum=0
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[1] = 1  # flip bit 1 -> approx=2
        m = ev.metrics(approx)
        assert np.isfinite(m["mre"])
        assert m["mre"] == pytest.approx(2.0)  # |0-2|/max(0,1)

    def test_nmae_normalized_by_word_range(self):
        c = ripple_adder(4)  # sum word is 5 bits, max 31
        pats = np.zeros((1, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        approx = exact.copy()
        approx[4] = 1  # MSB flip: abs err 16
        m = ev.metrics(approx)
        assert m["nmae"] == pytest.approx(16 / 31)

    def test_evaluate_matches_metrics(self, rng):
        c = ripple_adder(4)
        pats = rng.integers(0, 2, size=(500, 8), dtype=np.uint8)
        for metric in METRICS:
            ev, exact = _make_evaluator(c, pats, QoRSpec(metric))
            approx = exact.copy()
            approx[2] ^= np.uint64(0xF0F0F0F0)
            assert ev.evaluate(approx) == pytest.approx(ev.metrics(approx)[metric])

    def test_multi_word_average(self, rng):
        from repro.bench import butterfly

        c = butterfly(4)
        pats = rng.integers(0, 2, size=(300, 8), dtype=np.uint8)
        ev, exact = _make_evaluator(c, pats)
        # flip one bit of word x only
        approx = exact.copy()
        approx[0] = ~approx[0]
        m = ev.metrics(approx)
        assert m["mae"] > 0
        # errors averaged over both words: half the terms are zero
        approx_both = exact.copy()
        approx_both[0] = ~approx_both[0]
        x_idx = [w for w in c.attrs["words"] if w.name == "y"][0].indices[0]
        approx_both[x_idx] = ~approx_both[x_idx]
        m2 = ev.metrics(approx_both)
        assert m2["mae"] > m["mae"]


class TestWordPartials:
    def test_zero_padding_is_exact(self):
        # One 1-bit output word, approximated by its complement: every
        # sample has absolute error 1, and the 63 padding slots of the
        # second word contribute exactly 0.0.
        b = CircuitBuilder()
        b.output("y", b.input("a"))
        c = b.build()
        pats = (np.arange(65) % 2).astype(np.uint8)[:, None]
        ev, exact = _make_evaluator(c, pats, QoRSpec("mae"))
        approx = ~exact
        np.testing.assert_array_equal(ev.word_partials(0, approx), [64.0, 1.0])
        np.testing.assert_array_equal(
            ev.word_partials(0, approx[:, 1:], word_start=1), [1.0]
        )


def _partials_oracle(ev, w, output_words, metric, word_start, n_valid):
    """The formula ``_word_partials`` used before it worked in place:
    cast the absolute difference to float, then zero-pad a copy."""
    s0 = word_start * 64
    approx = ev._word_ints(output_words, w, n_valid)
    exact = ev._exact_vals[w.name][s0 : s0 + n_valid]
    diff = np.abs(exact - approx).astype(float)
    if metric == "mre":
        terms = diff / ev._rel_denoms[w.name][s0 : s0 + n_valid]
    elif metric == "mae":
        terms = diff
    else:
        terms = diff / max(w.max_abs, 1)
    n_words = -(-n_valid // 64)
    padded = np.zeros(n_words * 64, dtype=float)
    padded[:n_valid] = terms
    return padded.reshape(n_words, 64).sum(axis=1)


class TestWordPartialsOracle:
    @pytest.mark.parametrize("metric", ["mre", "mae", "nmae"])
    @pytest.mark.parametrize("n", [1024, 1000])
    def test_byte_identical_to_padded_copy(self, metric, n, rng):
        """Full-width and chunk-sliced partials equal the old formula's
        bytes, on signed and unsigned words, with and without a tail."""
        from repro.bench import butterfly

        for c in (ripple_adder(8), butterfly(6)):
            words = random_input_words(c.n_inputs, n, rng)
            exact = simulate_outputs(c, words)
            approx = exact ^ (
                random_input_words(exact.shape[0], n, rng)
                & random_input_words(exact.shape[0], n, rng)
            )
            ev = QoREvaluator(c, exact, n, QoRSpec(metric))
            n_words = words.shape[1]
            for w in ev.words:
                got = ev._word_partials(w, approx, metric)
                want = _partials_oracle(ev, w, approx, metric, 0, n)
                assert got.tobytes() == want.tobytes()
                for start, stop in ((0, 3), (3, n_words), (5, 6)):
                    n_valid = min(n, stop * 64) - start * 64
                    sl = approx[:, start:stop]
                    got = ev._word_partials(w, sl, metric, start, n_valid)
                    want = _partials_oracle(ev, w, sl, metric, start, n_valid)
                    assert got.tobytes() == want.tobytes()


def _buffer_circuit(n_outputs):
    """``n_outputs`` buffered inputs and no word metadata: one unsigned
    word of every output (the ``--blif`` netlist fallback)."""
    b = CircuitBuilder()
    for i in range(n_outputs):
        b.output(f"y{i}", b.buf(b.input(f"x{i}")))
    c = b.build()
    c.attrs.pop("words", None)
    return c


class TestWordInts:
    """``_word_ints`` (one bit transpose) against ``WordSpec.to_ints``
    (unpacked bits times powers of two), the formula it replaced."""

    def test_matches_to_ints_all_widths(self, rng):
        n = 200  # 4 packed words, the last one partial
        c = _buffer_circuit(63)
        out = random_input_words(63, n, rng)
        ev = QoREvaluator(c, out, n, QoRSpec("mae"))
        bits = unpack_bits(out, n).T
        for width in range(1, 64):
            idx = tuple(int(i) for i in rng.permutation(63)[:width])
            for signed in (False, True):
                spec = WordSpec("w", idx, signed)
                full = ev._word_ints(out, spec)
                np.testing.assert_array_equal(full, spec.to_ints(bits))
                # chunk-sliced calls equal slices of the full-width call
                for start, stop in ((0, 2), (2, 4), (3, 4), (1, 2)):
                    n_valid = min(n - start * 64, (stop - start) * 64)
                    np.testing.assert_array_equal(
                        ev._word_ints(out[:, start:stop], spec, n_valid),
                        full[start * 64 : start * 64 + n_valid],
                    )

    def test_signed_extremes(self):
        c = _buffer_circuit(63)
        rows = np.zeros((63, 1), dtype=np.uint64)
        rows[62, 0] = 1  # sample 0: only the sign bit
        rows[:, 0] |= np.uint64(2)  # sample 1: every bit set
        ev = QoREvaluator(c, rows, 2, QoRSpec("mae"))
        spec = WordSpec("w", tuple(range(63)), True)
        assert ev._word_ints(rows, spec).tolist() == [-(1 << 62), -1]
        unsigned = WordSpec("u", tuple(range(63)))
        assert ev._word_ints(rows, unsigned).tolist() == [
            1 << 62,
            (1 << 63) - 1,
        ]


class TestWideWords:
    """Integer metrics on words wider than 63 bits would wrap int64."""

    @staticmethod
    def _flip_top_bit(n_outputs):
        c = _buffer_circuit(n_outputs)
        exact = np.zeros((n_outputs, 1), dtype=np.uint64)
        approx = exact.copy()
        approx[n_outputs - 1, 0] = 1  # top bit of sample 0 of 64
        return c, exact, approx

    def test_63_bits_exact(self):
        c, exact, approx = self._flip_top_bit(63)
        ev = QoREvaluator(c, exact, 64, QoRSpec("mae"))
        m = ev.metrics(approx)
        assert m["mae"] == 2.0**62 / 64
        assert m["nmae"] == (2.0**62 / (2**63 - 1)) / 64
        assert m["hamming"] == 1 / 64

    @pytest.mark.parametrize("n_outputs", [64, 70])
    def test_integer_metrics_refuse_wide_words(self, n_outputs):
        c, exact, approx = self._flip_top_bit(n_outputs)
        for metric in ("mre", "mae", "nmae"):
            with pytest.raises(SimulationError, match="'out'"):
                QoREvaluator(c, exact, 64, QoRSpec(metric))
        with pytest.raises(SimulationError, match="'out'"):
            circuit_words(c)[0].to_ints(unpack_bits(approx, 64).T)

    @pytest.mark.parametrize("n_outputs", [64, 70])
    def test_hamming_still_works(self, n_outputs):
        c, exact, approx = self._flip_top_bit(n_outputs)
        ev = QoREvaluator(c, exact, 64, QoRSpec("hamming"))
        assert ev.evaluate(approx) == 1 / 64
        assert ev.metrics(approx) == {"hamming": 1 / 64}
