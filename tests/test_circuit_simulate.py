"""Unit + property tests for the bit-parallel simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    CircuitBuilder,
    exhaustive_input_words,
    pack_bits,
    patterns_to_words,
    popcount_words,
    random_input_words,
    simulate_full,
    simulate_outputs,
    simulate_patterns,
    truth_table,
    unpack_bits,
    words_for,
    words_to_patterns,
)
from repro.circuit.simulate import (
    _bit_count_lut,
    _lut_eval,
    bit_count,
    code_dtype,
    codes_to_rows,
    lut_gather,
    mask_tail_words,
    rows_to_codes,
    tail_mask,
)
from repro.errors import SimulationError


class TestPacking:
    def test_words_for(self):
        assert words_for(0) == 0
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2

    def test_pack_unpack_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(3, 130), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (3, 3)
        np.testing.assert_array_equal(unpack_bits(words, 130), bits)

    def test_pack_bit_order_is_little_endian(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        assert pack_bits(bits)[0] == np.uint64(1)
        bits = np.zeros(64, dtype=np.uint8)
        bits[63] = 1
        assert pack_bits(bits)[0] == np.uint64(1) << np.uint64(63)

    def test_tail_mask(self):
        assert tail_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert tail_mask(1) == np.uint64(1)
        assert tail_mask(65) == np.uint64(1)

    def test_popcount_respects_pattern_count(self):
        words = np.array([[0xFFFFFFFFFFFFFFFF]], dtype=np.uint64)
        assert popcount_words(words, n=10) == 10
        assert popcount_words(words) == 64

    def test_patterns_words_roundtrip(self, rng):
        pats = rng.integers(0, 2, size=(77, 5), dtype=np.uint8)
        words = patterns_to_words(pats)
        np.testing.assert_array_equal(words_to_patterns(words, 77), pats)

    def test_patterns_must_be_2d(self):
        with pytest.raises(SimulationError):
            patterns_to_words(np.zeros(4))


class TestExhaustivePatterns:
    def test_row_ordering_matches_truth_table_convention(self):
        words = exhaustive_input_words(3)
        pats = words_to_patterns(words, 8)
        # Row r: input i is bit i of r; input 0 toggles fastest.
        for r in range(8):
            for i in range(3):
                assert pats[r, i] == (r >> i) & 1

    def test_zero_inputs(self):
        words = exhaustive_input_words(0)
        assert words.shape == (0, 1)

    def test_random_inputs_masked_beyond_n(self, rng):
        words = random_input_words(4, 70, rng)
        assert words.shape == (4, 2)
        # bits 70..127 must be zero
        bits = unpack_bits(words, 128)
        assert not bits[:, 70:].any()


def _golden_eval(op_name, rows):
    """Reference evaluation of tiny gates by python semantics."""
    out = []
    for bits in rows:
        a = bits
        if op_name == "and":
            out.append(all(a))
        elif op_name == "or":
            out.append(any(a))
        elif op_name == "xor":
            out.append(sum(a) % 2 == 1)
    return np.array(out, dtype=np.uint8)


class TestGateSemantics:
    @pytest.mark.parametrize("op_name", ["and", "or", "xor"])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_nary_gates(self, op_name, arity, rng):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(arity)]
        fn = {"and": b.and_, "or": b.or_, "xor": b.xor_}[op_name]
        b.output("y", fn(*ins))
        c = b.build()
        pats = rng.integers(0, 2, size=(200, arity), dtype=np.uint8)
        got = simulate_patterns(c, pats)[:, 0]
        np.testing.assert_array_equal(got, _golden_eval(op_name, pats))

    def test_not_and_buf(self):
        b = CircuitBuilder()
        a = b.input("a")
        b.output("n", b.not_(a))
        b.output("bf", b.buf(a))
        c = b.build()
        pats = np.array([[0], [1]], dtype=np.uint8)
        out = simulate_patterns(c, pats)
        np.testing.assert_array_equal(out[:, 0], [1, 0])
        np.testing.assert_array_equal(out[:, 1], [0, 1])

    def test_mux_semantics(self):
        b = CircuitBuilder()
        s, a, x = b.input("s"), b.input("a"), b.input("b")
        b.output("y", b.mux(s, a, x))
        c = b.build()
        tt = truth_table(c)
        # inputs ordered s, a, b; row index bit0=s, bit1=a, bit2=b
        for r in range(8):
            s_v, a_v, b_v = r & 1, (r >> 1) & 1, (r >> 2) & 1
            expect = b_v if s_v else a_v
            assert tt[r, 0] == bool(expect)

    def test_lut_node(self):
        b = CircuitBuilder()
        x, y = b.input("x"), b.input("y")
        # table for XOR: rows 01 and 10 set
        table = np.array([0, 1, 1, 0], dtype=bool)
        b.output("z", b.lut([x, y], table))
        c = b.build()
        tt = truth_table(c)
        np.testing.assert_array_equal(tt[:, 0], table)

    def test_constants(self):
        b = CircuitBuilder()
        b.input("a")
        b.output("zero", b.const(False))
        b.output("one", b.const(True))
        c = b.build()
        tt = truth_table(c)
        assert not tt[:, 0].any()
        assert tt[:, 1].all()


class TestSimulatorEquivalence:
    def test_chunked_matches_full(self, full_adder_circuit, rng):
        words = random_input_words(3, 64 * 10, rng)
        full = simulate_full(full_adder_circuit, words)
        chunked = simulate_outputs(full_adder_circuit, words, chunk_words=2)
        np.testing.assert_array_equal(
            full[full_adder_circuit.output_nodes()], chunked
        )

    def test_input_count_mismatch_raises(self, full_adder_circuit):
        with pytest.raises(SimulationError):
            simulate_full(full_adder_circuit, np.zeros((2, 1), dtype=np.uint64))

    def test_chunked_tail_masking_with_padded_words(self, rng):
        """Regression: ``n_samples`` far below the padded word count.

        Chunks that start past ``n_samples`` used to compute a *negative*
        valid count (``min(n, stop*64) - start*64``), which reaches
        ``tail_mask`` through Python's negative modulo and produces a wrong
        mask — leaving LUT garbage in the padded region where the
        unchunked path guarantees zeros.  Chunked and unchunked must be
        byte-identical, padding included."""
        b = CircuitBuilder("lutpad")
        a, x = b.input("a"), b.input("b")
        na = b.not_(a)  # inverted tails: garbage indexes a nonzero row
        table = np.array([1, 0, 1, 1], dtype=bool)  # table[0] == 1
        b.output("y", b.lut((na, x), table))
        circuit = b.build()
        n = 70  # valid bits end mid-word-2 of 6 padded words
        words = np.zeros((2, 6), dtype=np.uint64)
        words[:, :2] = random_input_words(2, n, rng)[:, :2]
        unchunked = simulate_outputs(circuit, words, n_samples=n)
        chunked = simulate_outputs(
            circuit, words, chunk_words=1, n_samples=n
        )
        np.testing.assert_array_equal(chunked, unchunked)
        # every bit past n_samples is zero (the LUT tail-mask contract)
        assert popcount_words(chunked) == popcount_words(chunked, n)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 1), b=st.integers(0, 1), cin=st.integers(0, 1))
    def test_full_adder_matches_arithmetic(self, a, b, cin):
        builder = CircuitBuilder("fa")
        ai, bi, ci = builder.input("a"), builder.input("b"), builder.input("cin")
        s, carry = builder.full_adder(ai, bi, ci)
        builder.output("sum", s)
        builder.output("cout", carry)
        circuit = builder.build()
        out = simulate_patterns(circuit, np.array([[a, b, cin]], dtype=np.uint8))[0]
        total = a + b + cin
        assert out[0] == total % 2
        assert out[1] == total // 2


class TestTruthTable:
    def test_full_adder_table(self, full_adder_circuit):
        tt = truth_table(full_adder_circuit)
        assert tt.shape == (8, 2)
        for r in range(8):
            total = (r & 1) + ((r >> 1) & 1) + ((r >> 2) & 1)
            assert tt[r, 0] == bool(total % 2)
            assert tt[r, 1] == bool(total // 2)

    def test_input_limit_enforced(self):
        b = CircuitBuilder()
        ins = [b.input(f"i{k}") for k in range(25)]
        b.output("y", b.or_(*ins))
        with pytest.raises(SimulationError):
            truth_table(b.build())


class TestBitCountEquivalence:
    @pytest.mark.parametrize(
        "dtype", [np.uint64, np.uint32, np.uint8, np.int64]
    )
    def test_dtypes_converted_identically(self, dtype):
        # bit_count converts to uint64 by value; the LUT path must agree
        # through the conversion for every input dtype.
        vals = np.array([0, 1, 2, 127, 200], dtype=dtype)
        expected = np.array([bin(int(v)).count("1") for v in vals])
        np.testing.assert_array_equal(bit_count(vals), expected)
        as_u64 = np.ascontiguousarray(vals, dtype=np.uint64)
        np.testing.assert_array_equal(_bit_count_lut(as_u64), expected)

    def test_empty_and_shapes(self):
        empty = np.zeros((0,), dtype=np.uint64)
        assert bit_count(empty).shape == (0,)
        assert _bit_count_lut(empty).shape == (0,)
        two_d = np.full((2, 3), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        np.testing.assert_array_equal(bit_count(two_d), np.full((2, 3), 64))
        np.testing.assert_array_equal(_bit_count_lut(two_d), bit_count(two_d))


class TestPopcountWordsValidation:
    def test_too_large_n_raises(self):
        words = np.array([0xFF, 0xFF], dtype=np.uint64)
        with pytest.raises(ValueError, match="packed words"):
            popcount_words(words, n=129)

    def test_too_large_n_raises_2d(self):
        words = np.full((3, 2), 0xFF, dtype=np.uint64)
        with pytest.raises(ValueError, match="packed words"):
            popcount_words(words, n=200)

    def test_negative_n_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            popcount_words(np.array([1], dtype=np.uint64), n=-1)

    def test_consistent_n_still_counts(self):
        words = np.array([0xFFFFFFFFFFFFFFFF, 0x7], dtype=np.uint64)
        assert popcount_words(words, n=128) == 67
        assert popcount_words(words, n=66) == 66
        assert popcount_words(words) == 67
        assert popcount_words(np.zeros(0, dtype=np.uint64), n=0) == 0


# ----------------------------------------------------------------------
# The packed table-gather primitive, checked against the per-sample
# unpack formulas it replaced (kept here as oracles).
# ----------------------------------------------------------------------
def _index_oracle(rows):
    """Per-sample row index via one unpack + shift + OR per row."""
    k = rows.shape[0]
    dt = np.uint32 if k <= 32 else np.uint64
    n = rows.shape[1] * 64
    idx = np.zeros(n, dtype=dt)
    for bit in range(k):
        idx |= unpack_bits(rows[bit], n).astype(dt) << dt(bit)
    return idx


def _gather_oracle(table, idx, n_valid):
    """``table[idx]`` fancy-index, transposed and repacked."""
    out = pack_bits(np.ascontiguousarray(table[idx, :].T).astype(np.uint8))
    if n_valid is not None:
        mask_tail_words(out, n_valid)
    return out


class TestTableGather:
    @pytest.mark.parametrize("k", list(range(1, 17)) + [33])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_rows_to_codes_matches_unpack_loop(self, k, w, rng):
        full = rng.integers(0, 1 << 64, size=(k, w), dtype=np.uint64)
        # a clean tail (n % 64 != 0) and garbage tails both transpose
        tailed = random_input_words(k, w * 64 - 23, rng)
        for rows in (full, tailed):
            codes = rows_to_codes(rows)
            assert codes.dtype == code_dtype(k)
            assert codes.shape == (w * 64,)
            np.testing.assert_array_equal(
                codes.astype(np.uint64), _index_oracle(rows).astype(np.uint64)
            )

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 16, 17, 33, 63, 64])
    def test_codes_to_rows_inverts(self, k, rng):
        rows = rng.integers(0, 1 << 64, size=(k, 3), dtype=np.uint64)
        np.testing.assert_array_equal(codes_to_rows(rows_to_codes(rows), k), rows)

    def test_code_dtype_is_smallest(self):
        assert [code_dtype(k) for k in (0, 8, 9, 16, 17, 32, 33, 64)] == [
            np.uint8, np.uint8, np.uint16, np.uint16,
            np.uint32, np.uint32, np.uint64, np.uint64,
        ]
        with pytest.raises(SimulationError):
            code_dtype(65)

    def test_codes_to_rows_rejects_bad_shapes(self):
        with pytest.raises(SimulationError, match="whole packed words"):
            codes_to_rows(np.zeros(72, dtype=np.uint8), 1)
        with pytest.raises(SimulationError, match="exceed"):
            codes_to_rows(np.zeros(64, dtype=np.uint8), 9)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("m", [1, 4, 8, 9, 10, 16])
    def test_lut_gather_matches_fancy_index(self, k, m, rng):
        table = rng.random((1 << k, m)) < 0.5
        rows = rng.integers(0, 1 << 64, size=(k, 3), dtype=np.uint64)
        idx = rows_to_codes(rows)
        oracle_idx = _index_oracle(rows)
        for n_valid in (None, 1, 130, 191, 192):
            np.testing.assert_array_equal(
                lut_gather(table, idx, n_valid),
                _gather_oracle(table, oracle_idx, n_valid),
            )

    def test_lut_eval_matches_fancy_index(self, rng):
        table = rng.random(1 << 5) < 0.5
        fanins = list(rng.integers(0, 1 << 64, size=(5, 2), dtype=np.uint64))
        idx = _index_oracle(np.stack(fanins))
        np.testing.assert_array_equal(
            _lut_eval(table, fanins, 100),
            _gather_oracle(table[:, None], idx, 100)[0],
        )
