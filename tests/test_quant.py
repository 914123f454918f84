import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprec.quant import QuantParams, QuantizedVector, dual_codes, dual_steps, encode_dual_arrays, quant_step
from quant_oracle import (
    DualIndex,
    QIndex,
    dequantize,
    dot_int,
    encode_dual,
    extract_high,
    extract_low,
    quantize,
    quantize_array,
    rescale,
    vector_elements,
)


def test_quant_step_values():
    assert quant_step(1.0, 8) == 0.0078125
    assert quant_step(1.0, 4) == 0.125
    assert quant_step(2.0, 1) == 2.0
    assert np.array_equal(quant_step(np.array([1.0, 2.0]), 8), [0.0078125, 0.015625])  # one step per alpha


@pytest.mark.parametrize(
    "alpha,bits",
    [(0.0, 8), (-1.0, 4), (float("nan"), 8), (1.0, 0), (1.0, 9), (1.0, 2.5), (np.array([1.0, 0.0]), 8)],
)
def test_quant_step_rejects_bad_arguments(alpha, bits):
    with pytest.raises(ValueError):
        quant_step(alpha, bits)


def test_quantize_examples():
    p4 = QuantParams(1.0, 4)
    p8 = QuantParams(1.0, 8)
    assert quantize(0.0, p4).value == 0
    assert quantize(0.0, p8).value == 0
    assert quantize(0.3, p4).value == 2
    assert quantize(1.0, p8).value == 127
    assert quantize(-1.0, p8).value == -127


def test_quantize_rejects_non_finite():
    p = QuantParams(1.0, 8)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            quantize(bad, p)


def test_qindex_range_enforced():
    QIndex(127, 8)
    with pytest.raises(ValueError):
        QIndex(128, 8)
    with pytest.raises(ValueError):
        QIndex(-8, 4)


def test_dequantize_examples():
    p4 = QuantParams(1.0, 4)
    assert dequantize(QIndex(0, 4), p4) == 0.0
    assert dequantize(QIndex(2, 4), p4) == 0.25
    with pytest.raises(ValueError):
        dequantize(QIndex(2, 4), QuantParams(1.0, 8))


@given(
    y=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    alpha=st.floats(min_value=1e-3, max_value=100.0),
    bits=st.integers(min_value=1, max_value=8),
)
def test_quantize_sign_symmetry(y, alpha, bits):
    p = QuantParams(alpha, bits)
    assert quantize(-y, p).value == -quantize(y, p).value


@given(
    frac=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    alpha=st.floats(min_value=1e-3, max_value=100.0),
    bits=st.integers(min_value=2, max_value=8),
)
def test_round_trip_error_bound(frac, alpha, bits):
    p = QuantParams(alpha, bits)
    y = frac * alpha * (1.0 - 2.0 ** (1 - bits))
    err = abs(dequantize(quantize(y, p), p) - y)
    assert err <= p.step / 2 * (1 + 1e-12) + 1e-15 * alpha


def test_dot_int_examples():
    assert dot_int([3, -2, 1], [1, 2, -4]) == -5
    assert dot_int([], []) == 0
    with pytest.raises(ValueError):
        dot_int([1, 2], [1])


def test_dot_int_accepts_qindex():
    w = [QIndex(3, 8), QIndex(-2, 8)]
    x = [QIndex(5, 8), QIndex(7, 8)]
    assert dot_int(w, x) == 15 - 14


def test_dot_int_matches_bigint_oracle():
    rng = random.Random(1234)
    for _ in range(20):
        n = 1024
        w = [rng.randint(-127, 127) for _ in range(n)]
        x = [rng.randint(-127, 127) for _ in range(n)]
        expected = 0
        for i in range(n):
            expected += w[i] * x[i]
        assert dot_int(w, x) == expected


def test_rescale_examples():
    assert rescale(-5, 0.125, 0.25) == -0.15625
    assert rescale(0, 0.5, 0.5) == 0.0
    assert rescale(128, 0.0078125, 1.0) == 1.0
    with pytest.raises(ValueError):
        rescale(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        rescale(1, 1.0, -0.5)


def test_encode_dual_worked_case():
    # 8-bit index 11 has high nibble 0, but the correct 4-bit index is 1.
    d = encode_dual(11.0 / 128.0, 1.0)
    assert d.magnitude7 == 11
    assert d.offset_bit is True
    assert extract_low(d).value == 1


def test_encode_dual_exact_nibble_multiple():
    d = encode_dual(0.5, 1.0)
    assert d.magnitude7 == 64
    assert d.offset_bit is False
    assert extract_low(d).value == 4


def test_encode_dual_saturation():
    d = encode_dual(1.0, 1.0)
    assert d.magnitude7 == 127
    assert d.offset_bit is False
    assert extract_low(d).value == 7
    d = encode_dual(-1.0, 1.0)
    assert d.negative and d.magnitude7 == 127
    assert extract_low(d).value == -7
    assert extract_high(d).value == -127


def test_encode_dual_rejects_non_finite():
    with pytest.raises(ValueError):
        encode_dual(float("nan"), 1.0)


def test_extract_examples():
    assert extract_low(DualIndex(False, 11, True)).value == 1
    assert extract_low(DualIndex(True, 11, True)).value == -1
    assert extract_low(DualIndex(False, 64, False)).value == 4
    assert extract_high(DualIndex(False, 11, True)).value == 11
    assert extract_high(DualIndex(True, 127, False)).value == -127


def test_dual_index_invariants_enforced():
    with pytest.raises(ValueError):
        DualIndex(False, 128, False)
    with pytest.raises(ValueError):
        DualIndex(False, 127, True)  # decoded 4-bit magnitude would be 8


@given(
    y=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    alpha=st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=300)
def test_dual_code_reproduces_both_indices(y, alpha):
    d = encode_dual(y, alpha)
    assert extract_high(d).value == quantize(y, QuantParams(alpha, 8)).value
    assert extract_low(d).value == quantize(y, QuantParams(alpha, 4)).value


def test_offset_bit_sufficient_on_dense_grid():
    alpha = 1.0
    ys = np.linspace(-alpha, alpha, 20001)
    negatives, magnitudes7, offsets = encode_dual_arrays(ys, alpha)
    nibbles = magnitudes7.astype(np.int64) >> 4
    low = np.where(negatives, -(nibbles + offsets), nibbles + offsets)
    expected = quantize_array(ys, QuantParams(alpha, 4))
    assert np.array_equal(low, expected)
    high = np.where(negatives, -magnitudes7.astype(np.int64), magnitudes7.astype(np.int64))
    assert np.array_equal(high, quantize_array(ys, QuantParams(alpha, 8)))


def _hard_values(rng, alphas, width):
    """Per row of ``alphas``: values on the rounding edges of both precisions, zeros of either sign,
    negatives whose indices are zero, values past the clamp, and uniform draws."""
    rows = []
    for alpha in alphas:
        steps = [quant_step(alpha, 8), quant_step(alpha, 4)]
        halves = [(rng.integers(0, limit) + 0.5) * step for step, limit in zip(steps, (127, 7)) for _ in range(8)]
        edges = [0.0, -0.0, -1e-300, -steps[0] / 4, -steps[1] / 4, 1.5 * alpha, -alpha, alpha, *halves]
        row = np.concatenate([edges, rng.uniform(-alpha, alpha, width - len(edges))])
        rows.append(row * np.where(rng.random(width) < 0.5, 1.0, -1.0))
    return np.array(rows)


def test_dual_codes_match_the_scalar_quantizer():
    # the encoder's three uses: weights at one step per row, inputs at one alpha per row (their max-abs)
    # and outputs at alpha 1; steps that are not powers of two must be divided by, not inverted
    rng = np.random.default_rng(29)
    w_alphas = rng.uniform(1e-3, 4.0, 24)
    weights = _hard_values(rng, w_alphas, 60)
    inputs = _hard_values(rng, rng.uniform(1e-3, 4.0, 24), 60)
    x_alphas = np.abs(inputs).max(axis=1)
    h = _hard_values(rng, [1.0] * 3, 60).T  # [cell, lanes]
    cases = [
        (weights, dual_steps(w_alphas)[:, :, None], w_alphas),
        (inputs, dual_steps(x_alphas)[:, :, None], x_alphas),
        (h, dual_steps(1.0)[:, None, None], np.ones(len(h))),
    ]
    for values, steps, alphas in cases:
        codes = dual_codes(values, steps)
        assert codes.shape == (2, *values.shape)
        for p, bits in enumerate((8, 4)):
            want = [[quantize(y, QuantParams(alpha, bits)).value for y in row] for row, alpha in zip(values, alphas)]
            assert np.array_equal(codes[p], want)
        assert not np.signbit(codes[codes == 0]).any()  # a zero index is +0.0, also for a negative value


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(7)
    values = rng.uniform(-3.0, 3.0, size=500)
    p = QuantParams(2.0, 8)
    vec = quantize_array(values, p)
    for v, q in zip(values, vec):
        assert quantize(float(v), p).value == q


def test_quantized_vector_round_trip():
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, size=64)
    qv = QuantizedVector.encode(values, 1.0)
    assert len(qv) == 64
    assert qv.params4.alpha == qv.params8.alpha
    assert qv.params4.step == 16 * qv.params8.step
    elems = vector_elements(qv)
    assert [extract_high(e).value for e in elems] == list(qv.high_values())
    assert [extract_low(e).value for e in elems] == list(qv.low_values())
    deq8 = qv.high_values() * qv.params8.step
    assert np.max(np.abs(deq8 - values)) <= qv.params8.step / 2 + 1e-12


def test_quantized_vector_rejects_matrix():
    with pytest.raises(ValueError):
        QuantizedVector.encode(np.zeros((2, 2)), 1.0)


def test_step_relation_exact_for_random_alphas():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(1e-4, 50.0, size=50):
        assert quant_step(alpha, 4) == 16 * quant_step(alpha, 8)
