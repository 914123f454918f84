import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynprec.accel import AccelConfig, EnergyModel, _weight_reads, cost_run
from dynprec.harness import Point, gen_toy
from dynprec.lstm_ref import GATES, InputSequence, LstmLayer, LstmModel, run_fp32
from dynprec import lstm_quant
from dynprec.lstm_quant import (
    FLOAT32_EXACT_COLUMNS,
    FORWARD_CHUNK,
    Lane,
    Mode,
    check_exact_fan_in,
    quantize_model,
    run_lanes,
    run_quantized,
    sequence_fingerprint,
)
from dynprec.pdu import PduConfig, Phase, TrackerState, classify_trace
from dynprec.quant import QuantizedVector, QuantParams, dual_codes, quant_step
from pdu_oracle import Precision
from quant_oracle import gate_operands, neuron_eval, quantize_array, run_quantized_reference
from test_lstm_ref import _ROOT, _cpu_has


def _random_model(rng, layer_dims, scale=0.5):
    layers = []
    for input_size, cell_size in layer_dims:
        gates = [
            (
                rng.uniform(-scale, scale, (cell_size, input_size)),
                rng.uniform(-scale, scale, (cell_size, cell_size)),
                rng.uniform(-scale, scale, cell_size),
            )
            for _ in range(4)
        ]
        layers.append(LstmLayer.from_gates(gates))
    return LstmModel(tuple(layers))


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(314)
    model = _random_model(rng, [(6, 8)])
    seq = InputSequence(rng.uniform(-1, 1, (40, 6)))
    return model, quantize_model(model), seq


def test_quantize_model_alphas(toy):
    model, qmodel, _ = toy
    for layer, qlayer in zip(model.layers, qmodel.layers):
        for (w_x, w_h, _), qgate in zip(layer.gates(), gate_operands(qlayer)):
            assert qgate.fwd_step8 == quant_step(np.max(np.abs(w_x)), 8)
            assert qgate.rec_step8 == quant_step(np.max(np.abs(w_h)), 8)


def test_quantize_model_round_trip_bound(toy):
    # step/2 everywhere except the max-abs element, which saturates under the
    # symmetric clamp and can be off by a full step
    model, qmodel, _ = toy
    for layer, qlayer in zip(model.layers, qmodel.layers):
        for (w_x, _, _), qgate in zip(layer.gates(), gate_operands(qlayer)):
            step = qgate.fwd_step8
            err = np.abs(qgate.fwd8 * step - w_x)
            assert np.max(err) <= step + 1e-12
            alpha = 128 * step  # quant_step(alpha, 8) is alpha / 128, exactly
            interior = np.abs(w_x) <= alpha * (1 - 2.0 ** (1 - 8))
            assert np.max(err[interior], initial=0.0) <= step / 2 + 1e-12


def test_quantize_model_zero_gate_defaults_alpha():
    zero = (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
    model = LstmModel((LstmLayer.from_gates([zero, zero, zero, zero]),))
    qmodel = quantize_model(model)
    gate = gate_operands(qmodel.layers[0])[0]
    assert gate.fwd_step8 == quant_step(1.0, 8)
    assert np.all(gate.fwd8 == 0)


def test_stored_codes_keep_dual_invariants(toy):
    _, qmodel, _ = toy
    for qlayer in qmodel.layers:
        for operand in (qlayer.fwd, qlayer.rec):
            magnitude8, magnitude4 = np.abs(operand.codes)
            assert magnitude8.max() <= 127
            assert magnitude4.max() <= 7
            assert np.array_equal(operand.steps[1], 16 * operand.steps[0])
            offsets = magnitude4 - np.floor(magnitude8 / 16)  # the offset bit beside the high nibble
            assert set(np.unique(offsets)) <= {0.0, 1.0}


def test_gate_blocks_are_each_gates_own_quantization():
    # Gate g's row block of every fused operand must be that gate's matrix
    # quantized at its own alpha, so a swap or mix-up of gates shows here.
    rng = np.random.default_rng(8)
    model = _random_model(rng, [(5, 3), (3, 4)])
    for g_index, (w_x, w_h, _) in enumerate(model.layers[0].gates()):  # distinct alphas per gate
        w_x[0, 0] = w_h[0, 0] = 0.6 + 0.1 * g_index
    qmodel = quantize_model(model)
    for layer, qlayer in zip(model.layers, qmodel.layers):
        n = layer.cell_size
        for g, (w_x, w_h, b) in enumerate(layer.gates()):
            rows = slice(g * n, (g + 1) * n)
            for operand, w in ((qlayer.fwd, w_x), (qlayer.rec, w_h)):
                alpha = float(np.max(np.abs(w)))
                for p, bits in enumerate((8, 4)):
                    assert np.array_equal(operand.codes[p, rows], quantize_array(w, QuantParams(alpha, bits)))
                    assert np.all(operand.steps[p, rows] == quant_step(alpha, bits))
            assert np.array_equal(qlayer.bias[rows], b)


def _arrays(obj):
    """Every array a dataclass holds, through nested dataclasses."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


def test_quantized_layer_holds_one_float32_copy_per_precision():
    layer = quantize_model(_random_model(np.random.default_rng(4), [(24, 32)])).layers[0]
    arrays = list(_arrays(layer))
    assert not any(a.dtype == np.int64 for a in arrays)
    rows = len(GATES) * layer.cell_size
    weights = rows * (layer.input_size + layer.cell_size)
    operands = 2 * 4 * weights  # float32 at 8 and at 4 bits
    vectors = 5 * 8 * rows  # four row-step vectors and the stacked bias
    assert sum(a.nbytes for a in arrays) <= operands + vectors


def test_fan_in_guard_at_the_float64_integer_bound():
    first_inexact = -(-(2**53) // (127 * 127))  # smallest fan-in with 127**2 * fan_in >= 2**53
    assert 127 * 127 * (first_inexact - 1) < 2**53 <= 127 * 127 * first_inexact
    check_exact_fan_in(first_inexact - 1)
    with pytest.raises(ValueError):
        check_exact_fan_in(first_inexact)


def test_float32_block_is_the_widest_exact_block_of_full_terms():
    # sequential float32 sums of 127 * 127 terms, against Python ints
    term = 127 * 127
    sums = np.cumsum(np.full(FLOAT32_EXACT_COLUMNS + 1, term, dtype=np.float32), dtype=np.float32)
    assert [int(v) for v in sums[:-1]] == [term * k for k in range(1, FLOAT32_EXACT_COLUMNS + 1)]
    assert int(sums[-1]) != term * (FLOAT32_EXACT_COLUMNS + 1)
    assert FLOAT32_EXACT_COLUMNS == 1040


def test_multi_block_fan_in_matches_step_major_oracle():
    # Every forward term is +-127 * 127. Row sums reach far beyond 2**24 and
    # are odd (odd fan-in, odd terms), so no float32 value can hold them: one
    # float32 block over the whole fan-in cannot be exact. The small alphas
    # keep the gates out of saturation, so a rounded sum shows in the trace.
    rng = np.random.default_rng(12)
    fan_in, cell, steps = 2 * FLOAT32_EXACT_COLUMNS + 1, 3, FORWARD_CHUNK + 3
    signs = np.where(rng.random((4, cell, fan_in)) < 0.9, 1.0, -1.0)
    gates = [
        (0.02 * signs[g], rng.uniform(-0.5, 0.5, (cell, cell)), rng.uniform(-0.1, 0.1, cell))
        for g in range(4)
    ]
    model = LstmModel((LstmLayer.from_gates(gates),))
    x = 0.02 * np.where(rng.random(steps) < 0.5, 1.0, -1.0)[:, None] * np.ones((steps, fan_in))
    qmodel = quantize_model(model)
    assert np.abs(qmodel.layers[0].fwd.codes[0]).min() == 127
    # the second length crosses a chunk boundary, so the blocks run inside chunked GEMMs
    for seq in (InputSequence(x[:6]), InputSequence(x)):
        for mode in Mode:
            got = run_quantized(qmodel, seq, mode, random_p=0.5)
            want, _ = run_quantized_reference(qmodel, seq, mode, random_p=0.5)
            assert np.array_equal(got.trace.c[0], want.trace.c[0])
            assert np.array_equal(got.trace.h[0], want.trace.h[0])
            assert np.array_equal(got.precision_bits[0], want.precision_bits[0])
            assert got.input_adjusted == want.input_adjusted


def test_neuron_eval_zero_weights_returns_biases():
    zero = (np.zeros((3, 2)), np.zeros((3, 3)), np.arange(3.0).reshape(3))
    model = LstmModel((LstmLayer.from_gates([zero, zero, zero, zero]),))
    qmodel = quantize_model(model)
    x_q = QuantizedVector.encode(np.array([0.4, -0.2]), 1.0)
    h_q = QuantizedVector.encode(np.zeros(3), 1.0)
    pre = neuron_eval(2, Precision.HIGH8, qmodel.layers[0], x_q, h_q)
    assert pre == (2.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        neuron_eval(3, Precision.HIGH8, qmodel.layers[0], x_q, h_q)


@pytest.mark.parametrize("precision", [Precision.HIGH8, Precision.LOW4])
def test_neuron_eval_matches_dequantized_reference(precision):
    rng = np.random.default_rng(5)
    model = _random_model(rng, [(4, 1)])
    qmodel = quantize_model(model)
    x = rng.uniform(-1, 1, 4)
    h = rng.uniform(-0.9, 0.9, 1)
    x_q = QuantizedVector.encode(x, float(np.max(np.abs(x))))
    h_q = QuantizedVector.encode(h, 1.0)
    pre = neuron_eval(0, precision, qmodel.layers[0], x_q, h_q)

    for got, (_, _, b), qgate in zip(pre, model.layers[0].gates(), gate_operands(qmodel.layers[0])):
        if precision is Precision.HIGH8:
            w_f = qgate.fwd8 * qgate.fwd_step8
            w_r = qgate.rec8 * qgate.rec_step8
            xd = x_q.high_values() * x_q.params8.step
            hd = h_q.high_values() * h_q.params8.step
        else:
            w_f = qgate.fwd4 * qgate.fwd_step4
            w_r = qgate.rec4 * qgate.rec_step4
            xd = x_q.low_values() * x_q.params4.step
            hd = h_q.low_values() * h_q.params4.step
        want = float(w_f[0] @ xd + w_r[0] @ hd + b[0])
        assert got == pytest.approx(want, abs=1e-9)


def test_run_quantized_matches_neuron_eval_rows(toy):
    _, qmodel, seq = toy
    result = run_quantized(qmodel, seq, Mode.STATIC8)
    layer = qmodel.layers[0]
    x = seq.steps[0]
    x_q = QuantizedVector.encode(x, float(np.max(np.abs(x))))
    h_q = QuantizedVector.encode(np.zeros(layer.cell_size), 1.0)
    from dynprec.lstm_ref import sigmoid

    for k in range(layer.cell_size):
        pre = neuron_eval(k, Precision.HIGH8, layer, x_q, h_q)
        i, f, g, o = sigmoid(pre[0]), sigmoid(pre[1]), math.tanh(pre[2]), sigmoid(pre[3])
        c = f * 0.0 + i * g
        assert result.trace.c[0][0, k] == pytest.approx(c, rel=1e-12)


def test_static8_tracks_reference_better_than_static4(toy):
    model, qmodel, seq = toy
    fp = run_fp32(model, seq)
    r8 = run_quantized(qmodel, seq, Mode.STATIC8)
    r4 = run_quantized(qmodel, seq, Mode.STATIC4)
    err8 = np.mean(np.abs(r8.trace.c[0] - fp.c[0]))
    err4 = np.mean(np.abs(r4.trace.c[0] - fp.c[0]))
    assert err8 < err4
    assert err8 < 0.05  # 8-bit stays close to the reference on this toy


def test_static_modes_use_one_precision(toy):
    _, qmodel, seq = toy
    r8 = run_quantized(qmodel, seq, Mode.STATIC8)
    r4 = run_quantized(qmodel, seq, Mode.STATIC4)
    assert np.all(r8.precision_bits[0] == 8)
    assert np.all(r4.precision_bits[0] == 4)
    assert r8.low_precision_usage == 0.0
    assert r4.low_precision_usage == 1.0


def test_dynamic_wide_thresholds_reproduces_static4(toy):
    _, qmodel, seq = toy
    cfg = PduConfig.for_sequence(len(seq), beta=math.inf)
    dyn = run_quantized(qmodel, seq, Mode.DYNAMIC, cfg)
    st4 = run_quantized(qmodel, seq, Mode.STATIC4)
    assert np.array_equal(dyn.precision_bits[0], st4.precision_bits[0])
    assert np.array_equal(dyn.trace.c[0], st4.trace.c[0])
    assert np.array_equal(dyn.trace.h[0], st4.trace.h[0])


def test_dynamic_pinned_in_peak_reproduces_static8(toy):
    _, qmodel, seq = toy
    cell = qmodel.layers[0].cell_size
    cfg = PduConfig.for_sequence(len(seq), m_max_peak=10 * len(seq))
    pinned = TrackerState.fresh(cell)
    pinned.phase[:] = Phase.IN_PEAK
    pinned.lower[:] = math.inf  # an empty band is never re-entered
    pinned.upper[:] = -math.inf
    dyn = run_quantized(qmodel, seq, Mode.DYNAMIC, cfg, trackers=[pinned])
    st8 = run_quantized(qmodel, seq, Mode.STATIC8)
    assert np.array_equal(dyn.precision_bits[0], st8.precision_bits[0])
    assert np.array_equal(dyn.trace.c[0], st8.trace.c[0])


def test_random_mode_deterministic_and_near_target_rate(toy):
    _, qmodel, seq = toy
    a = run_quantized(qmodel, seq, Mode.RANDOM, random_p=0.33, random_seed=9)
    b = run_quantized(qmodel, seq, Mode.RANDOM, random_p=0.33, random_seed=9)
    assert np.array_equal(a.precision_bits[0], b.precision_bits[0])
    assert np.array_equal(a.trace.c[0], b.trace.c[0])
    c = run_quantized(qmodel, seq, Mode.RANDOM, random_p=0.33, random_seed=10)
    assert not np.array_equal(a.precision_bits[0], c.precision_bits[0])


def test_random_mode_rate_over_many_evaluations():
    rng = np.random.default_rng(77)
    model = _random_model(rng, [(4, 32)])
    qmodel = quantize_model(model)
    seq = InputSequence(rng.uniform(-1, 1, (400, 4)))  # 12800 evaluations
    out = run_quantized(qmodel, seq, Mode.RANDOM, random_p=0.33, random_seed=3)
    assert abs(out.low_precision_usage - 0.33) <= 0.02


def test_activity_accounting(toy):
    _, qmodel, seq = toy
    layer = qmodel.layers[0]
    fan_in = layer.input_size + layer.cell_size
    out = run_quantized(qmodel, seq, Mode.RANDOM, random_p=0.5, random_seed=1)
    bits = out.precision_bits[0]
    n_low, n_high = (bits == 4).sum(axis=1), (bits == 8).sum(axis=1)
    assert np.all(n_low + n_high == layer.cell_size)
    weight_bytes, weight_nibbles = _weight_reads(qmodel, len(seq), [int(n_high.sum())])
    assert weight_nibbles == int(n_low.sum()) * len(GATES) * fan_in
    assert weight_bytes == int(n_high.sum()) * len(GATES) * fan_in
    assert 0 < n_low.sum() < bits.size


def test_dynamic_phase_trace_matches_precision_lag(toy):
    _, qmodel, seq = toy
    out = run_quantized(qmodel, seq, Mode.DYNAMIC, PduConfig.for_sequence(len(seq)))
    phases = out.phases[0]
    bits = out.precision_bits[0]
    # precision used at t+1 is 8 exactly when the tracker sat in a peak after step t
    want_next = np.where(phases == Phase.IN_PEAK, 8, 4)
    assert np.array_equal(bits[1:], want_next[:-1])
    assert np.all(bits[0] == 4)  # nothing observed before the first step


def test_fingerprints_are_stable(toy):
    model, qmodel, seq = toy
    assert qmodel.fingerprint == quantize_model(model).fingerprint
    assert sequence_fingerprint(seq) == sequence_fingerprint(seq)
    other = InputSequence(seq.steps + 1.0)
    assert sequence_fingerprint(other) != sequence_fingerprint(seq)


def _lane_sets(n_steps):
    """Every mode alone, and one set of every mode plus a second dynamic and a second random lane."""
    extra = [Lane(Mode.DYNAMIC, PduConfig.for_sequence(n_steps, beta=0.5)), Lane(Mode.RANDOM, random_seed=4)]
    return [[Lane(mode)] for mode in Mode] + [[Lane(mode) for mode in Mode] + extra]


def test_run_encodes_once_per_layer_and_keeps_no_whole_sequence_products():
    rng = np.random.default_rng(21)
    # Inputs are encoded a chunk at a time, each input row exactly once per distinct input: layer 0
    # reads the same sequence in every lane, a later layer its own lane's outputs. Each layer's own
    # h is encoded once per step, for every lane at once. _run_layer has one call site of the encoder
    # for each: the inputs' comes first in its source.
    qmodel = quantize_model(_random_model(rng, [(3, 5), (5, 4)]))
    seq = InputSequence(rng.uniform(-1, 1, (2 * FORWARD_CHUNK + 1, 3)))
    source, first = inspect.getsourcelines(lstm_quant._run_layer)
    input_site, h_site = (first + i for i, line in enumerate(source) if "dual_codes(" in line)

    def recording(values, steps):
        caller = sys._getframe(1)
        assert caller.f_code is lstm_quant._run_layer.__code__
        calls.append((caller.f_lineno, np.array(values)))
        return dual_codes(values, steps)

    for lanes in _lane_sets(len(seq)):
        calls = []
        with mock.patch.object(lstm_quant, "dual_codes", recording):
            results, _ = run_lanes(qmodel, seq, lanes)
        encoded = [values for line, values in calls if line == input_site]
        assert np.array_equal(np.concatenate([rows for rows in encoded if rows.shape[1] == 3]), seq.steps)
        outputs = [row.tobytes() for result in results for row in result.trace.h[0]]
        assert sorted(row.tobytes() for rows in encoded if rows.shape[1] == 5 for row in rows) == sorted(outputs)

        h_encoded = [values for line, values in calls if line == h_site]
        assert len(encoded) + len(h_encoded) == len(calls)
        assert len(h_encoded) == len(qmodel.layers) * len(seq)
        for L, layer_h in enumerate((h_encoded[: len(seq)], h_encoded[len(seq) :])):
            # the previous outputs of every lane: zeros first, then each step's but the last
            previous = [np.zeros_like(result.trace.h[L][0]) for result in results]
            previous += [row for result in results for row in result.trace.h[L][:-1]]
            got = sorted(column.tobytes() for values in layer_h for column in values.T)
            assert got == sorted(row.tobytes() for row in previous)

    # What the run holds beyond its results may grow with the steps only by per-lane counters: the
    # input offsets adjusted and the 8-bit elements of each step, in int64. Random lanes keep their
    # draws only as the precision flags the results hold; encoded inputs and forward products are
    # held one chunk at a time. Measured: 8 to 17 B per lane and step; random mode's whole float64
    # draws took 576 B more at 64 cells.
    input_size, cell = 1, 64
    qmodel = quantize_model(_random_model(rng, [(input_size, cell)]))
    budget = 24  # per lane and step

    def held(n_steps, lanes):
        seq = InputSequence(rng.uniform(-1, 1, (n_steps, input_size)))
        tracemalloc.start()
        try:
            results, _ = run_lanes(qmodel, seq, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [a for r in results for a in (*r.trace.c, *r.trace.h, *r.precision_bits, *(r.phases or ()))]
        return peak - sum(a.nbytes for a in arrays)

    short, long = 2 * FORWARD_CHUNK, 10 * FORWARD_CHUNK
    for lanes in _lane_sets(long):
        growth = (held(long, lanes) - held(short, lanes)) / (long - short)
        assert growth <= budget * len(lanes), ([lane.mode for lane in lanes], growth)


def test_one_stacked_product_per_forward_chunk_and_layer_step():
    # Both precisions share each product: a forward chunk makes one call, as does each layer-step,
    # whatever precisions its lanes pick.
    rng = np.random.default_rng(22)
    qmodel = quantize_model(_random_model(rng, [(3, 5), (5, 4)]))
    seq = InputSequence(rng.uniform(-1, 1, (2 * FORWARD_CHUNK + 1, 3)))
    product = lstm_quant.exact_index_products

    def counting(w, v):
        assert len(w) == len(v) == 2, (w.shape, v.shape)
        calls.append(w.shape)
        return product(w, v)

    for lanes in _lane_sets(len(seq)):
        calls = []
        with mock.patch.object(lstm_quant, "exact_index_products", counting):
            run_lanes(qmodel, seq, lanes)
        # layer 0 reads one shared input, a later layer each lane's own: about FORWARD_CHUNK columns a chunk
        spans = [FORWARD_CHUNK, max(1, FORWARD_CHUNK // len(lanes))]
        expected = sum(len(seq) + math.ceil(len(seq) / span) for span in spans)
        assert len(calls) == expected, ([lane.mode for lane in lanes], len(calls), expected)


def test_run_rejects_wrong_width(toy):
    _, qmodel, _ = toy
    with pytest.raises(ValueError):
        run_quantized(qmodel, InputSequence(np.zeros((5, 3))), Mode.STATIC8)


def test_multilayer_quantized_run():
    rng = np.random.default_rng(21)
    model = _random_model(rng, [(4, 6), (6, 5)])
    qmodel = quantize_model(model)
    seq = InputSequence(rng.uniform(-1, 1, (30, 4)))
    fp = run_fp32(model, seq)
    out = run_quantized(qmodel, seq, Mode.STATIC8)
    assert out.trace.n_layers == 2
    for L in range(2):
        assert out.trace.c[L].shape == fp.c[L].shape
        assert np.mean(np.abs(out.trace.c[L] - fp.c[L])) < 0.1
    assert sum(bits.shape[1] for bits in out.precision_bits) == 6 + 5
    fan_ins = (4 + 6, 6 + 5)
    assert all(np.all(bits == 8) for bits in out.precision_bits)
    n_high = [np.count_nonzero(bits == 8) for bits in out.precision_bits]
    want = sum(len(GATES) * fan_in * bits.size for bits, fan_in in zip(out.precision_bits, fan_ins, strict=True))
    assert _weight_reads(qmodel, len(seq), n_high) == (want, 0)


@pytest.mark.parametrize("random_p", [math.nan, 1.5, -0.5, math.inf])
def test_random_p_outside_unit_interval_is_rejected(toy, random_p):
    _, qmodel, seq = toy
    for mode in Mode:
        with pytest.raises(ValueError, match=r"random_p must be in \[0, 1\]"):
            Lane(mode, random_p=random_p)
        with pytest.raises(ValueError, match="random_p"):
            run_quantized(qmodel, seq, mode, random_p=random_p)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(3)])
def test_seed_that_is_not_a_non_negative_int_is_rejected(toy, seed):
    # checked when the lane or point is built: numpy's generator would reject -1 and 1.5 only after the
    # reference ran, and take True and np.int64(3), which a report then renders as true or cannot render
    _, qmodel, seq = toy
    for mode in Mode:
        with pytest.raises(ValueError, match="random_seed must be an integer >= 0"):
            Lane(mode, random_seed=seed)
        with pytest.raises(ValueError, match="random_seed"):
            run_quantized(qmodel, seq, mode, random_seed=seed)
    with pytest.raises(ValueError, match="random_seed"):
        Point(seed=seed)


def test_dynamic_rejects_mismatched_tracker_states(toy):
    _, qmodel, seq = toy
    cell = qmodel.layers[0].cell_size
    with pytest.raises(ValueError):
        run_quantized(qmodel, seq, Mode.DYNAMIC, trackers=[TrackerState.fresh(cell + 1)])
    with pytest.raises(ValueError):
        run_quantized(qmodel, seq, Mode.DYNAMIC, trackers=[])


def _state_bytes(states):
    """Every array of every state in ``states``, as bytes: unchanged exactly when nothing was written."""
    return [a.tobytes() for state in states or () for a in vars(state).values()]


def _pinned_states(rng, qmodel):
    """Trackers that start mid-sequence: mixed phases, bands and counters."""
    states = []
    for layer in qmodel.layers:
        n = layer.cell_size
        state = TrackerState.fresh(n)
        state.phase[:] = rng.integers(0, 3, n)
        band = np.sort(rng.uniform(-0.6, 0.6, (n, 2)), axis=1)
        placed = state.phase != Phase.PROFILING
        state.lower[placed], state.upper[placed] = band[placed, 0], band[placed, 1]
        state.steps_in_phase[:] = rng.integers(0, 3, n)
        states.append(state)
    return states


def _draw_model_and_sequence(draw):
    model, seq, rng = _draw_float_model_and_sequence(draw)
    return quantize_model(model), seq, rng


def _draw_float_model_and_sequence(draw):
    n_layers = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 9), min_size=n_layers + 1, max_size=n_layers + 1))
    # short runs, and runs that end just before, on and after a chunk boundary
    n_steps = draw(st.one_of(
        st.integers(1, 24),
        st.sampled_from((FORWARD_CHUNK - 1, FORWARD_CHUNK, FORWARD_CHUNK + 1, 2 * FORWARD_CHUNK + 1)),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    saturating = draw(st.booleans())  # large weights and inputs drive |h| to the clamp
    scale = 4.0 if saturating else 0.5
    model = _random_model(rng, list(zip(sizes[:-1], sizes[1:])), scale=scale)
    steps = rng.uniform(-1, 1, (n_steps, sizes[0])) * (5.0 if saturating else 1.0)
    steps[rng.random(n_steps) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0  # alpha falls back to 1
    return model, InputSequence(steps), rng


def _draw_config(draw):
    limit = st.one_of(st.integers(1, 4), st.just(10**20))  # past int64: never reached
    return PduConfig(
        t_profile=draw(limit),
        m_max_peak=draw(limit),
        n_max_stable=draw(limit),
        beta=draw(st.one_of(st.sampled_from((0.0, 0.1, math.inf)), st.floats(0.0, 2.0))),
    )


@st.composite
def _differential_cases(draw):
    qmodel, seq, rng = _draw_model_and_sequence(draw)
    mode = draw(st.sampled_from(list(Mode)))
    config = _draw_config(draw)
    kwargs = {"random_p": draw(st.sampled_from((0.0, 0.33, 1.0))), "random_seed": draw(st.integers(0, 99))}
    trackers = _pinned_states(rng, qmodel) if mode is Mode.DYNAMIC and draw(st.booleans()) else None
    return qmodel, seq, mode, config, kwargs, trackers


@given(_differential_cases())
@settings(max_examples=200, deadline=None)
def test_run_quantized_matches_step_major_oracle(case):
    qmodel, seq, mode, config, kwargs, trackers = case
    start = _state_bytes(trackers)
    got = run_quantized(qmodel, seq, mode, config, trackers=trackers, **kwargs)
    want, _ = run_quantized_reference(qmodel, seq, mode, config, trackers=trackers, **kwargs)
    for L in range(len(qmodel.layers)):
        assert np.array_equal(got.trace.c[L], want.trace.c[L])
        assert np.array_equal(got.trace.h[L], want.trace.h[L])
        assert np.array_equal(np.signbit(got.trace.h[L]), np.signbit(want.trace.h[L]))  # array_equal misses -0.0
        assert np.array_equal(got.precision_bits[L], want.precision_bits[L])
        assert got.precision_bits[L].dtype == want.precision_bits[L].dtype
    if mode is Mode.DYNAMIC:
        assert all(np.array_equal(a, b) for a, b in zip(got.phases, want.phases, strict=True))
    else:
        assert got.phases is None and want.phases is None
    assert got.input_adjusted == want.input_adjusted
    assert all(type(v) is int for v in got.input_adjusted)
    assert _state_bytes(trackers) == start  # pinned trackers are a starting state, for both runs


@st.composite
def _lane_cases(draw):
    qmodel, seq, rng = _draw_model_and_sequence(draw)
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        mode = draw(st.sampled_from(list(Mode)))
        pinned = mode is Mode.DYNAMIC and draw(st.booleans())
        lanes.append(Lane(
            mode,
            _draw_config(draw) if draw(st.booleans()) else None,
            random_p=draw(st.one_of(st.sampled_from((0.0, 0.33, 1.0)), st.floats(0.0, 1.0))),
            random_seed=draw(st.integers(0, 3)),
            trackers=tuple(_pinned_states(rng, qmodel)) if pinned else None,
        ))
    return qmodel, seq, lanes, draw(st.booleans())


@given(_lane_cases())
@settings(max_examples=150, deadline=None)
def test_lane_runs_match_their_runs_alone(case):
    # every lane of a pass, whatever else runs beside it, is bit for bit its one-lane run
    qmodel, seq, lanes, keep_h = case
    start = [_state_bytes(lane.trackers) for lane in lanes]
    got, _ = run_lanes(qmodel, seq, lanes, keep_h=keep_h)
    for lane, result in zip(lanes, got, strict=True):
        want = run_quantized(
            qmodel, seq, lane.mode, lane.pdu_config, random_p=lane.random_p, random_seed=lane.random_seed,
            trackers=lane.trackers,
        )
        assert result.mode is want.mode
        for L in range(len(qmodel.layers)):
            assert np.array_equal(result.trace.c[L], want.trace.c[L])
            assert np.array_equal(result.precision_bits[L], want.precision_bits[L])
            assert result.precision_bits[L].dtype == want.precision_bits[L].dtype
            if keep_h:
                assert np.array_equal(result.trace.h[L], want.trace.h[L])
                assert np.array_equal(np.signbit(result.trace.h[L]), np.signbit(want.trace.h[L]))
        assert keep_h or result.trace.h == ()
        if lane.mode is Mode.DYNAMIC:
            assert all(np.array_equal(a, b) for a, b in zip(result.phases, want.phases, strict=True))
        else:
            assert result.phases is None
        assert result.input_adjusted == want.input_adjusted
    assert [_state_bytes(lane.trackers) for lane in lanes] == start


@st.composite
def _reference_cases(draw):
    model, seq, rng = _draw_float_model_and_sequence(draw)
    qmodel = quantize_model(model)
    lanes = draw(st.sampled_from(_lane_sets(len(seq))))  # every mode alone, so some sets have no dynamic lane
    lanes = [
        dataclasses.replace(lane, trackers=tuple(_pinned_states(rng, qmodel))) if lane.mode is Mode.DYNAMIC else lane
        for lane in lanes
    ]
    configs = [
        dataclasses.replace(_draw_config(draw), beta=draw(st.sampled_from((0.0, math.inf))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return qmodel, seq, lanes, run_fp32(model, seq), configs


@given(_reference_cases())
@settings(max_examples=80, deadline=None)
def test_reference_trackers_in_the_lane_pass_match_classify_trace(case):
    # the reference's trackers ride the lane pass as extra rows: their phases are classify_trace's,
    # and every lane's result is what the pass gives without them
    qmodel, seq, lanes, fp, configs = case
    start = [_state_bytes(lane.trackers) for lane in lanes]
    got, phases = run_lanes(qmodel, seq, lanes, reference=(fp.c, configs))
    want, _ = run_lanes(qmodel, seq, lanes)
    expected = classify_trace(fp.c, configs)
    assert len(phases) == len(expected) == len(configs)
    for mine, theirs in zip(phases, expected):
        assert len(mine) == len(theirs) == len(qmodel.layers)
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    for result, other in zip(got, want, strict=True):
        assert result.mode is other.mode
        for L in range(len(qmodel.layers)):
            assert np.array_equal(result.trace.c[L], other.trace.c[L])
            assert np.array_equal(result.trace.h[L], other.trace.h[L])
            assert np.array_equal(result.precision_bits[L], other.precision_bits[L])
        assert (result.phases is None) == (other.phases is None)
        assert all(np.array_equal(a, b) for a, b in zip(result.phases or (), other.phases or (), strict=True))
        assert result.input_adjusted == other.input_adjusted
    assert [_state_bytes(lane.trackers) for lane in lanes] == start


def _shared_fresh_trackers_case():
    # two dynamic lanes start from one fresh tuple; a pass that wrote end states back would leave the
    # tuple at whichever lane was written last
    model, seq = gen_toy("peaky", (1, 4, 8, 200), 3)
    shared = (TrackerState.fresh(8),)
    lanes = [Lane(Mode.DYNAMIC, PduConfig.for_sequence(len(seq), beta=beta), trackers=shared) for beta in (0.05, 0.4)]
    return quantize_model(model), seq, lanes, run_fp32(model, seq), [PduConfig.for_sequence(len(seq))]


@st.composite
def _shared_pinned_cases(draw):
    model, seq, rng = _draw_float_model_and_sequence(draw)
    qmodel = quantize_model(model)
    shared = tuple(_pinned_states(rng, qmodel))
    lanes = [Lane(Mode.DYNAMIC, _draw_config(draw), trackers=shared) for _ in range(2)]
    for _ in range(draw(st.integers(0, 3))):
        mode = draw(st.sampled_from(list(Mode)))
        own = mode is Mode.DYNAMIC and draw(st.booleans())
        lanes.append(Lane(mode, trackers=tuple(_pinned_states(rng, qmodel)) if own else None))
    configs = [_draw_config(draw) for _ in range(draw(st.integers(0, 2)))]
    return qmodel, seq, draw(st.permutations(lanes)), run_fp32(model, seq), configs


@given(_shared_pinned_cases())
@example(_shared_fresh_trackers_case())
@settings(max_examples=60, deadline=None)
def test_lane_pass_writes_into_no_pinned_tracker_or_reference_trace(case):
    # pinned trackers are each layer's starting state, also when two lanes share one tuple:
    # every array of every state and each reference trace reads the same bytes after the pass,
    # and each lane runs as it would alone from that state
    qmodel, seq, lanes, fp, configs = case
    states = [lane.trackers for lane in lanes if lane.trackers is not None]
    start = [_state_bytes(trackers) for trackers in states]
    traces = [c.tobytes() for c in fp.c]
    got, _ = run_lanes(qmodel, seq, lanes, reference=(fp.c, configs))
    assert [_state_bytes(trackers) for trackers in states] == start
    assert [c.tobytes() for c in fp.c] == traces
    for lane, result in zip(lanes, got, strict=True):
        if lane.mode is Mode.DYNAMIC:
            alone = run_quantized(qmodel, seq, lane.mode, lane.pdu_config, trackers=lane.trackers)
            assert all(np.array_equal(a, b) for a, b in zip(result.phases, alone.phases, strict=True))
            assert all(np.array_equal(a, b) for a, b in zip(result.trace.c, alone.trace.c, strict=True))


def test_reference_traces_must_match_the_run():
    rng = np.random.default_rng(23)
    model = _random_model(rng, [(3, 4), (4, 2)])
    seq = InputSequence(rng.uniform(-1, 1, (6, 3)))
    qmodel, fp = quantize_model(model), run_fp32(model, seq)
    configs = [PduConfig(2, 2, 2)]
    for traces in (fp.c[:1], (fp.c[0], fp.c[1][:-1]), (fp.c[0], fp.c[0])):
        with pytest.raises(ValueError, match="reference traces"):
            run_lanes(qmodel, seq, [Lane(Mode.STATIC8)], reference=(traces, configs))
    with pytest.raises(ValueError, match="needs a lane"):
        run_lanes(qmodel, seq, [], reference=(fp.c, configs))


def lane_pass_digest() -> str:
    """SHA-256 of every quantized field a lane pass yields, over toys that take every product path.

    One lane per mode plus a second dynamic lane; per lane, its ``c`` and ``h`` traces, precision
    bits, phases, input offsets adjusted and ``cost_run``'s total cycles. The last toy's fan-in
    exceeds ``FLOAT32_EXACT_COLUMNS``, so its forward products run in two column blocks.
    """
    digest = hashlib.sha256()
    for kind, dims in [("random", (2, 64, 256, 120)), ("peaky", (1, 16, 16, 400)), ("random", (1, 1100, 8, 30))]:
        model, seq = gen_toy(kind, dims, 5)
        qmodel = quantize_model(model)
        lanes = [Lane(mode) for mode in Mode] + [Lane(Mode.DYNAMIC, PduConfig.for_sequence(len(seq), beta=0.5))]
        results, _ = run_lanes(qmodel, seq, lanes)
        for run in results:
            for a in (*run.trace.c, *run.trace.h, *run.precision_bits, *(run.phases or ())):
                digest.update(a.tobytes())
            cycles = cost_run(qmodel, seq, run, AccelConfig(), EnergyModel()).total_cycles
            digest.update(repr((run.input_adjusted, cycles)).encode())
    return digest.hexdigest()


_PORTABLE_CHILD = "from test_lstm_quant import lane_pass_digest; print(lane_pass_digest())"


@pytest.mark.parametrize(
    "setting",
    [
        ("OPENBLAS_CORETYPE", "Sandybridge"),
        pytest.param(
            ("OPENBLAS_CORETYPE", "Haswell"),
            marks=pytest.mark.skipif(not _cpu_has("AVX2"), reason="the Haswell kernels need AVX2"),
        ),
        ("OPENBLAS_NUM_THREADS", "1"),
    ],
    ids=lambda setting: "=".join(setting),
)
def test_quantized_runs_and_their_cycles_are_the_same_on_every_blas_kernel(setting):
    # The quantized products are exact integer sums in float32 BLAS, so whichever kernel runs them
    # the lane pass yields the same bits. Only BLAS varies here: lowering numpy's SIMD level (e.g.
    # NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4") changes the bits of np.exp and np.tanh,
    # and so the cell states. A ulp-level change of c could in principle move an h code or a tracker
    # band crossing, so this measures that the decisions are portable; it cannot prove it. The
    # variable is set in the child's environment alone.
    var, value = setting
    pythonpath = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    env = {**os.environ, var: value, "OPENBLAS_VERBOSE": "2", "PYTHONPATH": pythonpath}
    child = subprocess.run(
        [sys.executable, "-c", _PORTABLE_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[-1] == lane_pass_digest()
    if var == "OPENBLAS_CORETYPE" and "Core:" in child.stdout + child.stderr:  # OpenBLAS says which kernel it picked
        assert f"Core: {value}" in child.stdout + child.stderr
