"""Scalar and step-major references for ``dynprec.quant`` and ``dynprec.lstm_quant``.

``QIndex``, ``quantize``, ``dequantize``, ``DualIndex``, ``encode_dual``,
``extract_high`` and ``extract_low`` are the scalar specification of the
quantizer and of the packed dual-precision code; ``quantize_array`` is the
vectorized form of ``quantize``. ``neuron_eval`` evaluates one cell
element's four gate neurons with the Python-integer ``dot_int`` and
``rescale``: the per-neuron specification of the quantized arithmetic.
``run_quantized_reference`` is the step-major run: at every step it walks
the layers in order, encodes each layer's input and previous output as
``QuantizedVector`` codes and evaluates each gate with its own int64
matrix-vector products at both precisions. Both read each gate as its row
block of the layer's fused operands (``gate_operands``). The layer-major,
fused float32 run must reproduce the step-major run bit for bit.

The reference also counts every accelerator event step by step, as one
``StepActivity`` record per step summed over layers, and sums each layer's
input offsets adjusted into the run's ``input_adjusted``;
``accel_oracle.energy_reference`` costs the per-step records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from dynprec.accel import MU_ADDS_PER_ELEMENT, MU_EXPS_PER_ELEMENT, MU_MULS_PER_ELEMENT
from dynprec.lstm_quant import (
    DEFAULT_RANDOM_P,
    Mode,
    QuantizedLayer,
    QuantizedModel,
    QuantRunResult,
)
from dynprec.lstm_ref import GATES, InputSequence, StateTrace, sigmoid
from dynprec.pdu import PduConfig, TrackerState
from dynprec.quant import QuantizedVector, QuantParams, _check_bits, magnitude_limit
from pdu_oracle import Precision, observe


@dataclass(frozen=True)
class QIndex:
    """A clamped signed quantization index."""

    value: int
    bits: int

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        limit = magnitude_limit(self.bits)
        if abs(self.value) > limit:
            raise ValueError(f"index {self.value} outside +/-{limit} for {self.bits} bits")


def quantize(y: float, params: QuantParams) -> QIndex:
    """Round ``y`` to the nearest index, half away from zero, clamped symmetrically."""
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"cannot quantize non-finite value {y!r}")
    limit = magnitude_limit(params.bits)
    ratio = abs(y) / params.step
    if ratio >= limit:
        magnitude = limit
    else:
        magnitude = int(math.floor(ratio + 0.5))
    return QIndex(-magnitude if y < 0 else magnitude, params.bits)


def dequantize(index: QIndex, params: QuantParams) -> float:
    if index.bits != params.bits:
        raise ValueError(f"index is {index.bits}-bit but params are {params.bits}-bit")
    return index.value * params.step


@dataclass(frozen=True)
class DualIndex:
    """One byte plus an offset bit encoding both the 8- and 4-bit index of a value.

    ``magnitude7`` is the 8-bit index magnitude; its high nibble, plus the
    offset bit, is the 4-bit index magnitude. One sign bit serves both.
    """

    negative: bool
    magnitude7: int
    offset_bit: bool

    def __post_init__(self) -> None:
        if not 0 <= self.magnitude7 <= 127:
            raise ValueError(f"magnitude7 must be in [0, 127], got {self.magnitude7}")
        if (self.magnitude7 >> 4) + int(self.offset_bit) > 7:
            raise ValueError("decoded 4-bit magnitude exceeds 7")


def encode_dual(y: float, alpha: float) -> DualIndex:
    """Quantize ``y`` at 8 and 4 bits and pack both indices into one code."""
    params8 = QuantParams(alpha, 8)
    params4 = QuantParams(alpha, 4)
    i8 = quantize(y, params8)
    i4 = quantize(y, params4)
    magnitude7 = abs(i8.value)
    offset = abs(i4.value) - (magnitude7 >> 4)
    assert offset in (0, 1), "4-bit index deviates from the high nibble by more than one"
    return DualIndex(negative=i8.value < 0, magnitude7=magnitude7, offset_bit=bool(offset))


def extract_low(d: DualIndex) -> QIndex:
    magnitude = (d.magnitude7 >> 4) + int(d.offset_bit)
    return QIndex(-magnitude if d.negative else magnitude, 4)


def extract_high(d: DualIndex) -> QIndex:
    return QIndex(-d.magnitude7 if d.negative else d.magnitude7, 8)


def vector_elements(qv: QuantizedVector) -> tuple[DualIndex, ...]:
    """Each element of a packed vector as a scalar ``DualIndex``."""
    return tuple(
        DualIndex(bool(n), int(m), bool(o)) for n, m, o in zip(qv.negatives, qv.magnitudes7, qv.offset_bits)
    )


def quantize_array(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Vectorized :func:`quantize`; returns an int64 array of the same shape."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("cannot quantize non-finite values")
    magnitudes = np.floor(np.abs(arr) / params.step + 0.5)
    magnitudes = np.minimum(magnitudes, magnitude_limit(params.bits)).astype(np.int64)
    return np.where(arr < 0, -magnitudes, magnitudes)


def _index_values(seq: Sequence[QIndex | int] | np.ndarray) -> list[int]:
    return [v.value if isinstance(v, QIndex) else int(v) for v in seq]


def dot_int(w: Sequence[QIndex | int] | np.ndarray, x: Sequence[QIndex | int] | np.ndarray) -> int:
    """Exact integer inner product of two index sequences."""
    wv = _index_values(w)
    xv = _index_values(x)
    if len(wv) != len(xv):
        raise ValueError(f"length mismatch: {len(wv)} vs {len(xv)}")
    total = 0
    for a, b in zip(wv, xv):
        total += a * b
    return total


def rescale(z_int: int, qw: float, qx: float) -> float:
    """Convert an integer inner product back to a real using both operand steps."""
    qw = float(qw)
    qx = float(qx)
    if not (math.isfinite(qw) and qw > 0.0) or not (math.isfinite(qx) and qx > 0.0):
        raise ValueError("quantization steps must be positive and finite")
    return z_int * (qw * qx)


def _max_abs_alpha(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return peak if peak > 0.0 else 1.0


class GateOperands(NamedTuple):
    """One gate's rows of a layer's fused operands: int64 indices and scalar steps."""

    fwd8: np.ndarray
    fwd4: np.ndarray
    rec8: np.ndarray
    rec4: np.ndarray
    fwd_step8: float
    fwd_step4: float
    rec_step8: float
    rec_step4: float
    bias: np.ndarray


def gate_operands(layer: QuantizedLayer) -> tuple[GateOperands, ...]:
    """Gate ``g`` is the row block ``g*H:(g+1)*H`` of each fused operand's codes at each precision, cast to int64."""
    n = layer.cell_size
    gates = []
    for g in range(len(GATES)):
        rows = slice(g * n, (g + 1) * n)
        fwd8, fwd4 = layer.fwd.codes[:, rows].astype(np.int64)
        rec8, rec4 = layer.rec.codes[:, rows].astype(np.int64)
        fwd_step8, fwd_step4 = (float(step) for step in layer.fwd.steps[:, g * n])
        rec_step8, rec_step4 = (float(step) for step in layer.rec.steps[:, g * n])
        gates.append(GateOperands(fwd8, fwd4, rec8, rec4, fwd_step8, fwd_step4, rec_step8, rec_step4, layer.bias[rows]))
    return tuple(gates)


def neuron_eval(
    k: int,
    precision: Precision,
    layer: QuantizedLayer,
    x_t_q: QuantizedVector,
    h_prev_q: QuantizedVector,
) -> tuple[float, float, float, float]:
    """Pre-activations of element ``k``'s four gate neurons, all at one precision."""
    if not 0 <= k < layer.cell_size:
        raise ValueError(f"element index {k} out of range for cell size {layer.cell_size}")
    outs = []
    for gate in gate_operands(layer):
        if precision is Precision.HIGH8:
            zf = dot_int(gate.fwd8[k], x_t_q.high_values())
            zr = dot_int(gate.rec8[k], h_prev_q.high_values())
            fwd = rescale(zf, gate.fwd_step8, x_t_q.params8.step)
            recv = rescale(zr, gate.rec_step8, h_prev_q.params8.step)
        else:
            zf = dot_int(gate.fwd4[k], x_t_q.low_values())
            zr = dot_int(gate.rec4[k], h_prev_q.low_values())
            fwd = rescale(zf, gate.fwd_step4, x_t_q.params4.step)
            recv = rescale(zr, gate.rec_step4, h_prev_q.params4.step)
        outs.append(fwd + recv + float(gate.bias[k]))
    return tuple(outs)  # type: ignore[return-value]


def gate_pre_activations(
    gate: GateOperands,
    x8: np.ndarray,
    x4: np.ndarray,
    h8: np.ndarray,
    h4: np.ndarray,
    x_q: QuantizedVector,
    h_q: QuantizedVector,
    high: np.ndarray,
) -> np.ndarray:
    fwd8 = (gate.fwd8 @ x8) * (gate.fwd_step8 * x_q.params8.step)
    fwd4 = (gate.fwd4 @ x4) * (gate.fwd_step4 * x_q.params4.step)
    rec8 = (gate.rec8 @ h8) * (gate.rec_step8 * h_q.params8.step)
    rec4 = (gate.rec4 @ h4) * (gate.rec_step4 * h_q.params4.step)
    fwd = np.where(high, fwd8, fwd4)
    rec = np.where(high, rec8, rec4)
    return fwd + rec + gate.bias


@dataclass
class StepActivity:
    """Event counts for one time step, summed over layers."""

    weight_bytes: int = 0
    weight_nibbles: int = 0
    input_elems: int = 0
    input_adjusted: int = 0
    sip_bit_ops: int = 0
    mu_adds: int = 0
    mu_muls: int = 0
    mu_exps: int = 0
    pdu_updates: int = 0
    neurons_low: int = 0
    neurons_high: int = 0


def run_quantized_reference(
    qmodel: QuantizedModel,
    seq: InputSequence,
    mode: Mode,
    pdu_config: PduConfig | None = None,
    *,
    random_p: float = DEFAULT_RANDOM_P,
    random_seed: int = 0,
    trackers: list[TrackerState] | None = None,
) -> tuple[QuantRunResult, tuple[StepActivity, ...]]:
    """Step-major, per-gate int64 evaluation with the signature of ``run_quantized``.

    Returns the run, whose ``input_adjusted`` holds each layer's sum, and the
    per-step event records.
    """
    if seq.width != qmodel.layers[0].input_size:
        raise ValueError(f"sequence width {seq.width} != model input size {qmodel.layers[0].input_size}")
    n_steps = len(seq)
    layers = qmodel.layers

    if mode is Mode.DYNAMIC:
        if pdu_config is None:
            pdu_config = PduConfig.for_sequence(n_steps)
        if trackers is None:
            trackers = [TrackerState.fresh(layer.cell_size) for layer in layers]
        elif [state.phase.shape for state in trackers] != [(layer.cell_size,) for layer in layers]:
            raise ValueError("tracker states do not match the model's layer sizes")
    rng = np.random.default_rng(random_seed) if mode is Mode.RANDOM else None
    gates = [gate_operands(layer) for layer in layers]

    c = [np.zeros(layer.cell_size) for layer in layers]
    h = [np.zeros(layer.cell_size) for layer in layers]
    c_hist: list[list[np.ndarray]] = [[] for _ in layers]
    h_hist: list[list[np.ndarray]] = [[] for _ in layers]
    bits_hist = [np.empty((n_steps, layer.cell_size), dtype=np.uint8) for layer in layers]
    phase_hist = (
        [np.empty((n_steps, layer.cell_size), dtype=np.int8) for layer in layers]
        if mode is Mode.DYNAMIC
        else None
    )
    activity: list[StepActivity] = []
    input_adjusted = [0] * len(layers)

    for t in range(n_steps):
        act = StepActivity()
        x = seq.steps[t]
        for L, layer in enumerate(layers):
            x_q = QuantizedVector.encode(x, _max_abs_alpha(x))
            h_q = QuantizedVector.encode(h[L], 1.0)  # outputs live in (-1, 1)
            x8, x4 = x_q.high_values(), x_q.low_values()
            h8, h4 = h_q.high_values(), h_q.low_values()

            if mode is Mode.STATIC8:
                high = np.ones(layer.cell_size, dtype=bool)
            elif mode is Mode.STATIC4:
                high = np.zeros(layer.cell_size, dtype=bool)
            elif mode is Mode.DYNAMIC:
                high = trackers[L].high_precision()
            else:
                high = rng.random(layer.cell_size) >= random_p

            pre = [gate_pre_activations(gate, x8, x4, h8, h4, x_q, h_q, high) for gate in gates[L]]
            i_t, f_t, o_t = sigmoid(pre[0]), sigmoid(pre[1]), sigmoid(pre[3])
            g_t = np.tanh(pre[2])
            c[L] = f_t * c[L] + i_t * g_t
            h[L] = o_t * np.tanh(c[L])
            c_hist[L].append(c[L])
            h_hist[L].append(h[L])
            bits_hist[L][t] = np.where(high, 8, 4)

            n_high = int(high.sum())
            n_low = layer.cell_size - n_high
            fan_in = layer.input_size + layer.cell_size
            weights_per_element = len(GATES) * fan_in
            adjusted = x_q.offset_count() + h_q.offset_count() if n_low else 0
            act.weight_bytes += n_high * weights_per_element
            act.weight_nibbles += n_low * weights_per_element
            act.input_elems += fan_in
            act.input_adjusted += adjusted
            input_adjusted[L] += adjusted
            act.sip_bit_ops += weights_per_element * (n_high * 8 + n_low * 4)
            act.mu_adds += MU_ADDS_PER_ELEMENT * layer.cell_size
            act.mu_muls += MU_MULS_PER_ELEMENT * layer.cell_size
            act.mu_exps += MU_EXPS_PER_ELEMENT * layer.cell_size
            act.neurons_low += n_low
            act.neurons_high += n_high

            if mode is Mode.DYNAMIC:
                observe(trackers[L], pdu_config, c[L])
                phase_hist[L][t] = trackers[L].phase
                act.pdu_updates += layer.cell_size

            x = h[L]
        activity.append(act)

    trace = StateTrace(
        c=tuple(np.stack(rows) for rows in c_hist),
        h=tuple(np.stack(rows) for rows in h_hist),
    )
    result = QuantRunResult(
        trace=trace,
        precision_bits=tuple(bits_hist),
        phases=tuple(phase_hist) if phase_hist is not None else None,
        input_adjusted=tuple(input_adjusted),
        mode=mode,
    )
    return result, tuple(activity)
