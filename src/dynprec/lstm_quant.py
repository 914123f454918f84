"""Quantized LSTM evaluation with a per-element precision choice each step.

Weight matrices are packed offline as dual-precision codes; the input
vector and the previous output are packed the same way once per step.
The four gate neurons feeding one cell-state element always share that
element's precision. Matrix-vector work runs on integer indices and is
rescaled to reals; the element-wise cell update and the activations stay
in full precision. Alongside the numeric traces the run counts the
events (fetches, bit operations, scalar-unit operations, tracker
updates) that the accelerator model converts to energy.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lstm_ref import InputSequence, LstmModel, StateTrace, sigmoid
from .pdu import PduConfig, Phase, Precision, TrackerState, pdu_observe
from .quant import QuantParams, QuantizedVector, dot_int, encode_dual_arrays, rescale

# Relative-error denominators are floored to avoid dividing by a near-zero cell state.
EPS_DENOM = 1e-3

# Scalar-unit work per element and step: four gate activations plus the cell
# update, output and requantization chain.
MU_MULS_PER_ELEMENT = 12
MU_ADDS_PER_ELEMENT = 9
MU_EXPS_PER_ELEMENT = 5

GATES_PER_ELEMENT = 4


class Mode(enum.Enum):
    STATIC8 = "static8"
    STATIC4 = "static4"
    DYNAMIC = "dynamic"
    RANDOM = "random"


@dataclass(frozen=True, eq=False)
class QuantizedMatrix:
    """A weight matrix stored once as packed dual-precision codes."""

    negatives: np.ndarray
    magnitudes7: np.ndarray
    offset_bits: np.ndarray
    params8: QuantParams
    params4: QuantParams
    high: np.ndarray = field(init=False)
    low: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.negatives.ndim != 2:
            raise ValueError("QuantizedMatrix holds 2-D data")
        magnitudes = self.magnitudes7.astype(np.int64)
        object.__setattr__(self, "high", np.where(self.negatives, -magnitudes, magnitudes))
        low_mag = (magnitudes >> 4) + self.offset_bits
        object.__setattr__(self, "low", np.where(self.negatives, -low_mag, low_mag))

    @classmethod
    def encode(cls, values: np.ndarray, alpha: float) -> "QuantizedMatrix":
        negatives, magnitudes7, offsets = encode_dual_arrays(values, alpha)
        return cls(negatives, magnitudes7, offsets, QuantParams(alpha, 8), QuantParams(alpha, 4))


@dataclass(frozen=True, eq=False)
class QuantizedGate:
    fwd: QuantizedMatrix
    rec: QuantizedMatrix
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    input_gate: QuantizedGate
    forget_gate: QuantizedGate
    updater_gate: QuantizedGate
    output_gate: QuantizedGate
    cell_size: int
    input_size: int

    def gates(self) -> tuple[QuantizedGate, QuantizedGate, QuantizedGate, QuantizedGate]:
        return (self.input_gate, self.forget_gate, self.updater_gate, self.output_gate)


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    layers: tuple[QuantizedLayer, ...]
    fingerprint: str


def _max_abs_alpha(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return peak if peak > 0.0 else 1.0  # all-zero tensors quantize to zero indices


def quantize_model(model: LstmModel) -> QuantizedModel:
    """Pack every gate matrix with its own max-abs alpha, one per connection type."""
    digest = hashlib.sha256()
    layers = []
    for layer in model.layers:
        gates = []
        for gate in layer.gates():
            fwd = QuantizedMatrix.encode(gate.w_x, _max_abs_alpha(gate.w_x))
            rec = QuantizedMatrix.encode(gate.w_h, _max_abs_alpha(gate.w_h))
            bias = gate.b.copy()
            for m in (fwd, rec):
                digest.update(m.magnitudes7.tobytes())
                digest.update(np.packbits(m.negatives).tobytes())
                digest.update(np.packbits(m.offset_bits).tobytes())
                digest.update(np.float64(m.params8.alpha).tobytes())
            digest.update(bias.tobytes())
            gates.append(QuantizedGate(fwd, rec, bias))
        layers.append(QuantizedLayer(*gates, cell_size=layer.cell_size, input_size=layer.input_size))
    return QuantizedModel(tuple(layers), digest.hexdigest())


def sequence_fingerprint(seq: InputSequence) -> str:
    digest = hashlib.sha256(np.asarray(seq.steps, dtype=np.float64).tobytes())
    return digest.hexdigest()


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


@dataclass(frozen=True, eq=False)
class QuantRunResult:
    trace: StateTrace
    precision_bits: tuple[np.ndarray, ...]  # per layer, [steps, cell]; bits used that step
    phases: tuple[np.ndarray, ...] | None  # per layer, tracker phase after each step (dynamic only)
    activity: tuple[StepActivity, ...]
    mode: Mode

    @property
    def low_precision_usage(self) -> float:
        low = sum(a.neurons_low for a in self.activity)
        total = low + sum(a.neurons_high for a in self.activity)
        return low / total if total else 0.0


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
    for gate in layer.gates():
        if precision is Precision.HIGH8:
            zf = dot_int(gate.fwd.high[k], x_t_q.high_values())
            zr = dot_int(gate.rec.high[k], h_prev_q.high_values())
            fwd = rescale(zf, gate.fwd.params8.step, x_t_q.params8.step)
            recv = rescale(zr, gate.rec.params8.step, h_prev_q.params8.step)
        else:
            zf = dot_int(gate.fwd.low[k], x_t_q.low_values())
            zr = dot_int(gate.rec.low[k], h_prev_q.low_values())
            fwd = rescale(zf, gate.fwd.params4.step, x_t_q.params4.step)
            recv = rescale(zr, gate.rec.params4.step, h_prev_q.params4.step)
        outs.append(fwd + recv + float(gate.bias[k]))
    return tuple(outs)  # type: ignore[return-value]


def _gate_pre_activations(
    gate: QuantizedGate,
    x8: np.ndarray,
    x4: np.ndarray,
    h8: np.ndarray,
    h4: np.ndarray,
    x_q: QuantizedVector,
    h_q: QuantizedVector,
    high: np.ndarray,
) -> np.ndarray:
    fwd8 = (gate.fwd.high @ x8) * (gate.fwd.params8.step * x_q.params8.step)
    fwd4 = (gate.fwd.low @ x4) * (gate.fwd.params4.step * x_q.params4.step)
    rec8 = (gate.rec.high @ h8) * (gate.rec.params8.step * h_q.params8.step)
    rec4 = (gate.rec.low @ h4) * (gate.rec.params4.step * h_q.params4.step)
    fwd = np.where(high, fwd8, fwd4)
    rec = np.where(high, rec8, rec4)
    return fwd + rec + gate.bias


def run_quantized(
    qmodel: QuantizedModel,
    seq: InputSequence,
    mode: Mode,
    pdu_config: PduConfig | None = None,
    *,
    random_p: float = 0.33,
    random_seed: int = 0,
    trackers: list[TrackerState] | None = None,
) -> QuantRunResult:
    """Evaluate the network, one precision decision per cell element per step.

    Dynamic mode feeds each layer's freshly computed cell state to its
    trackers (one ``TrackerState`` per layer) and runs an element at 8 bits
    on the next step exactly when its tracker is in a peak. Random mode
    picks 4 bits with probability ``random_p`` from a seeded generator.
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

            pre = [
                _gate_pre_activations(gate, x8, x4, h8, h4, x_q, h_q, high)
                for gate in layer.gates()
            ]
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
            weights_per_element = GATES_PER_ELEMENT * fan_in
            act.weight_bytes += n_high * weights_per_element
            act.weight_nibbles += n_low * weights_per_element
            act.input_elems += fan_in
            if n_low:
                act.input_adjusted += x_q.offset_count() + h_q.offset_count()
            act.sip_bit_ops += weights_per_element * (n_high * 8 + n_low * 4)
            act.mu_adds += MU_ADDS_PER_ELEMENT * layer.cell_size
            act.mu_muls += MU_MULS_PER_ELEMENT * layer.cell_size
            act.mu_exps += MU_EXPS_PER_ELEMENT * layer.cell_size
            act.neurons_low += n_low
            act.neurons_high += n_high

            if mode is Mode.DYNAMIC:
                pdu_observe(trackers[L], pdu_config, c[L])
                phase_hist[L][t] = trackers[L].phase
                act.pdu_updates += layer.cell_size

            x = h[L]
        activity.append(act)

    trace = StateTrace(
        c=tuple(np.stack(rows) for rows in c_hist),
        h=tuple(np.stack(rows) for rows in h_hist),
    )
    return QuantRunResult(
        trace=trace,
        precision_bits=tuple(bits_hist),
        phases=tuple(phase_hist) if phase_hist is not None else None,
        activity=tuple(activity),
        mode=mode,
    )


def peak_flags_from_phases(phases: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    return tuple(p == Phase.IN_PEAK for p in phases)


def relative_error_stats(
    fp_trace: StateTrace,
    q_trace: StateTrace,
    peak_flags: Sequence[np.ndarray],
) -> tuple[float | None, float | None]:
    """Mean relative cell-state error inside and outside the flagged peak steps."""
    if fp_trace.n_layers != q_trace.n_layers or len(peak_flags) != fp_trace.n_layers:
        raise ValueError("traces and flags must cover the same layers")
    peak_vals: list[np.ndarray] = []
    stable_vals: list[np.ndarray] = []
    for fp, q, flags in zip(fp_trace.c, q_trace.c, peak_flags):
        if fp.shape != q.shape or fp.shape != flags.shape:
            raise ValueError(f"misaligned traces: {fp.shape} vs {q.shape} vs {flags.shape}")
        rel = np.abs(q - fp) / np.maximum(np.abs(fp), EPS_DENOM)
        peak_vals.append(rel[flags])
        stable_vals.append(rel[~flags])
    peak = np.concatenate(peak_vals)
    stable = np.concatenate(stable_vals)
    return (
        float(peak.mean()) if peak.size else None,
        float(stable.mean()) if stable.size else None,
    )
