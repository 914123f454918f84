"""Quantized LSTM evaluation with a per-element precision choice each step.

Each gate matrix is quantized offline at 8 and at 4 bits with its own
alpha, and a layer's four gates are stacked into one operand per
connection. The run goes layer by layer: each layer's whole input
sequence is quantized the same way in one batch, then the layer runs over
every step, quantizing only its own previous output per step. The four
gate neurons feeding one cell-state element always share that element's
precision. Matrix-vector work runs on integer indices, held exactly in
float32 so that it runs in BLAS, in column blocks whose sums stay exact
float32 integers; the block sums are added and rescaled to reals in
float64. The element-wise cell update and the activations stay in full
precision. Alongside the numeric traces the run counts the events
(fetches, bit operations, scalar-unit operations, tracker updates) that
the accelerator model converts to energy.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lstm_ref import InputSequence, LstmModel, StateTrace, sigmoid
from .pdu import PduConfig, Phase, TrackerState, pdu_observe
from .quant import dual_index_arrays, packed_bytes, quant_step

# Relative-error denominators are floored to avoid dividing by a near-zero cell state.
EPS_DENOM = 1e-3

# Scalar-unit work per element and step: four gate activations plus the cell
# update, output and requantization chain.
MU_MULS_PER_ELEMENT = 12
MU_ADDS_PER_ELEMENT = 9
MU_EXPS_PER_ELEMENT = 5

GATES_PER_ELEMENT = 4

# Outputs live in (-1, 1) and are always quantized with alpha 1.
H_STEP8, H_STEP4 = quant_step(1.0, 8), quant_step(1.0, 4)


class Mode(enum.Enum):
    STATIC8 = "static8"
    STATIC4 = "static4"
    DYNAMIC = "dynamic"
    RANDOM = "random"


def check_exact_fan_in(fan_in: int) -> None:
    """Reject a fan-in whose float64 index sums could round.

    Each term is at most 127 * 127, and float64 holds every integer below 2**53.
    """
    if 127 * 127 * fan_in >= 2**53:
        raise ValueError(f"fan-in {fan_in} is too wide for exact float64 index sums")


# Widest column block whose index sums stay exact in float32: every partial
# sum of up to this many terms of at most 127 * 127 is an integer below 2**24.
FLOAT32_EXACT_COLUMNS = (2**24 - 1) // (127 * 127)


def exact_index_products(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w @ v`` for integer-valued float32 operands, exact for any fan-in.

    Each column block is one float32 BLAS product whose sum is an exact
    integer; the block results are added in float64, which stays exact under
    ``check_exact_fan_in``. A fan-in of at most ``FLOAT32_EXACT_COLUMNS`` is
    one block, returned as float32 for the caller's float64 rescale.
    """
    total = w[:, :FLOAT32_EXACT_COLUMNS] @ v[:FLOAT32_EXACT_COLUMNS]
    for start in range(FLOAT32_EXACT_COLUMNS, w.shape[1], FLOAT32_EXACT_COLUMNS):
        stop = start + FLOAT32_EXACT_COLUMNS
        total = np.add(total, w[:, start:stop] @ v[start:stop], dtype=np.float64)
    return total


@dataclass(frozen=True, eq=False)
class FusedOperand:
    """One connection of all four gates stacked gate-major into [4H, n] rows.

    ``w8`` and ``w4`` hold the signed 8- and 4-bit indices as float32, so the
    products run in BLAS and stay exact integers (see
    ``exact_index_products``); ``step8`` and ``step4`` hold each row's weight
    step in float64.
    """

    w8: np.ndarray
    w4: np.ndarray
    step8: np.ndarray
    step4: np.ndarray

    @classmethod
    def stack(cls, gates: Sequence[tuple[np.ndarray, np.ndarray, float, float]]) -> "FusedOperand":
        """Stack each gate's (8-bit indices, 4-bit indices, step8, step4) gate-major."""
        highs, lows, steps8, steps4 = zip(*gates)
        check_exact_fan_in(highs[0].shape[1])
        rows = [high.shape[0] for high in highs]
        return cls(
            np.concatenate(highs, dtype=np.float32),
            np.concatenate(lows, dtype=np.float32),
            np.repeat(steps8, rows),
            np.repeat(steps4, rows),
        )

    def matvec(self, v8, v4, vstep8, vstep4, high: np.ndarray | None, rows_high: int) -> np.ndarray:
        """Rescaled products with a vector, row r at 8 bits where ``high[r]``, else at 4.

        ``v8`` and ``v4`` are float32 indices. ``rows_high`` counts the 8-bit
        rows; a precision no row uses is skipped. The rescale runs in float64.
        """
        if rows_high == self.w8.shape[0]:
            return exact_index_products(self.w8, v8) * (self.step8 * vstep8)
        low = exact_index_products(self.w4, v4) * (self.step4 * vstep4)
        if not rows_high:
            return low
        return np.where(high, exact_index_products(self.w8, v8) * (self.step8 * vstep8), low)


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    fwd: FusedOperand
    rec: FusedOperand
    bias: np.ndarray
    cell_size: int
    input_size: int


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    layers: tuple[QuantizedLayer, ...]
    fingerprint: str


def _max_abs_alpha(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return peak if peak > 0.0 else 1.0  # all-zero tensors quantize to zero indices


def quantize_model(model: LstmModel) -> QuantizedModel:
    """Quantize every gate matrix with its own max-abs alpha, one per connection type.

    The fingerprint hashes, gate by gate, the packed codes and alpha of the
    forward and then the recurrent matrix, then the bias.
    """
    digest = hashlib.sha256()
    layers = []
    for layer in model.layers:
        fwd, rec = [], []
        for gate in layer.gates():
            for encoded, w in ((fwd, gate.w_x), (rec, gate.w_h)):
                alpha = _max_abs_alpha(w)
                step8, step4 = quant_step(alpha, 8), quant_step(alpha, 4)
                high, low, offsets = dual_index_arrays(w, step8, step4)
                digest.update(packed_bytes(high, offsets))
                digest.update(np.float64(alpha).tobytes())
                encoded.append((high, low, step8, step4))
            digest.update(gate.b.tobytes())
        layers.append(
            QuantizedLayer(
                fwd=FusedOperand.stack(fwd),
                rec=FusedOperand.stack(rec),
                bias=np.concatenate([gate.b for gate in layer.gates()]),
                cell_size=layer.cell_size,
                input_size=layer.input_size,
            )
        )
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


@np.errstate(over="ignore")  # see lstm_ref.run_fp32
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

    Layer L at step t needs only layer L-1 at step t and layer L at step
    t-1, so each layer runs over all steps before the next one starts.
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
    if mode is Mode.RANDOM:
        # one draw per element, in (step, layer) order
        draws = np.random.default_rng(random_seed).random((n_steps, sum(layer.cell_size for layer in layers)))
        ends = np.cumsum([layer.cell_size for layer in layers])

    counts = {name: np.zeros(n_steps, dtype=np.int64) for name in StepActivity.__dataclass_fields__}
    c_hist, h_hist, bits_hist, phase_hist = [], [], [], []
    inputs = seq.steps
    for L, layer in enumerate(layers):
        n = layer.cell_size
        if mode is Mode.RANDOM:
            high_rows = draws[:, ends[L] - n : ends[L]] >= random_p
        elif mode is not Mode.DYNAMIC:
            high_rows = np.broadcast_to(mode is Mode.STATIC8, (n_steps, n))
        peaks = np.max(np.abs(inputs), axis=1)
        alphas = np.where(peaks > 0.0, peaks, 1.0)  # _max_abs_alpha, row by row
        xs8, xs4 = alphas / 128.0, alphas / 8.0  # quant_step(alpha, 8) and (alpha, 4), row by row
        x8, x4, x_offsets = dual_index_arrays(inputs, xs8[:, None], xs4[:, None])
        x8, x4 = x8.astype(np.float32), x4.astype(np.float32)  # exact: |index| <= 127
        adjusted = np.count_nonzero(x_offsets, axis=1)
        c_trace, h_trace = np.empty((n_steps, n)), np.empty((n_steps, n))
        high_hist = np.empty((n_steps, n), dtype=bool)
        phases = np.empty((n_steps, n), dtype=np.int8)
        c = h = np.zeros(n)
        for t in range(n_steps):
            high = trackers[L].high_precision() if mode is Mode.DYNAMIC else high_rows[t]
            rows_high = GATES_PER_ELEMENT * int(np.count_nonzero(high))
            high4 = np.concatenate((high,) * GATES_PER_ELEMENT) if 0 < rows_high < GATES_PER_ELEMENT * n else None
            h8, h4, h_offsets = dual_index_arrays(h, H_STEP8, H_STEP4)
            h8, h4 = h8.astype(np.float32), h4.astype(np.float32)
            pre = (
                layer.fwd.matvec(x8[t], x4[t], xs8[t], xs4[t], high4, rows_high)
                + layer.rec.matvec(h8, h4, H_STEP8, H_STEP4, high4, rows_high)
                + layer.bias
            )
            i_t, f_t, o_t = sigmoid(pre[:n]), sigmoid(pre[n : 2 * n]), sigmoid(pre[3 * n :])
            g_t = np.tanh(pre[2 * n : 3 * n])
            c = f_t * c + i_t * g_t
            h = o_t * np.tanh(c)
            c_trace[t], h_trace[t], high_hist[t] = c, h, high
            adjusted[t] += np.count_nonzero(h_offsets)
            if mode is Mode.DYNAMIC:
                pdu_observe(trackers[L], pdu_config, c)
                phases[t] = trackers[L].phase
        c_hist.append(c_trace)
        h_hist.append(h_trace)
        bits_hist.append(np.where(high_hist, np.uint8(8), np.uint8(4)))
        phase_hist.append(phases)

        n_high = np.count_nonzero(high_hist, axis=1)
        n_low = n - n_high
        fan_in = layer.input_size + n
        weights_per_element = GATES_PER_ELEMENT * fan_in
        counts["weight_bytes"] += n_high * weights_per_element
        counts["weight_nibbles"] += n_low * weights_per_element
        counts["input_elems"] += fan_in
        counts["input_adjusted"] += np.where(n_low > 0, adjusted, 0)
        counts["sip_bit_ops"] += weights_per_element * (n_high * 8 + n_low * 4)
        counts["mu_adds"] += MU_ADDS_PER_ELEMENT * n
        counts["mu_muls"] += MU_MULS_PER_ELEMENT * n
        counts["mu_exps"] += MU_EXPS_PER_ELEMENT * n
        counts["neurons_low"] += n_low
        counts["neurons_high"] += n_high
        if mode is Mode.DYNAMIC:
            counts["pdu_updates"] += n
        inputs = h_trace

    columns = [column.tolist() for column in counts.values()]
    return QuantRunResult(
        trace=StateTrace(c=tuple(c_hist), h=tuple(h_hist)),
        precision_bits=tuple(bits_hist),
        phases=tuple(phase_hist) if mode is Mode.DYNAMIC else None,
        activity=tuple(StepActivity(*row) for row in zip(*columns)),
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
