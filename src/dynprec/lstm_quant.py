"""Quantized LSTM evaluation with a per-element precision choice each step.

Each gate matrix is quantized offline at 8 and at 4 bits with its own
alpha, as its row block of the layer's stacked gate-major weights, so each
connection of a layer is one operand. The run goes layer by layer: each
layer's whole input sequence is quantized the same way in one batch, and
since those inputs are all known before the layer starts, its forward
products run as one GEMM per chunk of ``FORWARD_CHUNK`` steps and precision
the mode can pick. Each step then does only what depends on the step
before: it picks its precision mix, encodes its previous output at both
precisions in one pass, takes its forward products from the chunk, computes
the recurrent products, and updates the cell. The four gate neurons feeding
one cell-state element always share that element's precision. Matrix
products run on integer indices, held exactly in float32 so that they run
in BLAS, in column blocks whose sums stay exact float32 integers in any
summation order; the block sums are added and rescaled to reals in float64,
so a GEMM gives the bits of the per-step products. The element-wise cell
update and the activations stay in full precision. Alongside the numeric
traces the run counts, per layer, the only events that depend on its
precision choices: the weight bytes and nibbles read and the input offsets
adjusted. The accelerator model derives every other event from the model's
sizes.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lstm_ref import GATES, InputSequence, LstmModel, StateTrace, sigmoid
from .pdu import PduConfig, Phase, TrackerState, pdu_observe
from .quant import check_finite, check_offset_range, dual_index_arrays, magnitude_limit, packed_bytes, quant_step

# Relative-error denominators are floored to avoid dividing by a near-zero cell state.
EPS_DENOM = 1e-3

# Share of elements random mode runs at 4 bits unless told otherwise.
DEFAULT_RANDOM_P = 0.33

# Outputs live in (-1, 1) and are always quantized with alpha 1.
H_STEP8, H_STEP4 = quant_step(1.0, 8), quant_step(1.0, 4)
# Both rows of a step's h encode: the steps are powers of two, so scaling by
# their inverses equals dividing by them; then each precision's magnitude limit.
H_SCALES = np.array([[1.0 / H_STEP8], [1.0 / H_STEP4]])
H_LIMITS = np.array([[magnitude_limit(8)], [magnitude_limit(4)]], dtype=np.float64)

# Steps per forward GEMM. It bounds each precision's [steps, 4H] float64
# products buffer; 128 steps already cost peak memory on wide layers.
FORWARD_CHUNK = 64


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

    def matvec(self, v8, v4, scale8, scale4, high: np.ndarray | None, rows_high: int) -> np.ndarray:
        """Rescaled products with a vector, row r at 8 bits where ``high[r]``, else at 4.

        ``v8`` and ``v4`` are float32 indices. ``scale8`` and ``scale4`` are
        each row's weight step times the vector's step at that precision.
        ``rows_high`` counts the 8-bit rows; a precision no row uses is
        skipped. The rescale runs in float64.
        """
        if rows_high == self.w8.shape[0]:
            return exact_index_products(self.w8, v8) * scale8
        low = exact_index_products(self.w4, v4) * scale4
        if not rows_high:
            return low
        return np.where(high, exact_index_products(self.w8, v8) * scale8, low)


def _forward_products(
    w: np.ndarray, v: np.ndarray, v_steps: np.ndarray, row_steps: np.ndarray, out: np.ndarray
) -> None:
    """Rescaled products of ``w`` with each of ``v``'s rows, one per step, into ``out[:steps]``.

    The steps' index vectors form one [fan_in, steps] operand, so
    ``exact_index_products`` keeps its column blocks exact in one GEMM. The
    rescale groups as ``FusedOperand.matvec`` does:
    ``products * (row_step * vector_step)``.
    """
    chunk = out[: len(v)]
    np.multiply.outer(v_steps, row_steps, out=chunk)
    chunk *= exact_index_products(w, v.T).T


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


def _block_steps(values: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-abs alpha of each block of ``rows`` rows, and every row's 8- and 4-bit step.

    An all-zero block takes alpha 1 and quantizes to zero indices.
    """
    peaks = np.abs(values).reshape(-1, rows * values.shape[1]).max(axis=1)
    alphas = np.where(peaks > 0.0, peaks, 1.0)
    return alphas, np.repeat(quant_step(alphas, 8), rows), np.repeat(quant_step(alphas, 4), rows)


def quantize_model(model: LstmModel) -> QuantizedModel:
    """Quantize every gate matrix with its own max-abs alpha, one per connection type.

    The fingerprint hashes, gate by gate, the packed codes and alpha of the
    forward and then the recurrent matrix, then the bias.
    """
    digest = hashlib.sha256()
    layers = []
    for layer in model.layers:
        n = layer.cell_size
        operands, codes = [], []
        for w in (layer.w_x, layer.w_h):
            check_exact_fan_in(w.shape[1])
            alphas, step8, step4 = _block_steps(w, n)
            high, low, offsets = dual_index_arrays(w, step8[:, None], step4[:, None])
            operands.append(FusedOperand(high.astype(np.float32), low.astype(np.float32), step8, step4))
            codes.append((high, offsets, alphas))
        for g, (_, _, b) in enumerate(layer.gates()):
            rows = slice(g * n, (g + 1) * n)
            for high, offsets, alphas in codes:
                digest.update(packed_bytes(high[rows], offsets[rows]))
                digest.update(alphas[g].tobytes())
            digest.update(b.tobytes())
        layers.append(QuantizedLayer(*operands, bias=layer.b, cell_size=n, input_size=layer.input_size))
    return QuantizedModel(tuple(layers), digest.hexdigest())


def sequence_fingerprint(seq: InputSequence) -> str:
    digest = hashlib.sha256(np.asarray(seq.steps, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class LayerActivity:
    """One layer's weight reads, and its input offsets adjusted on steps with a 4-bit element."""

    weight_bytes: int
    weight_nibbles: int
    input_adjusted: int


@dataclass(frozen=True, eq=False)
class QuantRunResult:
    trace: StateTrace
    precision_bits: tuple[np.ndarray, ...]  # per layer, [steps, cell]; bits used that step
    phases: tuple[np.ndarray, ...] | None  # per layer, tracker phase after each step (dynamic only)
    activity: tuple[LayerActivity, ...]
    mode: Mode

    @property
    def low_precision_usage(self) -> float:
        low = sum(int(np.count_nonzero(bits == 4)) for bits in self.precision_bits)
        return low / sum(bits.size for bits in self.precision_bits)


@np.errstate(over="ignore")  # see lstm_ref.run_fp32
def run_quantized(
    qmodel: QuantizedModel,
    seq: InputSequence,
    mode: Mode,
    pdu_config: PduConfig | None = None,
    *,
    random_p: float = DEFAULT_RANDOM_P,
    random_seed: int = 0,
    trackers: list[TrackerState] | None = None,
) -> QuantRunResult:
    """Evaluate the network, one precision decision per cell element per step.

    Dynamic mode feeds each layer's freshly computed cell state to its
    trackers (one ``TrackerState`` per layer) and runs an element at 8 bits
    on the next step exactly when its tracker is in a peak. Random mode
    picks 4 bits with probability ``random_p`` in [0, 1] from a seeded generator.

    Layer L at step t needs only layer L-1 at step t and layer L at step
    t-1, so each layer runs over all steps before the next one starts.
    """
    if seq.width != qmodel.layers[0].input_size:
        raise ValueError(f"sequence width {seq.width} != model input size {qmodel.layers[0].input_size}")
    if not 0.0 <= random_p <= 1.0:
        raise ValueError(f"random_p must be in [0, 1], got {random_p!r}")
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

    c_hist, h_hist, bits_hist, phase_hist, activity = [], [], [], [], []
    inputs = seq.steps
    for L, layer in enumerate(layers):
        n = layer.cell_size
        if mode is Mode.DYNAMIC:
            picks = trackers[L]
        elif mode is Mode.RANDOM:
            picks = draws[:, ends[L] - n : ends[L]] >= random_p
        else:
            picks = np.broadcast_to(mode is Mode.STATIC8, (n_steps, n))
        c_trace, h_trace, high_hist, phases, counts = _run_layer(layer, inputs, mode, picks, pdu_config)
        c_hist.append(c_trace)
        h_hist.append(h_trace)
        bits_hist.append(np.where(high_hist, np.uint8(8), np.uint8(4)))
        phase_hist.append(phases)
        activity.append(counts)
        inputs = h_trace

    return QuantRunResult(
        trace=StateTrace(c=tuple(c_hist), h=tuple(h_hist)),
        precision_bits=tuple(bits_hist),
        phases=tuple(phase_hist) if mode is Mode.DYNAMIC else None,
        activity=tuple(activity),
        mode=mode,
    )


def _run_layer(
    layer: QuantizedLayer,
    inputs: np.ndarray,
    mode: Mode,
    picks: TrackerState | np.ndarray,
    pdu_config: PduConfig | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, LayerActivity]:
    """One layer over every step, given its whole input sequence.

    ``picks`` is the layer's tracker in dynamic mode, else each step's
    8-bit elements. Returns the cell and output traces, each step's 8-bit
    elements, the tracker phase after each step (dynamic only) and the
    layer's activity.
    """
    n_steps, n = len(inputs), layer.cell_size
    rows = len(GATES) * n
    _, xs8, xs4 = _block_steps(inputs, 1)  # each step's input at its own alpha
    x8, x4, x_offsets = dual_index_arrays(inputs, xs8[:, None], xs4[:, None])
    adjusted = np.count_nonzero(x_offsets, axis=1)
    del x_offsets  # the steps' counts are all the run needs of it
    x8, x4 = x8.astype(np.float32), x4.astype(np.float32)  # exact: |index| <= 127
    rec_scale8, rec_scale4 = layer.rec.step8 * H_STEP8, layer.rec.step4 * H_STEP4
    c_trace, h_trace = np.empty((n_steps, n)), np.empty((n_steps, n))
    high_hist = np.empty((n_steps, n), dtype=bool)
    phases = np.empty((n_steps, n), dtype=np.int8) if mode is Mode.DYNAMIC else None
    # only the precisions the mode can pick, one chunk of steps at a time
    f8 = np.empty((FORWARD_CHUNK, rows)) if mode is not Mode.STATIC4 else None
    f4 = np.empty((FORWARD_CHUNK, rows)) if mode is not Mode.STATIC8 else None
    h_idx = np.empty((2, n))
    h_codes = np.empty((FORWARD_CHUNK, 2, n), dtype=np.float32)  # each step's h at 8 and at 4 bits
    lowest = highest = 0.0  # range of the h offset bits
    c = h = np.zeros(n)
    for t0 in range(0, n_steps, FORWARD_CHUNK):
        t1 = min(t0 + FORWARD_CHUNK, n_steps)
        if f8 is not None:
            _forward_products(layer.fwd.w8, x8[t0:t1], xs8[t0:t1], layer.fwd.step8, f8)
        if f4 is not None:
            _forward_products(layer.fwd.w4, x4[t0:t1], xs4[t0:t1], layer.fwd.step4, f4)
        for j, t in enumerate(range(t0, t1)):
            high = picks.high_precision() if phases is not None else picks[t]
            rows_high = len(GATES) * int(np.count_nonzero(high))
            high4 = np.concatenate((high,) * len(GATES)) if 0 < rows_high < rows else None
            if rows_high == rows:
                fwd = f8[j]
            elif not rows_high:
                fwd = f4[j]
            else:
                fwd = np.where(high4, f8[j], f4[j])
            # dual_index_arrays(h, H_STEP8, H_STEP4), both rows in one pass
            np.multiply(np.abs(h), H_SCALES, out=h_idx)
            h_idx += 0.5
            np.floor(h_idx, out=h_idx)
            np.minimum(h_idx, H_LIMITS, out=h_idx)
            np.subtract(0.0, h_idx, out=h_idx, where=(h < 0) & (h_idx[0] > 0))  # a zero index stays +0.0
            h_codes[j] = h_idx  # exact: |index| <= 127
            pre = (
                fwd
                + layer.rec.matvec(h_codes[j, 0], h_codes[j, 1], rec_scale8, rec_scale4, high4, rows_high)
                + layer.bias
            )
            i_t, f_t, o_t = sigmoid(pre[:n]), sigmoid(pre[n : 2 * n]), sigmoid(pre[3 * n :])
            g_t = np.tanh(pre[2 * n : 3 * n])
            c = f_t * c + i_t * g_t
            h = o_t * np.tanh(c)
            c_trace[t], h_trace[t], high_hist[t] = c, h, high
            if phases is not None:
                pdu_observe(picks, pdu_config, c)
                phases[t] = picks.phase
        magnitudes = np.abs(h_codes[: t1 - t0])
        offsets = magnitudes[:, 1] - np.floor(magnitudes[:, 0] / 16)
        adjusted[t0:t1] += np.count_nonzero(offsets, axis=1)
        lowest, highest = min(lowest, offsets.min()), max(highest, offsets.max())
    check_finite(h_trace[:-1])  # every h a step encoded, after the zero start
    check_offset_range(lowest, highest)

    n_high = np.count_nonzero(high_hist, axis=1)
    high_total = int(n_high.sum())
    weights_per_element = len(GATES) * (layer.input_size + n)
    activity = LayerActivity(
        weight_bytes=high_total * weights_per_element,
        weight_nibbles=(n_steps * n - high_total) * weights_per_element,
        input_adjusted=int(adjusted[n_high < n].sum()),
    )
    return c_trace, h_trace, high_hist, phases, activity


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
