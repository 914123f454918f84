"""Quantized LSTM evaluation with a per-element precision choice each step.

Weights, inputs and outputs all take ``quant``'s one dual code. Each gate
matrix is quantized offline with its own alpha, as its row block of the
layer's stacked gate-major weights, so each connection of a layer is one
operand. One pass runs several lanes, each a mode and the fields it reads,
and each lane's result is bit-identical to its run alone. The pass goes
layer by layer. A layer's inputs are known before it starts, so they are
encoded a chunk at a time and their forward products run as one stacked
GEMM of both precisions per chunk of about ``FORWARD_CHUNK`` columns;
layer 0 reads the same input in every lane, so its products are computed
once. Each step then does only what depends on the step before: every lane
picks its precision mix, the lanes' previous outputs are encoded at both
precisions at once, the recurrent products run as one stacked GEMM over
the lane-minor [2, cell, lanes] codes, one select keeps each element's
precision, and the cells update. The four gate neurons feeding one
cell-state element always share that element's precision. Matrix products
run on the integer indices in float32 BLAS, exactly (``exact_index_products``),
so a GEMM gives the bits of a per-step product; rescaling to reals and the
cell update (``lstm_ref.lstm_cell``) run in float64. Alongside the traces and
precision choices each lane counts, per layer, the one event that needs the
run itself: the input offsets adjusted on steps with a 4-bit element. The
accelerator model (``accel``) derives every other event from these.

Every tracker of a layer is a row of one ``TrackerState`` table that
observes each step in one ``pdu_observe`` call: each dynamic lane's rows,
then a fresh set per reference ``PduConfig`` over a given trace (the
full-precision run's cell states). A pinned ``Lane.trackers`` is only each
layer's starting state, copied into the table: the pass writes into none of
its arguments. ``run_lanes`` always returns the lane results and the
reference rows' phases.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lstm_ref import FORWARD_CHUNK, GATES, InputSequence, LstmModel, StateTrace, lstm_cell

# Unused by the pipeline; kept because perfbench/run.py span_targets wraps it.
from .lstm_ref import sigmoid
from .pdu import PduConfig, TrackerConfig, TrackerState, pdu_observe
from .quant import dual_codes, dual_steps, magnitude_limit, offset_bits, packed_bytes

# Share of elements random mode runs at 4 bits unless told otherwise.
DEFAULT_RANDOM_P = 0.33

# Outputs live in (-1, 1) and are always quantized with alpha 1.
H_STEPS = dual_steps(1.0)


class Mode(enum.Enum):
    STATIC8 = "static8"
    STATIC4 = "static4"
    DYNAMIC = "dynamic"
    RANDOM = "random"


def check_exact_fan_in(fan_in: int) -> None:
    """Reject a fan-in whose float64 index sums could round.

    Each term is at most ``magnitude_limit(8) ** 2``, and float64 holds every integer below 2**53.
    """
    if magnitude_limit(8) ** 2 * fan_in >= 2**53:
        raise ValueError(f"fan-in {fan_in} is too wide for exact float64 index sums")


# Widest column block whose index sums stay exact in float32: every partial
# sum of up to this many terms of at most magnitude_limit(8) ** 2 is an integer below 2**24.
FLOAT32_EXACT_COLUMNS = (2**24 - 1) // magnitude_limit(8) ** 2


def exact_index_products(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``w @ v`` for integer-valued float32 operands, exact for any fan-in.

    ``w`` [..., rows, k] and ``v`` [..., k, cols] may stack both precisions, as [2, rows, k] and [2, k, cols].
    Each column block is one float32 BLAS product whose sum is an exact integer; the block results are
    added in float64, which stays exact under ``check_exact_fan_in``. A fan-in of at most
    ``FLOAT32_EXACT_COLUMNS`` is one block, returned as float32 for the caller's float64 rescale.
    """
    total = w[..., :FLOAT32_EXACT_COLUMNS] @ v[..., :FLOAT32_EXACT_COLUMNS, :]
    for start in range(FLOAT32_EXACT_COLUMNS, w.shape[-1], FLOAT32_EXACT_COLUMNS):
        stop = start + FLOAT32_EXACT_COLUMNS
        total = np.add(total, w[..., start:stop] @ v[..., start:stop, :], dtype=np.float64)
    return total


@dataclass(frozen=True, eq=False)
class FusedOperand:
    """One connection of all four gates stacked gate-major into [4H, n] rows, at both precisions.

    ``codes`` [2, 4H, n] holds the signed 8- and 4-bit indices
    (``quant.dual_codes``) as float32, so the products run in BLAS and stay
    exact integers (see ``exact_index_products``); ``steps`` [2, 4H] holds
    each row's weight step at each precision in float64.
    """

    codes: np.ndarray
    steps: np.ndarray


def _forward_products(
    w: np.ndarray, v: np.ndarray, v_steps: np.ndarray, row_steps: np.ndarray, out: np.ndarray, lanes: int
) -> np.ndarray:
    """Rescaled products of ``w`` [2, 4H, fan_in] with each of ``v``'s rows [2, columns, fan_in], into ``out``.

    ``v`` holds ``lanes`` blocks of steps, lane after lane, with steps ``v_steps`` [2, columns]; the
    products of both precisions are returned as [2, steps, 4H, lanes]. The rows' index vectors form one
    [2, fan_in, columns] operand, so ``exact_index_products`` keeps its column blocks exact in one stacked
    GEMM. The rescale groups as the recurrent products do: ``products * (row_step * vector_step)``.
    """
    chunk = out[:, : v.shape[1]]
    np.multiply(v_steps[:, :, None], row_steps[:, None], out=chunk)
    chunk *= exact_index_products(w, v.swapaxes(1, 2)).swapaxes(1, 2)
    return chunk.reshape(2, lanes, -1, chunk.shape[2]).transpose(0, 2, 3, 1)


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    fwd: FusedOperand
    rec: FusedOperand
    bias: np.ndarray

    @property
    def cell_size(self) -> int:
        return self.rec.codes.shape[2]

    @property
    def input_size(self) -> int:
        return self.fwd.codes.shape[2]


@dataclass(frozen=True, eq=False)
class QuantizedModel:
    layers: tuple[QuantizedLayer, ...]
    fingerprint: str


def _block_steps(values: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-abs alpha of each block of ``rows`` rows, and every row's 8- and 4-bit step, [2, rows].

    An all-zero block takes alpha 1 and quantizes to zero indices.
    """
    peaks = np.abs(values).reshape(-1, rows * values.shape[1]).max(axis=1)
    alphas = np.where(peaks > 0.0, peaks, 1.0)
    return alphas, np.repeat(dual_steps(alphas), rows, axis=1)


def quantize_model(model: LstmModel) -> QuantizedModel:
    """Quantize every gate matrix with its own max-abs alpha, one per connection type.

    The fingerprint hashes, gate by gate, the packed codes and alpha of the
    forward and then the recurrent matrix, then the bias.
    """
    digest = hashlib.sha256()
    layers = []
    for layer in model.layers:
        n = layer.cell_size
        operands, alphas = [], []
        for w in (layer.w_x, layer.w_h):
            check_exact_fan_in(w.shape[1])
            w_alphas, steps = _block_steps(w, n)
            operands.append(FusedOperand(dual_codes(w, steps[:, :, None]).astype(np.float32), steps))
            alphas.append(w_alphas)
        for g, (_, _, b) in enumerate(layer.gates()):
            rows = slice(g * n, (g + 1) * n)
            for operand, w_alphas in zip(operands, alphas):
                digest.update(packed_bytes(operand.codes[:, rows]))
                digest.update(w_alphas[g].tobytes())
            digest.update(b.tobytes())
        layers.append(QuantizedLayer(*operands, bias=layer.b))
    return QuantizedModel(tuple(layers), digest.hexdigest())


def sequence_fingerprint(seq: InputSequence) -> str:
    digest = hashlib.sha256(np.asarray(seq.steps, dtype=np.float64).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class QuantRunResult:
    trace: StateTrace
    precision_bits: tuple[np.ndarray, ...]  # per layer, [steps, cell]; bits used that step
    phases: tuple[np.ndarray, ...] | None  # per layer, tracker phase after each step (dynamic only)
    input_adjusted: tuple[int, ...]  # per layer, input offsets adjusted on steps with a 4-bit element
    mode: Mode

    @property
    def low_precision_usage(self) -> float:
        low = sum(int(np.count_nonzero(bits == 4)) for bits in self.precision_bits)
        return low / sum(bits.size for bits in self.precision_bits)


@dataclass(frozen=True)
class Lane:
    """One run of ``run_lanes``: the mode, and the fields that mode reads.

    Dynamic reads ``pdu_config`` (``PduConfig.for_sequence`` when None) and
    ``trackers``, each layer's starting state (fresh when None; never written);
    random reads ``random_p`` and ``random_seed``. Building a lane checks ``random_p``.
    """

    mode: Mode
    pdu_config: PduConfig | None = None
    random_p: float = DEFAULT_RANDOM_P
    random_seed: int = 0
    trackers: tuple[TrackerState, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.random_p <= 1.0:
            raise ValueError(f"random_p must be in [0, 1], got {self.random_p!r}")


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
    """One lane of ``run_lanes``."""
    lane = Lane(mode, pdu_config, random_p, random_seed, None if trackers is None else tuple(trackers))
    (result,), _ = run_lanes(qmodel, seq, [lane])
    return result


@np.errstate(over="ignore")  # see lstm_ref.run_fp32
def run_lanes(
    qmodel: QuantizedModel,
    seq: InputSequence,
    lanes: Sequence[Lane],
    *,
    keep_h: bool = True,
    reference: tuple[Sequence[np.ndarray], Sequence[PduConfig]] = ((), ()),
) -> tuple[list[QuantRunResult], list[tuple[np.ndarray, ...]]]:
    """Evaluate the network once per lane in one pass; each result is bit-identical to its lane run alone.

    Each lane picks a precision per cell element and step. Dynamic mode
    runs an element at 8 bits exactly when its tracker, fed the layer's
    cell state each step, is in a peak; a pinned ``Lane.trackers`` is each
    layer's starting state, read and never written. Random mode draws one number per
    element and step, in (step, layer) order, and picks 4 bits below
    ``random_p``. Layer L at step t needs only layer L-1 at step t and layer
    L at step t-1, so each layer runs over all steps and lanes before the
    next. Without ``keep_h`` the results hold no output traces, and the
    last layer's is never stored whole.

    ``reference`` holds per-layer [steps, cell] cell-state traces and a list
    of ``PduConfig``s: fresh trackers observe those traces, one set per
    config. Returns the lane results, in lane order, and each config's
    reference phases as ``pdu.classify_trace`` gives them.
    """
    if seq.width != qmodel.layers[0].input_size:
        raise ValueError(f"sequence width {seq.width} != model input size {qmodel.layers[0].input_size}")
    n_steps, sizes = len(seq), [layer.cell_size for layer in qmodel.layers]
    for lane in lanes:
        if lane.mode is Mode.DYNAMIC and lane.trackers is not None:
            if [state.phase.shape for state in lane.trackers] != [(n,) for n in sizes]:
                raise ValueError("tracker states do not match the model's layer sizes")
    ref_c, ref_configs = reference
    if (len(ref_c) or ref_configs) and [np.shape(c) for c in ref_c] != [(n_steps, n) for n in sizes]:
        raise ValueError("reference traces do not match the sequence's steps and the model's layer sizes")
    if not lanes:
        if ref_configs:
            raise ValueError("reference trackers ride a lane pass, which needs a lane")
        return [], []
    # dynamic lanes first: their trackers are the first rows of every [lanes, ...] array
    order = sorted(range(len(lanes)), key=lambda i: lanes[i].mode is not Mode.DYNAMIC)
    dynamic = [lanes[i] for i in order if lanes[i].mode is Mode.DYNAMIC]
    configs = [*(lane.pdu_config or PduConfig.for_sequence(n_steps) for lane in dynamic), *ref_configs]
    pinned = [(k, lane.trackers) for k, lane in enumerate(dynamic) if lane.trackers is not None]

    high = [np.empty((len(lanes), n_steps, n), dtype=bool) for n in sizes]  # each step's 8-bit elements
    ends = np.cumsum(sizes)
    for k, lane in enumerate(lanes[i] for i in order):
        if lane.mode is Mode.RANDOM:  # drawn a chunk of steps at a time, kept only as flags
            rng = np.random.default_rng(lane.random_seed)
            for t0 in range(0, n_steps, FORWARD_CHUNK):
                draws = rng.random((min(FORWARD_CHUNK, n_steps - t0), ends[-1]))
                for flags, end, n in zip(high, ends, sizes):
                    np.greater_equal(draws[:, end - n : end], lane.random_p, out=flags[k, t0 : t0 + len(draws)])
        elif lane.mode is not Mode.DYNAMIC:
            for flags in high:
                flags[k] = lane.mode is Mode.STATIC8

    outs = []
    inputs = seq.steps[None]  # every lane reads the same layer 0 input
    for L, layer in enumerate(qmodel.layers):
        n = layer.cell_size
        table = TrackerState.fresh(len(configs) * n)
        for k, states in pinned:
            for name, rows in vars(table).items():
                rows[k * n : (k + 1) * n] = getattr(states[L], name)
        keep = keep_h or L + 1 < len(sizes)
        observed = np.asarray(ref_c[L], dtype=np.float64) if ref_configs else None
        c_trace, h_trace, phases, adjusted = _run_layer(
            layer, inputs, high[L], len(dynamic), table, TrackerConfig.spread(configs, n), observed, keep
        )
        bits = high[L].view(np.uint8)  # in place: True becomes 8 and False 4
        bits *= 4
        bits += 4
        outs.append((c_trace, h_trace if keep_h else None, bits, phases, adjusted))
        inputs = h_trace

    c, h, bits, phases, adjusted = zip(*outs)  # each per layer, [lanes, ...]; phases [dynamic lanes + configs, ...]
    results: list[QuantRunResult] = [None] * len(lanes)  # type: ignore[list-item]
    for k, i in enumerate(order):
        results[i] = QuantRunResult(
            trace=StateTrace(c=tuple(a[k] for a in c), h=tuple(a[k] for a in h) if keep_h else ()),
            precision_bits=tuple(a[k] for a in bits),
            phases=tuple(a[k] for a in phases) if lanes[i].mode is Mode.DYNAMIC else None,
            input_adjusted=tuple(a[k] for a in adjusted),
            mode=lanes[i].mode,
        )
    return results, [tuple(a[len(dynamic) + r] for a in phases) for r in range(len(ref_configs))]


def _run_layer(
    layer: QuantizedLayer,
    inputs: np.ndarray,
    high: np.ndarray,
    n_dyn: int,
    trackers: TrackerState,
    tracker_config: TrackerConfig,
    observed: np.ndarray | None,
    keep_h: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, list[int]]:
    """One layer over every step, for every lane.

    ``inputs`` is [1, steps, width] when every lane reads the same input, else
    [lanes, steps, width]. ``high`` is [lanes, steps, cell], each step's 8-bit
    elements; the ``n_dyn`` dynamic lanes' rows, the first ones, are filled in
    here from the first rows of ``trackers``, the layer's table under
    ``tracker_config``. Those rows observe their lane's cell state and the
    rest ``observed`` [steps, cell] (None without reference rows), the whole
    table in one ``pdu_observe`` call per step. Returns the [lanes, steps,
    cell] cell and output traces (the output only with ``keep_h``), every
    tracker row's phases after each step and each lane's input offsets
    adjusted, which count only on steps with a 4-bit element.
    """
    n_lanes, n_steps, n = high.shape
    n_trk = trackers.phase.size // n
    shared = len(inputs)
    span = max(1, FORWARD_CHUNK // shared)  # steps per chunk: about FORWARD_CHUNK forward columns
    c_trace = np.empty((n_lanes, n_steps, n))
    h_trace = np.empty((n_lanes, n_steps, n)) if keep_h else None
    phases = np.empty((n_trk, n_steps, n), dtype=np.int8)
    obs = np.empty((span, n_trk, n))  # each step's observations: the dynamic lanes' c, then ``observed`` per row
    adjusted = np.empty((n_lanes, n_steps), dtype=np.int64)
    # a step's state is lane-minor, [cell, lanes], so both precisions' recurrent products are one GEMM
    rec_scales = (layer.rec.steps * H_STEPS[:, None])[:, :, None]
    h_steps, bias = H_STEPS[:, None, None], layer.bias[:, None]
    h_idx = np.empty((2, n, n_lanes))
    h_codes = np.empty((span, 2, n, n_lanes), dtype=np.float32)  # each step's h at 8 and at 4 bits
    split = (2, len(GATES), n, n_lanes)
    fwd_out = np.empty((2, shared * span, len(GATES) * n))  # forward products a chunk at a time, 8 bits then 4
    c = h = np.zeros((n, n_lanes))
    for t0 in range(0, n_steps, span):
        t1 = min(t0 + span, n_steps)
        x = inputs[:, t0:t1].reshape(-1, inputs.shape[2])  # lane after lane
        _, x_steps = _block_steps(x, 1)  # each step's input at its own alpha
        x_codes = dual_codes(x, x_steps[:, :, None]).astype(np.float32)  # exact casts: |index| <= 127
        adjusted[:, t0:t1] = np.count_nonzero(offset_bits(x_codes), axis=1).reshape(shared, -1)
        fwd = _forward_products(layer.fwd.codes, x_codes, x_steps, layer.fwd.steps, fwd_out, shared)
        if observed is not None:
            obs[: t1 - t0, n_dyn:] = observed[t0:t1, None]
        for j, t in enumerate(range(t0, t1)):
            picks = high[:, t]
            picks[:n_dyn] = trackers.high_precision()[: n_dyn * n].reshape(n_dyn, n)
            h_codes[j] = dual_codes(h, h_steps, out=h_idx)
            both = (fwd[:, j] + exact_index_products(layer.rec.codes, h_codes[j]) * rec_scales).reshape(split)
            mask = np.ascontiguousarray(picks.T)  # a strided mask slows np.where down
            pre = np.where(mask, both[0], both[1]).reshape(-1, n_lanes)  # each element's precision
            c, h = lstm_cell(np.add(pre, bias, out=pre), c)
            c_trace[:, t] = c.T
            if keep_h:
                h_trace[:, t] = h.T
            obs[j, :n_dyn] = c[:, :n_dyn].T
            pdu_observe(trackers, tracker_config, obs[j].reshape(-1))
            phases[:, t] = trackers.phase.reshape(n_trk, n)
        adjusted[:, t0:t1] += np.count_nonzero(offset_bits(h_codes[: t1 - t0].swapaxes(0, 1)), axis=1).T

    return c_trace, h_trace, phases, np.where(high.all(axis=2), 0, adjusted).sum(axis=1).tolist()
