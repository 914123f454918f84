"""Cycle and energy model of the bit-serial LSTM accelerator.

One serial inner product unit multiplies a vector of full-width weights
by one bit plane of the other operand per cycle, MSB first; an n-bit
serial operand therefore costs n cycles per pass. Several units working
side by side cover ``lanes * lane_width`` vector elements per pass. The
functional unit, checked against the parallel integer dot product, is
the test oracle ``tests/sip_oracle.py``.

Timing assumptions:

1. The four gates of a layer run on four parallel compute units, so one
   cell element costs one serial pass over the forward fan-in plus one
   over the recurrent fan-in, at that element's precision.
2. The scalar unit (activations, rescaling, requantization) and the peak
   detector are pipelined behind the dot-product units; per step they
   only contribute a fixed drain tail, charged when it exceeds the
   dot-product time, plus a one-off pipeline fill at sequence start.
   The model is therefore faithful in the dot-product-bound regime and
   floors at the drain constant for very small layers.
3. Weights stay resident in the weight buffer; off-chip traffic is the
   streamed input and final output, checked against a flat peak
   bandwidth. Steps that would exceed it are stretched proportionally.

Energy is event counts times per-event coefficients plus leakage per
cycle. The run supplies only what it decides: each element's precision at
each step, and each layer's input offsets adjusted. Every other event,
weight bytes and nibbles read included, follows from those, the model's
sizes, the step count and the mode. The shipped coefficients are
normalized units, not measurements; the one deliberately fixed ratio is
nibble reads costing half of byte reads. ``check_capacity``, the one
check before a run, bounds the cycles and energy that ``cost_run``
charges after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fields import check_field_types
from .lstm_ref import GATES, InputSequence
from .lstm_quant import Mode, QuantRunResult, QuantizedModel, sequence_fingerprint

# Unused by the pipeline; kept because perfbench/run.py span_targets wraps it.
from .lstm_quant import run_quantized

# Scalar-unit work per element and step: four gate activations plus the cell
# update, output and requantization chain.
MU_MULS_PER_ELEMENT = 12
MU_ADDS_PER_ELEMENT = 9
MU_EXPS_PER_ELEMENT = 5

KIB = 1024
MIB = 1024 * 1024

# Capacity model working-set sizes, in bytes.
WEIGHT_ENTRY_BYTES = 1  # packed dual-precision code
INPUT_ENTRY_BYTES = 2  # high-precision byte plus cached adjusted low byte
STATE_ENTRY_BYTES = 4  # one 32-bit real
PDU_ENTRY_BYTES = 8  # packed tracker record

# Per-step cycles are summed in int64; a run whose worst case could pass
# this is refused rather than wrapped.
MAX_CYCLES = 2**63 - 1

SUPPORTED_PRECISIONS = (4, 8)


class CapacityError(RuntimeError):
    """A configured on-chip buffer cannot hold the model's working set,
    or a run's cycle count does not fit the int64 cycle counter."""

    def __init__(self, buffer: str, required: float, available: int, unit: str = "bytes") -> None:
        self.buffer = buffer
        super().__init__(f"{buffer} needs {required} {unit} but holds only {available}")


@dataclass(frozen=True)
class SipConfig:
    lanes: int = 8
    lane_width: int = 16
    reduction_latency: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.lanes < 1 or self.lane_width < 1:
            raise ValueError("lanes and lane_width must be >= 1")
        if self.reduction_latency < 0:
            raise ValueError("reduction_latency must be >= 0")

    @property
    def elements_per_pass(self) -> int:
        return self.lanes * self.lane_width


DEFAULT_SIP_CONFIG = SipConfig()


def _check_precision(precision: int) -> None:
    if precision not in SUPPORTED_PRECISIONS:
        raise ValueError(f"precision must be one of {SUPPORTED_PRECISIONS}, got {precision!r}")


def sip_cycles(vector_length: int, precision: int, config: SipConfig = DEFAULT_SIP_CONFIG) -> int:
    """Cycles to stream one dot product: one pass per chunk, one cycle per bit plane."""
    _check_precision(precision)
    if vector_length < 1:
        raise ValueError(f"vector_length must be >= 1, got {vector_length}")
    chunks = -(-vector_length // config.elements_per_pass)  # integer ceiling: a float quotient can underflow to 0
    return chunks * precision + config.reduction_latency


@dataclass(frozen=True)
class AccelConfig:
    frequency_hz: float = 500e6
    sip: SipConfig = SipConfig()
    mu_add_cycles: int = 2
    mu_mul_cycles: int = 4
    mu_exp_cycles: int = 5
    mu_comm_cycles: int = 2
    pdu_update_cycles: int = 1
    weight_buffer_bytes: int = 2 * MIB
    input_buffer_bytes: int = 8 * KIB
    intermediate_bytes: int = 6 * MIB
    pdu_buffer_bytes: int = 8 * KIB
    peak_bandwidth: float = 30e9

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (0 < self.frequency_hz < math.inf and 0 < self.peak_bandwidth < math.inf):
            raise ValueError("frequency and peak bandwidth must be positive and finite")
        for name in (
            "mu_add_cycles",
            "mu_mul_cycles",
            "mu_exp_cycles",
            "mu_comm_cycles",
            "pdu_update_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in (
            "weight_buffer_bytes",
            "input_buffer_bytes",
            "intermediate_bytes",
            "pdu_buffer_bytes",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def mu_drain_cycles(self) -> int:
        """Latency chain of one element through the scalar unit, plus hand-off."""
        return (
            self.mu_comm_cycles
            + MU_ADDS_PER_ELEMENT * self.mu_add_cycles
            + MU_MULS_PER_ELEMENT * self.mu_mul_cycles
            + MU_EXPS_PER_ELEMENT * self.mu_exp_cycles
        )


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy coefficients in normalized units."""

    weight_byte_read: float = 1.0
    weight_nibble_read: float = 0.5
    input_elem_read: float = 1.0
    sip_bit_op: float = 0.02
    mu_add: float = 0.2
    mu_mul: float = 0.4
    mu_exp: float = 1.0
    pdu_update: float = 0.3
    offset_adjust: float = 0.1
    static_power: float = 5.0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in self.__dataclass_fields__:
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.weight_nibble_read > self.weight_byte_read:
            raise ValueError("a nibble read cannot cost more than a byte read")


@dataclass(frozen=True, eq=False)
class SimResult:
    """A quantized run and its cost; the hashes say what ``compare`` may pair it with."""

    run: QuantRunResult
    total_cycles: int
    wall_time_s: float
    energy_breakdown: dict[str, float]
    energy_total: float
    model_hash: str
    sequence_hash: str


def check_capacity(
    qmodel: QuantizedModel, seq: InputSequence, config: AccelConfig, em: EnergyModel, mode: Mode
) -> None:
    """The one check before a run of ``mode``, against what the accelerator and a report can hold.

    ``CapacityError``: a buffer cannot hold one layer's working set, or the worst case passes the int64 cycle
    counter. ``ValueError``: the worst-case wall time or energy is not finite, or the static 8-bit baseline,
    which ``compare`` divides by, may cost no energy.
    """
    dynamic = mode is Mode.DYNAMIC
    max_gate_weights = max(layer.cell_size * (layer.input_size + layer.cell_size) for layer in qmodel.layers)
    if max_gate_weights * WEIGHT_ENTRY_BYTES > config.weight_buffer_bytes:
        raise CapacityError("weight buffer", max_gate_weights * WEIGHT_ENTRY_BYTES, config.weight_buffer_bytes)

    max_fan = max(layer.input_size + layer.cell_size for layer in qmodel.layers)
    if max_fan * INPUT_ENTRY_BYTES > config.input_buffer_bytes:
        raise CapacityError("input buffer", max_fan * INPUT_ENTRY_BYTES, config.input_buffer_bytes)

    max_cell = max(layer.cell_size for layer in qmodel.layers)
    needed = len(seq) * max_cell * STATE_ENTRY_BYTES
    if needed > config.intermediate_bytes:
        raise CapacityError("intermediate memory", needed, config.intermediate_bytes)

    if dynamic and max_cell * PDU_ENTRY_BYTES > config.pdu_buffer_bytes:
        raise CapacityError("peak detector buffer", max_cell * PDU_ENTRY_BYTES, config.pdu_buffer_bytes)

    n_steps = len(seq)
    cycles = _timing(qmodel, n_steps, config, dynamic)[-1]
    wall = cycles / config.frequency_hz
    # upper bound on the energy: every weight read both as a byte and as a nibble, every input offset adjusted
    reads, _ = _weight_reads(qmodel, n_steps, [n_steps * layer.cell_size for layer in qmodel.layers])
    inputs = n_steps * sum(layer.input_size + layer.cell_size for layer in qmodel.layers)
    energy, _ = _energy(qmodel, reads, reads, inputs, n_steps, dynamic, cycles, em)
    # lower bound on the baseline's: every weight read as a byte, no offset adjusted, at least a cycle per step
    baseline, _ = _energy(qmodel, reads, 0, 0, n_steps, False, n_steps, em)
    if not (math.isfinite(wall) and baseline > 0 and math.isfinite(energy / baseline)):
        raise ValueError(
            f"a {mode.value} run's wall time and energy may reach {wall} s and {energy},"
            f" against a {Mode.STATIC8.value} baseline energy of at least {baseline}"
        )


def _timing(
    qmodel: QuantizedModel, n_steps: int, config: AccelConfig, dynamic: bool
) -> tuple[list, int, int, int, int]:
    """Each layer's 8- and 4-bit element cycles, the drain floor, the fill, the bandwidth bound and the worst case.

    All are Python ints, the bandwidth bound in the whole cycles a stretched step costs. A run of ``n_steps``
    steps whose worst case could pass ``MAX_CYCLES`` is refused.
    """
    per_layer_cost = []
    for layer in qmodel.layers:
        c8 = sip_cycles(layer.input_size, 8, config.sip) + sip_cycles(layer.cell_size, 8, config.sip)
        c4 = sip_cycles(layer.input_size, 4, config.sip) + sip_cycles(layer.cell_size, 4, config.sip)
        per_layer_cost.append((c8, c4))

    mu_drain = config.mu_drain_cycles()
    pdu_drain = config.pdu_update_cycles if dynamic else 0
    floor = max(mu_drain, pdu_drain)
    fill = mu_drain + pdu_drain

    in0 = qmodel.layers[0].input_size
    out_cell = qmodel.layers[-1].cell_size
    dram_bytes = (in0 + out_cell) * STATE_ENTRY_BYTES
    stretch = dram_bytes * config.frequency_hz / config.peak_bandwidth  # may overflow to inf
    min_step = math.ceil(min(stretch, MAX_CYCLES + 1))  # a stretch past the counter is refused below

    widest_step = sum(
        max(layer.cell_size * c8, floor) for layer, (c8, _) in zip(qmodel.layers, per_layer_cost)
    )
    bound = fill + n_steps * max(min_step, widest_step)
    if bound > MAX_CYCLES:
        raise CapacityError("cycle counter", bound, MAX_CYCLES, unit="cycles")
    return per_layer_cost, floor, fill, min_step, bound


def _step_cycles(
    qmodel: QuantizedModel,
    run: QuantRunResult,
    config: AccelConfig,
    dynamic: bool,
) -> tuple[int, np.ndarray]:
    """Total cycles of a run, and the int64 cycles of each step.

    Each layer costs the larger of its dot-product cycles and the drain
    floor; a step is stretched to the input/output bandwidth bound.
    """
    n_steps = run.trace.n_steps
    per_layer_cost, floor, fill, min_step, _ = _timing(qmodel, n_steps, config, dynamic)
    cycles = np.zeros(n_steps, dtype=np.int64)
    for (c8, c4), bits in zip(per_layer_cost, run.precision_bits):
        n_high = (bits == 8).sum(axis=1)
        dpu = n_high * c8 + (bits.shape[1] - n_high) * c4
        cycles += np.maximum(dpu, floor)
    step_cycles = np.maximum(cycles, min_step)
    return fill + int(step_cycles.sum()), step_cycles


def _weight_reads(qmodel: QuantizedModel, steps: int, n_high: Sequence[int]) -> tuple[int, int]:
    """Weight bytes and nibbles read in ``steps`` steps; ``n_high`` counts each layer's 8-bit element steps.

    Each element reads its four gates' weights over the layer's fan-in each step, as bytes at 8 bits, else nibbles.
    """
    weights = [len(GATES) * (layer.input_size + layer.cell_size) for layer in qmodel.layers]
    bytes_read = sum(w * high for w, high in zip(weights, n_high, strict=True))
    return bytes_read, steps * sum(w * layer.cell_size for w, layer in zip(weights, qmodel.layers)) - bytes_read


def _energy(
    qmodel: QuantizedModel, bytes_read: int, nibbles_read: int, adjusted: int, steps: int, dynamic: bool,
    cycles: int, em: EnergyModel,
) -> tuple[float, dict[str, float]]:
    """Energy per component of a run of ``steps`` steps, from exact int counts.

    A byte weight takes 8 bit-serial passes and a nibble 4. Each step fetches
    every layer's fan-in and runs every cell element through the scalar unit
    and, in dynamic mode, its tracker.
    """
    input_elems = steps * sum(layer.input_size + layer.cell_size for layer in qmodel.layers)
    cells = steps * sum(layer.cell_size for layer in qmodel.layers)
    pdu_updates = cells if dynamic else 0

    breakdown = {
        "weight_fetch": bytes_read * em.weight_byte_read + nibbles_read * em.weight_nibble_read,
        "input_fetch": input_elems * em.input_elem_read + adjusted * em.offset_adjust,
        "dot_product": (8 * bytes_read + 4 * nibbles_read) * em.sip_bit_op,
        "mu": MU_ADDS_PER_ELEMENT * cells * em.mu_add
        + MU_MULS_PER_ELEMENT * cells * em.mu_mul
        + MU_EXPS_PER_ELEMENT * cells * em.mu_exp,
        "pdu": pdu_updates * em.pdu_update,
        "static": cycles * em.static_power,
    }
    return sum(breakdown.values()), breakdown


def cost_run(
    qmodel: QuantizedModel, seq: InputSequence, run: QuantRunResult, config: AccelConfig, em: EnergyModel
) -> SimResult:
    """Cycles and energy of a finished run whose mode ``check_capacity`` passed on ``config`` and ``em``.

    After that check, this is the only stage that reads ``AccelConfig`` and
    ``EnergyModel``, so one run can be costed on many accelerator configurations.
    A wall time or energy that is not finite, which that check refuses, raises ``ValueError``.
    """
    dynamic, steps = run.mode is Mode.DYNAMIC, run.trace.n_steps
    total_cycles, _ = _step_cycles(qmodel, run, config, dynamic)
    reads = _weight_reads(qmodel, steps, [np.count_nonzero(bits == 8) for bits in run.precision_bits])
    energy_total, breakdown = _energy(qmodel, *reads, sum(run.input_adjusted), steps, dynamic, total_cycles, em)
    wall_time_s = total_cycles / config.frequency_hz
    if not (math.isfinite(wall_time_s) and math.isfinite(energy_total)):
        raise ValueError(f"a {run.mode.value} run costs {wall_time_s} s and {energy_total} energy")
    return SimResult(
        run=run,
        total_cycles=total_cycles,
        wall_time_s=wall_time_s,
        energy_breakdown=breakdown,
        energy_total=energy_total,
        model_hash=qmodel.fingerprint,
        sequence_hash=sequence_fingerprint(seq),
    )


def compare(a: SimResult, b: SimResult) -> tuple[float, float]:
    """Speedup and energy savings of run ``a`` measured against baseline ``b``."""
    if a.model_hash != b.model_hash or a.sequence_hash != b.sequence_hash:
        raise ValueError("runs cover different models or sequences and cannot be compared")
    speedup = b.total_cycles / a.total_cycles
    energy_savings = 1.0 - a.energy_total / b.energy_total
    return speedup, energy_savings
