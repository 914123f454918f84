"""Per-step loop reference for the cycle model in ``dynprec.accel``.

``step_cycles_reference`` counts each layer's 8-bit elements step by step
and applies the cycle rules with Python integers. The vectorized
``accel._step_cycles`` must return the same totals and per-step cycles.
It also names each step's regime: ``"bandwidth"`` when the step was
stretched to the bandwidth bound, else ``"drain"`` when some layer was
floored by a drain, else ``"dot"`` (dot-product bound).

``energy_reference`` costs a run from the per-step event records of
``quant_oracle.run_quantized_reference``, summing each event over the
steps. ``accel._energy`` derives most counts from the model's sizes and
must give the same breakdown, float for float.

``without_overheads`` and ``zero_dynamic`` build the stripped-down
configurations that the closed-form timing and energy checks use.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

from dynprec.accel import STATE_ENTRY_BYTES, AccelConfig, EnergyModel, sip_cycles
from dynprec.lstm_quant import QuantizedModel, QuantRunResult
from quant_oracle import StepActivity


def without_overheads(config: AccelConfig) -> AccelConfig:
    """Dot-product-only timing: no scalar-unit or tracker latency."""
    return replace(
        config,
        mu_add_cycles=0,
        mu_mul_cycles=0,
        mu_exp_cycles=0,
        mu_comm_cycles=0,
        pdu_update_cycles=0,
    )


def zero_dynamic(static_power: float = 5.0) -> EnergyModel:
    return EnergyModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, static_power)


def step_cycles_reference(
    qmodel: QuantizedModel,
    run: QuantRunResult,
    config: AccelConfig,
    dynamic: bool,
) -> tuple[int, list[int], list[str]]:
    per_layer_cost = []
    for layer in qmodel.layers:
        c8 = sip_cycles(layer.input_size, 8, config.sip) + sip_cycles(layer.cell_size, 8, config.sip)
        c4 = sip_cycles(layer.input_size, 4, config.sip) + sip_cycles(layer.cell_size, 4, config.sip)
        per_layer_cost.append((c8, c4))

    mu_drain = config.mu_drain_cycles()
    pdu_drain = config.pdu_update_cycles if dynamic else 0

    in0 = qmodel.layers[0].input_size
    out_cell = qmodel.layers[-1].cell_size
    dram_bytes = (in0 + out_cell) * STATE_ENTRY_BYTES
    min_step_cycles = math.ceil(dram_bytes * config.frequency_hz / config.peak_bandwidth)

    n_steps = run.trace.n_steps
    step_cycles: list[int] = []
    regimes: list[str] = []
    for t in range(n_steps):
        cycles = 0
        floored = False
        for L, (c8, c4) in enumerate(per_layer_cost):
            bits = run.precision_bits[L][t]
            n_high = int((bits == 8).sum())
            n_low = bits.shape[0] - n_high
            dpu = n_high * c8 + n_low * c4
            cycles += max(dpu, mu_drain, pdu_drain)
            floored |= dpu < max(mu_drain, pdu_drain)
        step_cycles.append(max(cycles, min_step_cycles))
        regimes.append("bandwidth" if cycles < min_step_cycles else "drain" if floored else "dot")

    fill = mu_drain + pdu_drain
    return fill + sum(step_cycles), step_cycles, regimes


def energy_reference(
    activity: Sequence[StepActivity], total_cycles: int, em: EnergyModel
) -> tuple[float, dict[str, float]]:
    bytes_read = sum(a.weight_bytes for a in activity)
    nibbles_read = sum(a.weight_nibbles for a in activity)
    input_elems = sum(a.input_elems for a in activity)
    adjusted = sum(a.input_adjusted for a in activity)
    bit_ops = sum(a.sip_bit_ops for a in activity)
    adds = sum(a.mu_adds for a in activity)
    muls = sum(a.mu_muls for a in activity)
    exps = sum(a.mu_exps for a in activity)
    pdu_updates = sum(a.pdu_updates for a in activity)

    breakdown = {
        "weight_fetch": bytes_read * em.weight_byte_read + nibbles_read * em.weight_nibble_read,
        "input_fetch": input_elems * em.input_elem_read + adjusted * em.offset_adjust,
        "dot_product": bit_ops * em.sip_bit_op,
        "mu": adds * em.mu_add + muls * em.mu_mul + exps * em.mu_exp,
        "pdu": pdu_updates * em.pdu_update,
        "static": total_cycles * em.static_power,
    }
    return sum(breakdown.values()), breakdown
