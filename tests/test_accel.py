import dataclasses
import math

import numpy as np
import pytest

from dynprec.accel import (
    MAX_CYCLES,
    AccelConfig,
    CapacityError,
    EnergyModel,
    SipConfig,
    check_capacity,
    _step_cycles,
    compare,
    cost_run,
)
from dynprec.harness import Point, gen_toy, simulate
from dynprec.lstm_ref import InputSequence, LstmLayer, LstmModel
from dynprec.lstm_quant import Mode, quantize_model, run_quantized
from dynprec.pdu import PduConfig
from accel_oracle import energy_reference, step_cycles_reference, without_overheads, zero_dynamic
from quant_oracle import run_quantized_reference


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
    rng = np.random.default_rng(1001)
    model = _random_model(rng, [(16, 16)])
    seq = InputSequence(rng.uniform(-1, 1, (60, 16)))
    return quantize_model(model), seq


def test_cycle_ratio_exactly_two_without_overheads(toy):
    qmodel, seq = toy
    cfg = without_overheads(AccelConfig())
    low = simulate(qmodel, seq, Mode.STATIC4, Point(cfg))
    high = simulate(qmodel, seq, Mode.STATIC8, Point(cfg))
    assert high.total_cycles == 2 * low.total_cycles
    speedup, savings = compare(low, high)
    assert speedup == 2.0
    assert savings > 0.0


def test_cycle_ratio_near_two_with_default_overheads(toy):
    qmodel, seq = toy
    low = simulate(qmodel, seq, Mode.STATIC4)
    high = simulate(qmodel, seq, Mode.STATIC8)
    speedup, _ = compare(low, high)
    assert speedup == pytest.approx(2.0, abs=0.05)


def test_mixed_run_matches_closed_form(toy):
    qmodel, seq = toy
    cfg = AccelConfig()
    total8 = simulate(qmodel, seq, Mode.STATIC8, Point(cfg)).total_cycles
    for seed in (1, 2, 3):
        mixed = simulate(qmodel, seq, Mode.RANDOM, Point(cfg, random_p=0.4, seed=seed))
        u = mixed.run.low_precision_usage
        predicted = total8 * (1 - u / 2)
        assert mixed.total_cycles == pytest.approx(predicted, rel=0.02)


def test_energy_breakdown_sums_to_total(toy):
    qmodel, seq = toy
    for mode in (Mode.STATIC8, Mode.STATIC4, Mode.DYNAMIC):
        out = simulate(qmodel, seq, mode)
        assert out.energy_total == sum(out.energy_breakdown.values())


def test_weight_fetch_energy_ratio_half(toy):
    qmodel, seq = toy
    low = simulate(qmodel, seq, Mode.STATIC4)
    high = simulate(qmodel, seq, Mode.STATIC8)
    assert low.energy_breakdown["weight_fetch"] == 0.5 * high.energy_breakdown["weight_fetch"]


def test_zero_coefficients_leave_only_static_energy(toy):
    qmodel, seq = toy
    em = zero_dynamic(static_power=2.5)
    out = simulate(qmodel, seq, Mode.STATIC8, Point(energy_model=em))
    assert out.energy_total == 2.5 * out.total_cycles


def test_cycles_monotone_in_low_precision_usage(toy):
    qmodel, seq = toy
    cfg = without_overheads(AccelConfig())
    prev = None
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = simulate(qmodel, seq, Mode.RANDOM, Point(cfg, random_p=p, seed=11))
        if prev is not None:
            assert out.total_cycles <= prev
        prev = out.total_cycles


def test_compare_identity(toy):
    qmodel, seq = toy
    a = simulate(qmodel, seq, Mode.STATIC8)
    b = simulate(qmodel, seq, Mode.STATIC8)
    assert compare(a, b) == (1.0, 0.0)


def test_compare_rejects_different_inputs(toy):
    qmodel, seq = toy
    other_seq = InputSequence(np.asarray(seq.steps) * 0.5)
    a = simulate(qmodel, seq, Mode.STATIC8)
    b = simulate(qmodel, other_seq, Mode.STATIC8)
    with pytest.raises(ValueError):
        compare(a, b)


def test_mu_drain_floors_small_layers():
    rng = np.random.default_rng(4)
    model = _random_model(rng, [(2, 2)])
    qmodel = quantize_model(model)
    seq = InputSequence(rng.uniform(-1, 1, (10, 2)))
    cfg = AccelConfig()
    out = simulate(qmodel, seq, Mode.STATIC4, Point(cfg))
    # dot products cost 2*(4) = 8 cycles per element * 2 elements = 16 per step,
    # below the scalar-unit drain, so the drain dominates every step
    drain = cfg.mu_drain_cycles()
    assert out.total_cycles == drain + 10 * drain


def test_bandwidth_ceiling_stretches_steps(toy):
    qmodel, seq = toy
    fast = simulate(qmodel, seq, Mode.STATIC4)
    slow_cfg = dataclasses.replace(AccelConfig(), peak_bandwidth=1e3)
    slow = simulate(qmodel, seq, Mode.STATIC4, Point(slow_cfg))
    assert slow.total_cycles > fast.total_cycles
    dram_bytes = (16 + 16) * 4
    min_step = math.ceil(dram_bytes * slow_cfg.frequency_hz / slow_cfg.peak_bandwidth)
    assert slow.total_cycles >= 60 * min_step


def test_capacity_errors_name_the_buffer(toy):
    qmodel, seq = toy
    em = EnergyModel()
    with pytest.raises(CapacityError, match="weight buffer"):
        check_capacity(qmodel, seq, dataclasses.replace(AccelConfig(), weight_buffer_bytes=16), em, Mode.STATIC8)
    with pytest.raises(CapacityError, match="input buffer"):
        check_capacity(qmodel, seq, dataclasses.replace(AccelConfig(), input_buffer_bytes=4), em, Mode.STATIC8)
    with pytest.raises(CapacityError, match="intermediate memory"):
        check_capacity(qmodel, seq, dataclasses.replace(AccelConfig(), intermediate_bytes=64), em, Mode.STATIC8)
    with pytest.raises(CapacityError, match="peak detector buffer"):
        check_capacity(qmodel, seq, dataclasses.replace(AccelConfig(), pdu_buffer_bytes=8), em, Mode.DYNAMIC)
    check_capacity(qmodel, seq, AccelConfig(), em, Mode.DYNAMIC)


def test_simulate_propagates_capacity_error(toy):
    qmodel, seq = toy
    cfg = dataclasses.replace(AccelConfig(), weight_buffer_bytes=16)
    with pytest.raises(CapacityError):
        simulate(qmodel, seq, Mode.STATIC8, Point(cfg))


def test_wall_time_follows_frequency(toy):
    qmodel, seq = toy
    out = simulate(qmodel, seq, Mode.STATIC8)
    assert out.wall_time_s == out.total_cycles / 500e6


def test_dynamic_run_charges_pdu_energy(toy):
    qmodel, seq = toy
    dyn = simulate(qmodel, seq, Mode.DYNAMIC, Point(pdu_config=PduConfig.for_sequence(len(seq))))
    st = simulate(qmodel, seq, Mode.STATIC4)
    assert dyn.energy_breakdown["pdu"] > 0.0
    assert st.energy_breakdown["pdu"] == 0.0


# coefficients with no short binary form, so a reordered sum shows in the last bits
_ODD_ENERGY = EnergyModel(0.7, 0.3, 0.9, 0.013, 0.17, 0.41, 1.3, 0.23, 0.11, 4.7)


@pytest.mark.parametrize("dims", [[(6, 8)], [(5, 7), (7, 3)], [(4, 9), (9, 2), (2, 5)]])
@pytest.mark.parametrize("mode", list(Mode))
def test_energy_matches_per_step_oracle(mode, dims):
    rng = np.random.default_rng(33)
    qmodel = quantize_model(_random_model(rng, dims))
    seq = InputSequence(rng.uniform(-1, 1, (30, dims[0][0])))
    want_run, steps = run_quantized_reference(qmodel, seq, mode, random_p=0.5, random_seed=4)
    for em in (EnergyModel(), _ODD_ENERGY):
        sim = simulate(qmodel, seq, mode, Point(energy_model=em, random_p=0.5, seed=4))
        assert sim.run.input_adjusted == want_run.input_adjusted
        assert all(type(v) is int for v in sim.run.input_adjusted)
        want_total, want_breakdown = energy_reference(steps, sim.total_cycles, em)
        assert list(sim.energy_breakdown) == list(want_breakdown)
        for key, value in want_breakdown.items():
            assert sim.energy_breakdown[key] == value, key
        assert sim.energy_total == want_total


def test_energy_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(weight_byte_read=0.4, weight_nibble_read=0.5)
    with pytest.raises(ValueError):
        EnergyModel(mu_add=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            EnergyModel(static_power=bad)


def test_accel_config_validation():
    with pytest.raises(ValueError):
        AccelConfig(frequency_hz=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            AccelConfig(frequency_hz=bad)
        with pytest.raises(ValueError):
            AccelConfig(peak_bandwidth=bad)
    with pytest.raises(ValueError):
        AccelConfig(mu_add_cycles=-1)
    with pytest.raises(ValueError):
        AccelConfig(weight_buffer_bytes=0)


# 16x16 layer: 8 cycles per element at 4 bits and 16 at 8 bits, so a step
# costs 128 + 8 * n_high dot-product cycles; the default drain is 93 cycles.
_REGIME_CASES = {
    "dot": ([(16, 16)], {}, Mode.RANDOM, {"dot"}),
    "drain": ([(2, 2)], {}, Mode.STATIC4, {"drain"}),
    "bandwidth": ([(16, 16)], {"peak_bandwidth": 1e3}, Mode.STATIC4, {"bandwidth"}),
    "dot+drain": ([(16, 16)], {"mu_comm_cycles": 109}, Mode.RANDOM, {"dot", "drain"}),  # drain 200
    "dot+bandwidth": ([(16, 16)], {"peak_bandwidth": 3.4e8}, Mode.RANDOM, {"dot", "bandwidth"}),  # 189
    "pdu drain": (
        [(2, 2), (2, 3)],
        {"mu_add_cycles": 0, "mu_mul_cycles": 0, "mu_exp_cycles": 0, "mu_comm_cycles": 0, "pdu_update_cycles": 90},
        Mode.DYNAMIC,
        {"drain"},
    ),
    "two layers": ([(16, 16), (16, 24)], {}, Mode.DYNAMIC, {"dot"}),
}


@pytest.mark.parametrize("case", sorted(_REGIME_CASES))
def test_step_cycles_match_per_step_oracle(case):
    dims, overrides, mode, regimes = _REGIME_CASES[case]
    rng = np.random.default_rng(21)
    qmodel = quantize_model(_random_model(rng, dims))
    seq = InputSequence(rng.uniform(-1, 1, (60, dims[0][0])))
    cfg = dataclasses.replace(AccelConfig(), **overrides)
    run = simulate(qmodel, seq, mode, Point(cfg, random_p=0.5, seed=5)).run
    dynamic = mode is Mode.DYNAMIC
    total, steps = _step_cycles(qmodel, run, cfg, dynamic)
    want_total, want_steps, want_regimes = step_cycles_reference(qmodel, run, cfg, dynamic)
    assert type(total) is int and total == want_total
    assert steps.dtype == np.int64 and steps.tolist() == want_steps
    assert set(want_regimes) == regimes


def test_cycle_count_beyond_int64_is_a_capacity_error(toy):
    qmodel, seq = toy
    huge = dataclasses.replace(AccelConfig(), sip=SipConfig(reduction_latency=MAX_CYCLES // 4))
    with pytest.raises(CapacityError, match="cycle counter"):
        simulate(qmodel, seq, Mode.STATIC4, Point(huge))
    slow = dataclasses.replace(AccelConfig(), frequency_hz=1e300, peak_bandwidth=1e-300)
    with pytest.raises(CapacityError, match="cycle counter"):
        simulate(qmodel, seq, Mode.STATIC4, Point(slow))
    # a step stretched to 2**51 - 0.5 cycles is charged 2**51, so 4096 of them pass the counter although
    # 4096 fractional steps (2**63 - 2048) would not
    model, long_seq = gen_toy("flat", (1, 1, 1, 4096), 1)
    stretched = dataclasses.replace(AccelConfig(), frequency_hz=2251799813685247.5, peak_bandwidth=8)
    with pytest.raises(CapacityError, match="cycle counter"):
        simulate(quantize_model(model), long_seq, Mode.STATIC8, Point(stretched))


def test_simulate_refuses_what_a_report_cannot_hold(toy):
    qmodel, seq = toy
    with pytest.raises(ValueError, match="static8 run's wall time"):
        simulate(qmodel, seq, Mode.STATIC8, Point(AccelConfig(frequency_hz=1e-320)))
    # a static 8-bit baseline with no energy, which compare would divide by
    with pytest.raises(ValueError, match="baseline energy of at least 0.0"):
        simulate(qmodel, seq, Mode.STATIC4, Point(energy_model=zero_dynamic(static_power=0.0)))


@pytest.mark.parametrize(
    "config, em",
    [(AccelConfig(frequency_hz=1e-320), EnergyModel()), (AccelConfig(), EnergyModel(static_power=1e308))],
    ids=["wall time", "energy"],
)
def test_cost_run_refuses_a_non_finite_cost(config, em):
    # what check_capacity refuses up front, cost_run refuses too when called without it
    model, seq = gen_toy("flat", (1, 2, 2, 5), 1)
    qmodel = quantize_model(model)
    with pytest.raises(ValueError, match="static8 run costs"):
        cost_run(qmodel, seq, run_quantized(qmodel, seq, Mode.STATIC8), config, em)
