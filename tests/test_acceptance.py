"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dynprec.accel import AccelConfig, SipConfig, compare, simulate, sip_cycles
from dynprec.harness import Point, gen_toy, relative_error_stats, render_report, run_experiment
from dynprec.lstm_quant import Mode, quantize_model, run_quantized
from dynprec.lstm_ref import run_fp32
from dynprec.pdu import PduConfig, Phase, TrackerState, classify_trace
from dynprec.quant import QuantParams
from accel_oracle import zero_dynamic
from quant_oracle import dot_int, encode_dual, extract_low, quantize
from sip_oracle import sip_dot, sip_dot_batch


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def flat_toy():
    model, seq = gen_toy("flat", (1, 16, 16, 200), 0)
    return model, quantize_model(model), seq


@pytest.fixture(scope="module")
def peaky_toy():
    model, seq = gen_toy("peaky", (1, 16, 16, 200), 0)
    return model, quantize_model(model), seq


def test_criterion_01_bit_serial_equivalence():
    started = time.time()
    mismatches = 0

    values = range(-7, 8)
    for w, x in itertools.product(values, values):
        if sip_dot([w], [x], 4).value != dot_int([w], [x]):
            mismatches += 1
    for a, b, c, d in itertools.product(values, repeat=4):
        if sip_dot([a, b], [c, d], 4).value != dot_int([a, b], [c, d]):
            mismatches += 1

    # all 15^6 length-3 operand pairs, streamed through the batched entry point
    total = 15**6
    chunk = 1 << 20
    base = np.arange(-7, 8, dtype=np.int64)
    rng = np.random.default_rng(42)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = [base[(idx // 15**p) % 15] for p in range(6)]
        w = np.stack(cols[:3], axis=1)
        x = np.stack(cols[3:], axis=1)
        got, _ = sip_dot_batch(w, x, 4)
        want = np.einsum("ij,ij->i", w, x)
        mismatches += int((got != want).sum())
        # tie the vectorized oracle back to dot_int on a sample of rows
        for r in rng.integers(0, idx.size, 200):
            if dot_int(w[r], x[r]) != want[r]:
                mismatches += 1

    for precision in (4, 8):
        limit = 2 ** (precision - 1) - 1
        for _ in range(5000):
            w = rng.integers(-127, 128, 1024)
            x = rng.integers(-limit, limit + 1, 1024)
            if sip_dot(w, x, precision).value != dot_int(w, x):
                mismatches += 1

    elapsed = time.time() - started
    _verdict(
        1,
        "bit-serial dot products equal the parallel integer dot product",
        mismatches == 0 and elapsed < 60.0,
        f"0 tolerance, {elapsed:.1f}s",
    )


def test_criterion_02_offset_bit_always_sufficient():
    alpha = 1.0
    params4 = QuantParams(alpha, 4)
    mismatches = 0
    n_points = 100_001
    for y in np.linspace(-alpha, alpha, n_points):
        y = float(y)
        if extract_low(encode_dual(y, alpha)).value != quantize(y, params4).value:
            mismatches += 1
    _verdict(
        2,
        "packed nibble plus offset bit reproduces the 4-bit index on a dense grid",
        mismatches == 0,
        f"{n_points} points incl. saturation, 0 mismatches required, {mismatches} found",
    )


def test_criterion_03_cycle_halving(flat_toy):
    _, qmodel, seq = flat_toy
    cfg = SipConfig()
    width = cfg.elements_per_pass
    halved = all(
        sip_cycles(k * width, 4, cfg) * 2 == sip_cycles(k * width, 8, cfg)
        for k in range(1, 101)
    )
    low = simulate(qmodel, seq, Mode.STATIC4)
    high = simulate(qmodel, seq, Mode.STATIC8)
    speedup, _ = compare(low, high)
    _verdict(
        3,
        "4-bit serial operands halve cycles; end-to-end static speedup is 2.00 +/- 0.05",
        halved and abs(speedup - 2.0) <= 0.05,
        f"speedup={speedup:.4f}",
    )


def test_criterion_04_flat_input_dynamic_behavior(flat_toy):
    model, _, seq = flat_toy
    (result,) = run_experiment(model, seq, [Mode.DYNAMIC])
    usage = result.sims["dynamic"].run.low_precision_usage
    speedup = result.report["runs"]["dynamic"]["speedup_vs_static8"]
    _verdict(
        4,
        "flat input runs >=95% at low precision with >=1.9x speedup over static 8-bit",
        usage >= 0.95 and speedup >= 1.9,
        f"usage={usage:.3f}, speedup={speedup:.3f}",
    )


def test_criterion_05_peak_error_ordering(peaky_toy):
    model, qmodel, seq = peaky_toy
    fp = run_fp32(model, seq)
    pdu_cfg = PduConfig.for_sequence(len(seq))
    phases = classify_trace(fp.c, [pdu_cfg])[0]
    st4 = run_quantized(qmodel, seq, Mode.STATIC4)
    dyn = run_quantized(qmodel, seq, Mode.DYNAMIC, pdu_cfg)
    _, peak4, stable4 = relative_error_stats(fp, st4.trace, phases)
    _, peak_dyn, _ = relative_error_stats(fp, dyn.trace, phases)
    _verdict(
        5,
        "static-4 error concentrates in peaks (>=2x stable); dynamic strictly reduces it",
        peak4 >= 2 * stable4 and peak_dyn < peak4,
        f"static4 peak/stable={peak4 / stable4:.2f}, dynamic peak {peak_dyn:.4f} < {peak4:.4f}",
    )


def _pinned_in_peak(n_elements: int) -> TrackerState:
    """Trackers in a peak with an empty band: they never re-enter it."""
    state = TrackerState.fresh(n_elements)
    state.phase[:] = Phase.IN_PEAK
    state.lower[:] = math.inf
    state.upper[:] = -math.inf
    return state


def test_criterion_06_mode_equivalence_oracle(peaky_toy):
    _, qmodel, seq = peaky_toy
    wide = PduConfig.for_sequence(len(seq), beta=math.inf)
    dyn_wide = run_quantized(qmodel, seq, Mode.DYNAMIC, wide)
    st4 = run_quantized(qmodel, seq, Mode.STATIC4)
    wide_ok = all(
        np.array_equal(a, b) for a, b in zip(dyn_wide.trace.c, st4.trace.c)
    ) and all(np.array_equal(a, b) for a, b in zip(dyn_wide.precision_bits, st4.precision_bits))

    pinned_cfg = PduConfig.for_sequence(len(seq), m_max_peak=10 * len(seq))
    pinned = [_pinned_in_peak(layer.cell_size) for layer in qmodel.layers]
    dyn_pinned = run_quantized(qmodel, seq, Mode.DYNAMIC, pinned_cfg, trackers=pinned)
    st8 = run_quantized(qmodel, seq, Mode.STATIC8)
    pinned_ok = all(
        np.array_equal(a, b) for a, b in zip(dyn_pinned.trace.c, st8.trace.c)
    ) and all(np.array_equal(a, b) for a, b in zip(dyn_pinned.precision_bits, st8.precision_bits))

    _verdict(
        6,
        "wide-band dynamic equals static-4 and pinned-peak dynamic equals static-8, bit-exactly",
        wide_ok and pinned_ok,
    )


def test_criterion_07_fidelity_ordering():
    violations = []
    for seed in range(20):
        model, seq = gen_toy("random", (1, 8, 8, 60), seed)
        fp = run_fp32(model, seq)
        qmodel = quantize_model(model)
        err8 = np.mean(np.abs(run_quantized(qmodel, seq, Mode.STATIC8).trace.c[0] - fp.c[0]))
        err4 = np.mean(np.abs(run_quantized(qmodel, seq, Mode.STATIC4).trace.c[0] - fp.c[0]))
        if not err8 <= err4:
            violations.append(seed)
    _verdict(
        7,
        "static-8 tracks the full-precision cell state at least as well as static-4, all 20 seeds",
        not violations,
        f"violations={violations}" if violations else "20/20 seeds ordered",
    )


def test_criterion_08_energy_accounting(peaky_toy):
    _, qmodel, seq = peaky_toy
    low = simulate(qmodel, seq, Mode.STATIC4)
    high = simulate(qmodel, seq, Mode.STATIC8)
    dyn = simulate(qmodel, seq, Mode.DYNAMIC)
    sums_exact = all(
        sim.energy_total == sum(sim.energy_breakdown.values())
        for sim in (low, high, dyn)
    )
    fetch_ratio = low.energy_breakdown["weight_fetch"] / high.energy_breakdown["weight_fetch"]
    em = zero_dynamic(static_power=3.0)
    zeroed = simulate(qmodel, seq, Mode.STATIC8, energy_model=em)
    static_only = zeroed.energy_total == 3.0 * zeroed.total_cycles
    _verdict(
        8,
        "energy breakdown sums exactly; nibble fetches cost exactly half; zero profile is static-only",
        sums_exact and fetch_ratio == 0.5 and static_only,
        f"fetch ratio={fetch_ratio}",
    )


def test_criterion_09_closed_form_timing(peaky_toy):
    _, qmodel, seq = peaky_toy
    cfg = AccelConfig()
    total8 = simulate(qmodel, seq, Mode.STATIC8, cfg).total_cycles
    worst = 0.0
    runs = [
        simulate(qmodel, seq, Mode.DYNAMIC, cfg),
        simulate(qmodel, seq, Mode.RANDOM, cfg, random_p=0.33, random_seed=1),
        simulate(qmodel, seq, Mode.RANDOM, cfg, random_p=0.66, random_seed=2),
    ]
    for sim in runs:
        u = sim.run.low_precision_usage
        predicted = total8 * (1 - u / 2)
        worst = max(worst, abs(sim.total_cycles - predicted) / predicted)
    _verdict(
        9,
        "simulated cycles match total8 * (1 - usage/2) within 2% at uniform fan-in",
        worst <= 0.02,
        f"worst deviation={worst * 100:.3f}%",
    )


def test_criterion_10_determinism(tmp_path):
    model, seq = gen_toy("peaky", (1, 12, 12, 150), 5)
    texts = []
    for _ in range(2):
        (result,) = run_experiment(model, seq, [Mode.STATIC4, Mode.DYNAMIC, Mode.RANDOM], [Point(seed=123)])
        texts.append(render_report(result.report))
    paths = []
    for i, text in enumerate(texts):
        p = tmp_path / f"report{i}.json"
        p.write_text(text)
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _verdict(
        10,
        "repeated runs with fixed seeds produce byte-identical reports",
        identical,
        f"{len(texts[0])} bytes",
    )
