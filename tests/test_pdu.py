import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprec.pdu import (
    Phase,
    PduConfig,
    TrackerState,
    classify_trace,
    thresholds,
)
from pdu_oracle import Precision, ScalarTracker, observe, scalar_observe


def _run(state, config, values):
    """Feed a one-element tracker; True where the next step runs at 8 bits."""
    out = []
    for v in values:
        observe(state, config, np.array([v]))
        out.append(bool(state.high_precision()[0]))
    return out


def test_thresholds_hand_case():
    lower, upper = thresholds(-0.2, 0.6, 0.1, 1e-6)
    assert lower == pytest.approx(-0.28, rel=1e-12)
    assert upper == pytest.approx(0.68, rel=1e-12)


def test_thresholds_degenerate_range_uses_epsilon():
    lower, upper = thresholds(0.0, 0.0, 0.1, 1e-6)
    assert lower == pytest.approx(-1e-7)
    assert upper == pytest.approx(1e-7)


def test_thresholds_zero_beta_identity():
    assert thresholds(-0.5, 1.5, 0.0, 1e-6) == (-0.5, 1.5)


def test_thresholds_rejects_inverted_range():
    with pytest.raises(ValueError):
        thresholds(1.0, 0.0, 0.1, 1e-6)
    with pytest.raises(ValueError):
        thresholds(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.1, 1e-6)


def test_thresholds_arrays_match_scalars():
    rng = np.random.default_rng(5)
    lo = rng.normal(0, 1, 50)
    hi = lo + np.abs(rng.normal(0, 1, 50)) * (rng.random(50) < 0.7)
    for beta in (0.0, 0.1, math.inf):
        lower, upper = thresholds(lo, hi, beta, 1e-6)
        for k in range(50):
            assert (lower[k], upper[k]) == thresholds(float(lo[k]), float(hi[k]), beta, 1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        PduConfig(0, 5, 5)
    with pytest.raises(ValueError):
        PduConfig(4, 5, 5, beta=-0.1)
    with pytest.raises(ValueError):
        PduConfig(4, 5, 5, epsilon_range=0.0)
    PduConfig(4, 5, 5, beta=math.inf)  # infinitely wide band is allowed


def test_config_for_sequence_resolution():
    cfg = PduConfig.for_sequence(200)
    assert cfg.t_profile == 10 and cfg.m_max_peak == 10 and cfg.n_max_stable == 10
    cfg = PduConfig.for_sequence(20)
    assert cfg.t_profile == 4  # clamped up
    assert cfg.m_max_peak == 1
    cfg = PduConfig.for_sequence(10_000)
    assert cfg.t_profile == 64  # clamped down
    cfg = PduConfig.for_sequence(100, t_profile=7, m_max_peak=3)
    assert cfg.t_profile == 7 and cfg.m_max_peak == 3 and cfg.n_max_stable == 5


def test_profiling_then_peak_then_recovery():
    # Hand-traced: T=4 profile over [0.0, 0.1, -0.1, 0.2] -> band (-0.13, 0.23).
    cfg = PduConfig(t_profile=4, m_max_peak=10, n_max_stable=10, beta=0.1)
    state = TrackerState.fresh(1)
    assert _run(state, cfg, [0.0, 0.1, -0.1, 0.2]) == [False] * 4
    assert state.phase[0] == Phase.STABLE
    assert state.lower[0] == pytest.approx(-0.13, rel=1e-12)
    assert state.upper[0] == pytest.approx(0.23, rel=1e-12)

    assert _run(state, cfg, [0.5]) == [True]
    assert state.phase[0] == Phase.IN_PEAK

    assert _run(state, cfg, [0.2]) == [False]
    assert state.phase[0] == Phase.STABLE


def test_constant_signal_never_peaks_and_reprofiles():
    cfg = PduConfig(t_profile=4, m_max_peak=10, n_max_stable=10)
    state = TrackerState.fresh(1)
    profiling_entries = 0
    for _ in range(200):
        was_profiling = state.phase[0] == Phase.PROFILING
        assert _run(state, cfg, [0.0]) == [False]
        if state.phase[0] == Phase.PROFILING and not was_profiling:
            profiling_entries += 1
    assert profiling_entries >= 10  # periodic forced re-profiling


def test_stable_overstay_triggers_profiling():
    cfg = PduConfig(t_profile=2, m_max_peak=50, n_max_stable=3)
    state = TrackerState.fresh(1)
    _run(state, cfg, [0.0, 0.0])
    assert state.phase[0] == Phase.STABLE
    _run(state, cfg, [0.0, 0.0, 0.0])
    assert state.phase[0] == Phase.STABLE and state.steps_in_phase[0] == 3
    _run(state, cfg, [0.0])  # fourth stable step exceeds N=3
    assert state.phase[0] == Phase.PROFILING
    assert state.steps_in_phase[0] == 0


def test_peak_overstay_triggers_profiling_and_drops_precision():
    cfg = PduConfig(t_profile=2, m_max_peak=3, n_max_stable=50)
    state = TrackerState.fresh(1)
    _run(state, cfg, [0.0, 0.0])
    # entry observation plus M=3 further ones stay high; staying longer re-profiles
    assert _run(state, cfg, [5.0, 5.0, 5.0, 5.0]) == [True] * 4
    assert _run(state, cfg, [5.0]) == [False]
    assert state.phase[0] == Phase.PROFILING


def test_high_precision_iff_in_peak():
    # the scalar tracker returned its precision; it is 8 bits exactly in a peak,
    # which is what the array tracker's high_precision() derives from the phase
    cfg = PduConfig(t_profile=3, m_max_peak=4, n_max_stable=6)
    values = np.random.default_rng(0).normal(0, 1, (500, 3))
    state = TrackerState.fresh(3)
    oracles = [ScalarTracker() for _ in range(3)]
    for row in values:
        observe(state, cfg, row)
        high = state.high_precision()
        for k, tracker in enumerate(oracles):
            precision = scalar_observe(tracker, cfg, row[k])
            assert (precision is Precision.HIGH8) == (tracker.phase is Phase.IN_PEAK) == bool(high[k])


def test_no_phase_outlasts_its_counter():
    cfg = PduConfig(t_profile=4, m_max_peak=5, n_max_stable=7)
    rng = np.random.default_rng(3)
    state = TrackerState.fresh(1)
    current_phase, run_length = state.phase[0], 0
    for v in rng.normal(0, 2, 2000):
        _run(state, cfg, [v])
        if state.phase[0] == current_phase:
            run_length += 1
        else:
            current_phase, run_length = state.phase[0], 1
        if current_phase != Phase.PROFILING:
            assert run_length <= max(cfg.m_max_peak, cfg.n_max_stable) + 1


def test_jump_after_flat_profiling_is_a_peak():
    cfg = PduConfig(t_profile=4, m_max_peak=10, n_max_stable=100, beta=0.1, epsilon_range=1e-6)
    state = TrackerState.fresh(1)
    _run(state, cfg, [0.25] * 6)
    jump = 0.25 + cfg.epsilon_range * (1 + cfg.beta) * 1.01
    assert _run(state, cfg, [jump]) == [True]
    assert state.phase[0] == Phase.IN_PEAK


def test_observe_rejects_non_finite():
    cfg = PduConfig(4, 4, 4)
    with pytest.raises(ValueError):
        observe(TrackerState.fresh(1), cfg, np.array([float("nan")]))
    with pytest.raises(ValueError):
        observe(TrackerState.fresh(2), cfg, np.array([0.0, math.inf]))


def test_observe_rejects_wrong_width():
    with pytest.raises(ValueError):
        observe(TrackerState.fresh(2), PduConfig(4, 4, 4), np.zeros(3))


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=10, max_size=120))
@settings(max_examples=200)
def test_wider_margin_never_peaks_first(values):
    """While the two phase timelines coincide the bands are nested, so the
    wide-margin tracker can never be the one sitting in a peak when the
    timelines first diverge (it may drop to stable or straight to a forced
    re-profile while the narrow one flags the peak)."""
    cfg_narrow = PduConfig(t_profile=4, m_max_peak=6, n_max_stable=9, beta=0.05)
    cfg_wide = PduConfig(t_profile=4, m_max_peak=6, n_max_stable=9, beta=0.2)
    narrow, wide = TrackerState.fresh(1), TrackerState.fresh(1)
    for v in values:
        _run(narrow, cfg_narrow, [v])
        _run(wide, cfg_wide, [v])
        if narrow.phase[0] != wide.phase[0]:
            assert wide.phase[0] != Phase.IN_PEAK
            break


_TRANSITIONS = {
    (Phase.PROFILING, Phase.STABLE): "profiled",
    (Phase.STABLE, Phase.IN_PEAK): "peak_entry",
    (Phase.IN_PEAK, Phase.STABLE): "peak_exit",
    (Phase.STABLE, Phase.PROFILING): "stable_overstay",
    (Phase.IN_PEAK, Phase.PROFILING): "peak_overstay",
}


def _assert_matches_oracle(trace: np.ndarray, config: PduConfig) -> Counter:
    """Step the array tracker and one scalar tracker per element side by side.

    Every register must agree after every step; the band only outside
    profiling, where it is defined. Returns the counts of phase transitions
    and of steps whose elements sit in more than one phase.
    """
    n_steps, n_elems = trace.shape
    state = TrackerState.fresh(n_elems)
    oracles = [ScalarTracker() for _ in range(n_elems)]
    events: Counter = Counter()
    for t in range(n_steps):
        observe(state, config, trace[t])
        for k, tracker in enumerate(oracles):
            before = tracker.phase
            scalar_observe(tracker, config, trace[t, k])
            assert state.phase[k] == tracker.phase, (t, k)
            assert state.steps_in_phase[k] == tracker.steps_in_phase, (t, k)
            assert state.min_c[k] == tracker.min_c and state.max_c[k] == tracker.max_c, (t, k)
            if tracker.phase is Phase.PROFILING:
                assert math.isnan(state.lower[k]) and math.isnan(state.upper[k])
            else:
                assert (state.lower[k], state.upper[k]) == (tracker.lower, tracker.upper), (t, k)
            if before is not tracker.phase:
                events[_TRANSITIONS[before, tracker.phase]] += 1
        if len(set(state.phase.tolist())) > 1:
            events["mixed_step"] += 1
    return events


_LEVELS = (0.0, 0.1, 0.25, 0.2500001, 3.0, -2.0)


@st.composite
def _traces(draw) -> np.ndarray:
    """[steps, elements] traces mixing constant, few-level and free columns."""
    n_steps = draw(st.integers(1, 60))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("constant", "levels", "free")))
        if kind == "constant":
            columns.append([draw(st.sampled_from(_LEVELS))] * n_steps)
        else:
            values = (
                st.sampled_from(_LEVELS)
                if kind == "levels"
                else st.floats(-5, 5, allow_nan=False, allow_infinity=False)
            )
            columns.append(draw(st.lists(values, min_size=n_steps, max_size=n_steps)))
    return np.array(columns, dtype=np.float64).T


_configs = st.builds(
    PduConfig,
    t_profile=st.integers(1, 6),
    m_max_peak=st.integers(1, 6),
    n_max_stable=st.integers(1, 6),
    beta=st.sampled_from((0.0, 0.05, 0.1, 0.5, math.inf)),
    epsilon_range=st.sampled_from((1e-6, 0.05, 1.0)),
)


@given(_traces(), _configs)
@settings(max_examples=300, deadline=None)
def test_array_tracker_matches_scalar_oracle(trace, config):
    _assert_matches_oracle(trace, config)


def _event_trace() -> np.ndarray:
    """Four elements that, under T=3, M=4, N=5, go through every transition."""
    n_steps = 80
    flat = np.full(n_steps, 0.5)  # constant: degenerate range, stable overstays
    stuck = np.where(np.arange(n_steps) < 3, 0.0, 5.0)  # one long peak: peak overstays
    blips = np.zeros(n_steps)
    blips[[5, 6, 20, 33, 50]] = 3.0  # short peaks that recover
    noise = np.random.default_rng(11).normal(0, 1, n_steps)
    return np.stack([flat, stuck, blips, noise], axis=1)


@pytest.mark.parametrize("beta", [0.0, 0.1, math.inf])
def test_array_tracker_matches_oracle_through_every_transition(beta):
    config = PduConfig(t_profile=3, m_max_peak=4, n_max_stable=5, beta=beta)
    events = _assert_matches_oracle(_event_trace(), config)
    assert events["profiled"] and events["stable_overstay"]
    if beta == math.inf:
        assert not events["peak_entry"]  # an infinite band never peaks
    else:
        assert events["peak_entry"] and events["peak_exit"] and events["peak_overstay"]
        assert events["mixed_step"]


def test_classify_trace_matches_scalar_loop():
    # several configs and layers in one pass, each element against its own scalar tracker
    configs = [
        PduConfig(t_profile=4, m_max_peak=5, n_max_stable=7),
        PduConfig(t_profile=3, m_max_peak=1, n_max_stable=2, beta=0.0, epsilon_range=0.5),
        PduConfig(t_profile=5, m_max_peak=10**20, n_max_stable=10**20, beta=math.inf),
    ]
    rng = np.random.default_rng(8)
    for widths in [(3,), (3, 2)]:  # one layer, then two layers of different widths
        traces = [rng.normal(0, 1, (60, n)) for n in widths]
        phases = classify_trace(traces, configs)
        assert len(phases) == len(configs)
        for cfg, cfg_phases in zip(configs, phases):
            assert [p.shape for p in cfg_phases] == [(60, n) for n in widths]
            for trace, layer_phases in zip(traces, cfg_phases):
                for k in range(trace.shape[1]):
                    tracker = ScalarTracker()
                    for t in range(60):
                        p = scalar_observe(tracker, cfg, trace[t, k])
                        assert layer_phases[t, k] == tracker.phase
                        assert (p is Precision.HIGH8) == (layer_phases[t, k] == Phase.IN_PEAK)


def test_classify_trace_rejects_bad_shape():
    with pytest.raises(ValueError):
        classify_trace([np.zeros(5)], [PduConfig(4, 4, 4)])
    with pytest.raises(ValueError):  # layers of different lengths
        classify_trace([np.zeros((5, 2)), np.zeros((4, 2))], [PduConfig(4, 4, 4)])
