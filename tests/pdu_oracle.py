"""Scalar reference for the array tracker in ``dynprec.pdu``.

One ``ScalarTracker`` per element, advanced one observation at a time:
the per-element state machine the array tracker must reproduce. It
shares ``thresholds`` with the array tracker, so both compute the same
band bits. Restarting a profiling window keeps the old band here; the
array tracker clears it to NaN, and the band means nothing while an
element profiles. ``observe`` feeds the array tracker with one
``PduConfig`` for every element.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from dynprec.pdu import PduConfig, Phase, TrackerConfig, TrackerState, pdu_observe, thresholds


class Precision(enum.IntEnum):
    """Selector values double as the bit width of the serial operand."""

    LOW4 = 4
    HIGH8 = 8


@dataclass
class ScalarTracker:
    phase: Phase = Phase.PROFILING
    min_c: float = math.inf
    max_c: float = -math.inf
    lower: float = math.nan
    upper: float = math.nan
    steps_in_phase: int = 0


def _restart_profiling(tracker: ScalarTracker) -> None:
    tracker.phase = Phase.PROFILING
    tracker.min_c = math.inf
    tracker.max_c = -math.inf
    tracker.steps_in_phase = 0


def scalar_observe(tracker: ScalarTracker, config: PduConfig, c_value: float) -> Precision:
    """Fold one cell-state observation and return the precision for the next step."""
    c_value = float(c_value)
    if not math.isfinite(c_value):
        raise ValueError(f"cell-state value must be finite, got {c_value!r}")

    if tracker.phase is Phase.PROFILING:
        tracker.min_c = min(tracker.min_c, c_value)
        tracker.max_c = max(tracker.max_c, c_value)
        tracker.steps_in_phase += 1
        if tracker.steps_in_phase >= config.t_profile:
            tracker.lower, tracker.upper = thresholds(
                tracker.min_c, tracker.max_c, config.beta, config.epsilon_range
            )
            tracker.phase = Phase.STABLE
            tracker.steps_in_phase = 0
        return Precision.LOW4
    if tracker.phase is Phase.STABLE:
        if c_value < tracker.lower or c_value > tracker.upper:
            tracker.phase = Phase.IN_PEAK
            tracker.steps_in_phase = 0
            return Precision.HIGH8
        tracker.steps_in_phase += 1
        if tracker.steps_in_phase > config.n_max_stable:
            _restart_profiling(tracker)
        return Precision.LOW4
    # IN_PEAK
    if tracker.lower <= c_value <= tracker.upper:
        tracker.phase = Phase.STABLE
        tracker.steps_in_phase = 0
        return Precision.LOW4
    tracker.steps_in_phase += 1
    if tracker.steps_in_phase > config.m_max_peak:
        _restart_profiling(tracker)
        return Precision.LOW4
    return Precision.HIGH8


def observe(state: TrackerState, config: PduConfig, c_vector: np.ndarray) -> None:
    """``pdu_observe`` with one ``PduConfig`` for every element."""
    pdu_observe(state, TrackerConfig.spread([config], state.phase.size), c_vector)
