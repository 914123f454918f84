"""Per-element precision selection driven by cell-state stability.

Every cell-state element owns a small tracker with three phases. A
profiling window of ``t_profile`` observations records the element's
recent range; the range plus a ``beta`` margin defines a band. While
the value stays inside the band the element is *stable* and the next
step is evaluated at 4 bits. A value outside the band is a *peak*: the
element runs at 8 bits exactly while in a peak. Staying in a peak for
more than ``m_max_peak`` steps, or stable for more than ``n_max_stable``
steps, forces a fresh profiling window so the band tracks slow drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Phase(enum.IntEnum):
    PROFILING = 0
    STABLE = 1
    IN_PEAK = 2


# plain ints for the per-step array compares; NumPy converts enum members slowly
_PROFILING, _STABLE, _IN_PEAK = (int(p) for p in Phase)


class Precision(enum.IntEnum):
    """Selector values double as the bit width of the serial operand."""

    LOW4 = 4
    HIGH8 = 8


@dataclass(frozen=True)
class PduConfig:
    t_profile: int
    m_max_peak: int
    n_max_stable: int
    beta: float = 0.1
    epsilon_range: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("t_profile", "m_max_peak", "n_max_stable"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if math.isnan(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta!r}")
        if not (self.epsilon_range > 0 and math.isfinite(self.epsilon_range)):
            raise ValueError(f"epsilon_range must be positive, got {self.epsilon_range!r}")

    @classmethod
    def for_sequence(
        cls,
        n_steps: int,
        *,
        beta: float = 0.1,
        epsilon_range: float = 1e-6,
        t_profile: int | None = None,
        m_max_peak: int | None = None,
        n_max_stable: int | None = None,
    ) -> "PduConfig":
        """Resolve the 5%-of-steps counter convention for a known-length sequence."""
        if n_steps < 1:
            raise ValueError("sequence length must be >= 1")
        five_pct = max(1, round(0.05 * n_steps))
        return cls(
            t_profile=t_profile if t_profile is not None else min(max(five_pct, 4), 64),
            m_max_peak=m_max_peak if m_max_peak is not None else five_pct,
            n_max_stable=n_max_stable if n_max_stable is not None else five_pct,
            beta=beta,
            epsilon_range=epsilon_range,
        )


def thresholds(min_c: float | np.ndarray, max_c: float | np.ndarray, beta: float, epsilon_range: float):
    """Band limits around the profiled range, guarded against a degenerate range (elementwise)."""
    if np.any(max_c < min_c):
        raise ValueError(f"max_c {max_c} < min_c {min_c}")
    r = np.maximum(max_c - min_c, epsilon_range)
    return min_c - r * beta, max_c + r * beta


@dataclass(eq=False)
class TrackerState:
    """The trackers of one layer as arrays of registers, one entry per element.

    ``lower`` and ``upper`` are NaN while an element profiles.
    """

    phase: np.ndarray  # int8 Phase values
    min_c: np.ndarray
    max_c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    steps_in_phase: np.ndarray  # int64

    @classmethod
    def fresh(cls, n_elements: int) -> "TrackerState":
        return cls(
            phase=np.full(n_elements, _PROFILING, dtype=np.int8),
            min_c=np.full(n_elements, math.inf),
            max_c=np.full(n_elements, -math.inf),
            lower=np.full(n_elements, math.nan),
            upper=np.full(n_elements, math.nan),
            steps_in_phase=np.zeros(n_elements, dtype=np.int64),
        )

    def high_precision(self) -> np.ndarray:
        """Elements that run at 8 bits on the next step: exactly those in a peak."""
        return self.phase == _IN_PEAK


def pdu_observe(state: TrackerState, config: PduConfig, c_vector: np.ndarray) -> None:
    """Fold one cell-state observation per element into the layer's trackers.

    Afterwards ``state.high_precision()`` selects the elements that run at
    8 bits on the next step.
    """
    c = np.asarray(c_vector, dtype=np.float64)
    if c.shape != state.phase.shape:
        raise ValueError(f"{state.phase.shape[0]} trackers but values of shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cell-state values must be finite")
    phase, steps = state.phase, state.steps_in_phase

    profiling = phase == _PROFILING
    np.minimum(state.min_c, c, out=state.min_c, where=profiling)
    np.maximum(state.max_c, c, out=state.max_c, where=profiling)
    steps += 1
    # NaN bands compare False, so only profiled elements can cross: a stable
    # one by leaving its band, an in-peak one by re-entering it
    outside = (c < state.lower) | (c > state.upper)
    crossed = outside != (phase == _IN_PEAK)
    limits = np.array((config.t_profile, config.n_max_stable + 1, config.m_max_peak + 1))
    changed = np.flatnonzero(crossed | (steps >= limits[phase]))
    if not changed.size:
        return  # most steps change no element's phase

    # A band crossing swaps stable and in-peak and beats an expired counter,
    # which ends profiling with a band or else forces a fresh profiling window.
    old = phase[changed]
    new = np.where(
        crossed[changed],
        np.where(outside[changed], _IN_PEAK, _STABLE),
        np.where(old == _PROFILING, _STABLE, _PROFILING),
    )
    phase[changed] = new
    steps[changed] = 0
    done = changed[old == _PROFILING]
    if done.size:
        state.lower[done], state.upper[done] = thresholds(
            state.min_c[done], state.max_c[done], config.beta, config.epsilon_range
        )
    restart = changed[new == _PROFILING]
    if restart.size:
        state.min_c[restart], state.max_c[restart] = math.inf, -math.inf
        state.lower[restart] = state.upper[restart] = math.nan


def classify_trace(c_trace: np.ndarray, config: PduConfig) -> np.ndarray:
    """Run fresh trackers over a [steps, elements] trace and return their phases.

    Row t holds the tracker phases right after observing step t, so
    ``phases == IN_PEAK`` flags the steps whose value sits outside the
    profiled band.
    """
    trace = np.asarray(c_trace, dtype=np.float64)
    if trace.ndim != 2:
        raise ValueError(f"trace must be [steps, elements], got shape {trace.shape}")
    state = TrackerState.fresh(trace.shape[1])
    phases = np.empty(trace.shape, dtype=np.int8)
    for t, row in enumerate(trace):
        pdu_observe(state, config, row)
        phases[t] = state.phase
    return phases
