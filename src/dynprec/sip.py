"""Cycle cost of bit-serial inner product units.

One serial unit multiplies a vector of full-width weights by one bit
plane of the other operand per cycle, MSB first; an n-bit serial operand
therefore costs n cycles per pass. Several units working side by side
cover ``lanes * lane_width`` vector elements per pass. The functional
unit, checked against the parallel integer dot product, is the test
oracle ``tests/sip_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

SUPPORTED_PRECISIONS = (4, 8)


@dataclass(frozen=True)
class SipConfig:
    lanes: int = 8
    lane_width: int = 16
    reduction_latency: int = 0

    def __post_init__(self) -> None:
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
