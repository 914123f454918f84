"""Functional bit-serial inner product: the spec behind ``dynprec.sip``'s cycle cost.

One serial unit multiplies a vector of full-width weights by one bit
plane of the other operand per cycle, MSB first, shift-accumulating the
partial products. ``sip_dot`` must equal the parallel integer dot product
(acceptance criterion 1), and its own cycle formula must agree with
``dynprec.sip.sip_cycles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dynprec.sip import DEFAULT_SIP_CONFIG, SipConfig, _check_precision
from quant_oracle import QIndex

WEIGHT_BITS = 8


@dataclass(frozen=True)
class SipResult:
    value: int
    cycles: int


def _as_int_array(seq: Sequence[QIndex | int] | np.ndarray) -> np.ndarray:
    if isinstance(seq, np.ndarray):
        return seq.astype(np.int64)
    return np.array([v.value if isinstance(v, QIndex) else int(v) for v in seq], dtype=np.int64)


def _serial_dot(w: np.ndarray, x: np.ndarray, bits: int) -> np.ndarray:
    """Bit-plane evaluation over the last axis; supports 1-D pairs and 2-D batches."""
    signed_w = np.where(x < 0, -w, w)
    magnitudes = np.abs(x)
    acc = np.zeros(w.shape[:-1], dtype=np.int64)
    for plane in range(bits - 1, -1, -1):
        partial = (signed_w * ((magnitudes >> plane) & 1)).sum(axis=-1)
        acc = (acc << 1) + partial
    return acc


def sip_dot(
    w: Sequence[QIndex | int] | np.ndarray,
    x: Sequence[QIndex | int] | np.ndarray,
    precision: int,
    config: SipConfig = DEFAULT_SIP_CONFIG,
) -> SipResult:
    """Serial dot product of ``w`` (parallel, 8-bit) against ``x`` (serial)."""
    _check_precision(precision)
    wv = _as_int_array(w)
    xv = _as_int_array(x)
    if wv.shape != xv.shape or wv.ndim != 1:
        raise ValueError(f"operands must be equal-length vectors, got {wv.shape} and {xv.shape}")
    w_limit = (1 << (WEIGHT_BITS - 1)) - 1
    x_limit = (1 << (precision - 1)) - 1
    if wv.size:
        if np.abs(wv).max() > w_limit:
            raise ValueError(f"weight index exceeds +/-{w_limit}")
        if np.abs(xv).max() > x_limit:
            raise ValueError(f"serial operand index exceeds +/-{x_limit} for {precision} bits")
    chunks = math.ceil(wv.size / config.elements_per_pass)
    value = int(_serial_dot(wv, xv, precision)) if wv.size else 0
    return SipResult(value=value, cycles=chunks * precision + config.reduction_latency)


def sip_dot_batch(
    w: np.ndarray, x: np.ndarray, precision: int, config: SipConfig = DEFAULT_SIP_CONFIG
) -> tuple[np.ndarray, int]:
    """Row-wise :func:`sip_dot` over [rows, length] operand matrices.

    Returns (values, cycles_per_row); every row has the same length and cost.
    """
    _check_precision(precision)
    wv = np.asarray(w, dtype=np.int64)
    xv = np.asarray(x, dtype=np.int64)
    if wv.shape != xv.shape or wv.ndim != 2:
        raise ValueError(f"operands must share a [rows, length] shape, got {wv.shape} and {xv.shape}")
    chunks = math.ceil(wv.shape[1] / config.elements_per_pass)
    return _serial_dot(wv, xv, precision), chunks * precision + config.reduction_latency
