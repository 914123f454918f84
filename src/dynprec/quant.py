"""Linear quantization with dual-precision (8/4-bit) packed index codes.

A value quantized to 8 bits shares its storage with the 4-bit code: the
4-bit index is always the high nibble of the 8-bit index or that nibble
plus one, so a single *offset bit* per value is enough to recover the
exact 4-bit index from the byte. Indices are kept in sign-magnitude form
with a symmetric clamped range so the nibble sharing works identically
for both signs, including at saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_BITS = 8


def _magnitude_limit(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _check_bits(bits: int) -> None:
    if isinstance(bits, bool) or not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bit width must be an integer in [1, {MAX_BITS}], got {bits!r}")


def quant_step(alpha: float, bits: int) -> float:
    """Real value of one integer index unit for a tensor with max-abs ``alpha``."""
    _check_bits(bits)
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    return alpha / float(2 ** (bits - 1))


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor scale: ``alpha`` is the maximum absolute value of the tensor."""

    alpha: float
    bits: int
    step: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", quant_step(self.alpha, self.bits))

    @property
    def magnitude_limit(self) -> int:
        return _magnitude_limit(self.bits)


@dataclass(frozen=True)
class QIndex:
    """A clamped signed quantization index."""

    value: int
    bits: int

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        limit = _magnitude_limit(self.bits)
        if abs(self.value) > limit:
            raise ValueError(f"index {self.value} outside +/-{limit} for {self.bits} bits")


def quantize(y: float, params: QuantParams) -> QIndex:
    """Round ``y`` to the nearest index, half away from zero, clamped symmetrically."""
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"cannot quantize non-finite value {y!r}")
    limit = params.magnitude_limit
    ratio = abs(y) / params.step
    if ratio >= limit:
        magnitude = limit
    else:
        magnitude = int(math.floor(ratio + 0.5))
    return QIndex(-magnitude if y < 0 else magnitude, params.bits)


def dequantize(index: QIndex, params: QuantParams) -> float:
    if index.bits != params.bits:
        raise ValueError(f"index is {index.bits}-bit but params are {params.bits}-bit")
    return index.value * params.step


@dataclass(frozen=True)
class DualIndex:
    """One byte plus an offset bit encoding both the 8- and 4-bit index of a value.

    ``magnitude7`` is the 8-bit index magnitude; its high nibble, plus the
    offset bit, is the 4-bit index magnitude. One sign bit serves both.
    """

    negative: bool
    magnitude7: int
    offset_bit: bool

    def __post_init__(self) -> None:
        if not 0 <= self.magnitude7 <= 127:
            raise ValueError(f"magnitude7 must be in [0, 127], got {self.magnitude7}")
        if (self.magnitude7 >> 4) + int(self.offset_bit) > 7:
            raise ValueError("decoded 4-bit magnitude exceeds 7")


def encode_dual(y: float, alpha: float) -> DualIndex:
    """Quantize ``y`` at 8 and 4 bits and pack both indices into one code."""
    params8 = QuantParams(alpha, 8)
    params4 = QuantParams(alpha, 4)
    i8 = quantize(y, params8)
    i4 = quantize(y, params4)
    magnitude7 = abs(i8.value)
    offset = abs(i4.value) - (magnitude7 >> 4)
    assert offset in (0, 1), "4-bit index deviates from the high nibble by more than one"
    return DualIndex(negative=i8.value < 0, magnitude7=magnitude7, offset_bit=bool(offset))


def extract_low(d: DualIndex) -> QIndex:
    magnitude = (d.magnitude7 >> 4) + int(d.offset_bit)
    return QIndex(-magnitude if d.negative else magnitude, 4)


def extract_high(d: DualIndex) -> QIndex:
    return QIndex(-d.magnitude7 if d.negative else d.magnitude7, 8)


def dual_index_arrays(values: np.ndarray, step8, step4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`encode_dual`, unpacked for arithmetic.

    Returns the signed 8- and 4-bit indices and the offset bits, all as
    exact integers in float64. The steps may be scalars or broadcast per row.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("cannot quantize non-finite values")
    mag = np.abs(arr)
    high = np.minimum(np.floor(mag / step8 + 0.5), float(_magnitude_limit(8)))
    low = np.minimum(np.floor(mag / step4 + 0.5), float(_magnitude_limit(4)))
    offsets = low - np.floor(high / 16)
    if offsets.size and (offsets.min() < 0 or offsets.max() > 1):
        raise AssertionError("4-bit index deviates from the high nibble by more than one")
    negatives = (arr < 0) & (high > 0)
    for m in (high, low):
        np.subtract(0.0, m, out=m, where=negatives)  # 0.0 - m, so a zero index stays +0.0
    return high, low, offsets


def encode_dual_arrays(values: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`encode_dual`; returns (negatives, magnitudes7, offset_bits)."""
    high, _, offsets = dual_index_arrays(values, QuantParams(alpha, 8).step, QuantParams(alpha, 4).step)
    return high < 0, np.abs(high).astype(np.uint8), offsets.astype(bool)


@dataclass(frozen=True, eq=False)
class QuantizedVector:
    """A vector stored once as packed dual-precision codes."""

    negatives: np.ndarray
    magnitudes7: np.ndarray
    offset_bits: np.ndarray
    params8: QuantParams
    params4: QuantParams

    def __post_init__(self) -> None:
        if self.negatives.ndim != 1:
            raise ValueError("QuantizedVector holds 1-D data")
        if not (self.negatives.shape == self.magnitudes7.shape == self.offset_bits.shape):
            raise ValueError("component arrays must share one shape")
        if self.params4.alpha != self.params8.alpha:
            raise ValueError("both precisions must share one alpha")

    @classmethod
    def encode(cls, values: np.ndarray, alpha: float) -> "QuantizedVector":
        negatives, magnitudes7, offset_bits = encode_dual_arrays(np.asarray(values, dtype=np.float64), alpha)
        return cls(negatives, magnitudes7, offset_bits, QuantParams(alpha, 8), QuantParams(alpha, 4))

    def __len__(self) -> int:
        return self.negatives.shape[0]

    @property
    def elements(self) -> tuple[DualIndex, ...]:
        return tuple(
            DualIndex(bool(n), int(m), bool(o))
            for n, m, o in zip(self.negatives, self.magnitudes7, self.offset_bits)
        )

    def high_values(self) -> np.ndarray:
        magnitudes = self.magnitudes7.astype(np.int64)
        return np.where(self.negatives, -magnitudes, magnitudes)

    def low_values(self) -> np.ndarray:
        magnitudes = (self.magnitudes7.astype(np.int64) >> 4) + self.offset_bits
        return np.where(self.negatives, -magnitudes, magnitudes)

    def offset_count(self) -> int:
        return int(self.offset_bits.sum())
