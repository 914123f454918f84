"""Linear quantization with dual-precision (8/4-bit) packed index codes.

A value quantized to 8 bits shares its storage with the 4-bit code: the
4-bit index is always the high nibble of the 8-bit index or that nibble
plus one, so a single *offset bit* per value is enough to recover the
exact 4-bit index from the byte. Indices are kept in sign-magnitude form
with a symmetric clamped range so the nibble sharing works identically
for both signs, including at saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_BITS = 8


def magnitude_limit(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _check_bits(bits: int) -> None:
    if isinstance(bits, bool) or not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bit width must be an integer in [1, {MAX_BITS}], got {bits!r}")


def quant_step(alpha: float | np.ndarray, bits: int) -> float | np.ndarray:
    """Real value of one integer index unit for a tensor with max-abs ``alpha``.

    ``alpha`` may be an array of alphas, which gives an array of steps.
    """
    _check_bits(bits)
    alpha = np.asarray(alpha, dtype=np.float64)
    if not (np.isfinite(alpha) & (alpha > 0.0)).all():
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


def check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("cannot quantize non-finite values")


def check_offset_range(lowest: float, highest: float) -> None:
    """Every offset bit, from ``lowest`` to ``highest``, must be 0 or 1."""
    if lowest < 0 or highest > 1:
        raise AssertionError("4-bit index deviates from the high nibble by more than one")


def dual_index_arrays(values: np.ndarray, step8, step4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize ``values`` at 8 and at 4 bits, unpacked for arithmetic.

    Returns the signed 8- and 4-bit indices and the offset bits, all as
    exact integers in float64. The steps may be scalars or broadcast per row.
    """
    arr = np.asarray(values, dtype=np.float64)
    check_finite(arr)
    mag = np.abs(arr)
    high = np.minimum(np.floor(mag / step8 + 0.5), float(magnitude_limit(8)))
    low = np.minimum(np.floor(mag / step4 + 0.5), float(magnitude_limit(4)))
    offsets = low - np.floor(high / 16)
    if offsets.size:
        check_offset_range(offsets.min(), offsets.max())
    negatives = (arr < 0) & (high > 0)
    for m in (high, low):
        np.subtract(0.0, m, out=m, where=negatives)  # 0.0 - m, so a zero index stays +0.0
    return high, low, offsets


def _packed(high: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return high < 0, np.abs(high).astype(np.uint8), offsets.astype(bool)


def encode_dual_arrays(values: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed dual codes at one alpha; returns (negatives, magnitudes7, offset_bits)."""
    high, _, offsets = dual_index_arrays(values, quant_step(alpha, 8), quant_step(alpha, 4))
    return _packed(high, offsets)


def packed_bytes(high: np.ndarray, offsets: np.ndarray) -> bytes:
    """The stored codes in row-major order: one magnitude byte per value,
    then the sign bits and the offset bits, each packed eight to a byte."""
    negatives, magnitudes7, offset_bits = _packed(high, offsets)
    return magnitudes7.tobytes() + np.packbits(negatives).tobytes() + np.packbits(offset_bits).tobytes()


# Unused by the pipeline; kept because perfbench/run.py span_targets wraps its encode.
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

    def high_values(self) -> np.ndarray:
        magnitudes = self.magnitudes7.astype(np.int64)
        return np.where(self.negatives, -magnitudes, magnitudes)

    def low_values(self) -> np.ndarray:
        magnitudes = (self.magnitudes7.astype(np.int64) >> 4) + self.offset_bits
        return np.where(self.negatives, -magnitudes, magnitudes)

    def offset_count(self) -> int:
        return int(self.offset_bits.sum())
