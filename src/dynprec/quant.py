"""Linear quantization with dual-precision (8/4-bit) packed index codes.

A value quantized to 8 bits shares its storage with the 4-bit code: the
4-bit index is always the high nibble of the 8-bit index or that nibble
plus one, so a single *offset bit* per value is enough to recover the
exact 4-bit index from the byte. Indices are kept in sign-magnitude form
with a symmetric clamped range so the nibble sharing works identically
for both signs, including at saturation.

This module alone computes the code: ``dual_codes`` gives both signed
indices of an array as one [2, ...] array, the 8-bit index first, as
``dual_steps`` stacks the steps; ``offset_bits`` and ``packed_bytes`` read it.
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


_DUAL_LIMITS = np.array([magnitude_limit(8), magnitude_limit(4)], dtype=np.float64)


def dual_steps(alpha: float | np.ndarray) -> np.ndarray:
    """The 8- and 4-bit steps of each alpha, stacked as [2, *alpha.shape]."""
    return np.stack((quant_step(alpha, 8), quant_step(alpha, 4)))


def dual_codes(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The signed 8- and 4-bit indices of ``values``, stacked as [2, *values.shape] exact integers in float64.

    ``steps`` stacks the 8- and 4-bit steps as [2, ...], broadcast against ``values``: one per precision or
    one per row. A zero index is +0.0 for either sign.
    """
    arr = np.asarray(values, dtype=np.float64)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("cannot quantize non-finite values")
    codes = np.abs(arr) / steps
    codes += 0.5
    np.floor(codes, out=codes)
    np.minimum(codes, _DUAL_LIMITS.reshape((2,) + (1,) * (codes.ndim - 1)), out=codes)
    np.copysign(codes, arr, out=codes)
    codes += 0.0  # -0.0 + 0.0 is +0.0
    return codes


def offset_bits(codes: np.ndarray) -> np.ndarray:
    """Each value's offset bit, from its stacked codes; raises unless every one is 0 or 1."""
    magnitudes = np.abs(codes)
    offsets = magnitudes[1] - np.floor(magnitudes[0] / 16)
    if offsets.size and (offsets.min() < 0 or offsets.max() > 1):
        raise AssertionError("4-bit index deviates from the high nibble by more than one")
    return offsets


def _packed(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return codes[0] < 0, np.abs(codes[0]).astype(np.uint8), offset_bits(codes).astype(bool)


def encode_dual_arrays(values: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed dual codes at one alpha; returns (negatives, magnitudes7, offset_bits)."""
    return _packed(dual_codes(values, dual_steps(alpha).reshape((2,) + (1,) * np.ndim(values))))


def packed_bytes(codes: np.ndarray) -> bytes:
    """The stored codes in row-major order: one magnitude byte per value,
    then the sign bits and the offset bits, each packed eight to a byte."""
    negatives, magnitudes7, offsets = _packed(codes)
    return magnitudes7.tobytes() + np.packbits(negatives).tobytes() + np.packbits(offsets).tobytes()


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
        return cls(*encode_dual_arrays(values, alpha), QuantParams(alpha, 8), QuantParams(alpha, 4))

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
