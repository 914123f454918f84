"""Full-precision four-gate LSTM evaluation, the ground truth for error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Gate order of every stacked layer and of the model file: gate g owns rows
# g*H:(g+1)*H of a layer's stacked weights.
GATES = ("input", "forget", "updater", "output")


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class LstmLayer:
    """One layer's four gates stacked gate-major in ``GATES`` order.

    ``w_x`` is [4H, input_size], ``w_h`` is [4H, H] and ``b`` is [4H].
    """

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_x", _as_matrix(self.w_x, "w_x"))
        object.__setattr__(self, "w_h", _as_matrix(self.w_h, "w_h"))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        rows, input_size = self.w_x.shape
        if rows % len(GATES) or not rows or not input_size:
            raise ValueError(f"w_x must be a non-empty [4H, input_size] matrix, got {self.w_x.shape}")
        if self.w_h.shape != (rows, rows // len(GATES)):
            raise ValueError(f"w_h must be {rows}x{rows // len(GATES)}, got {self.w_h.shape}")
        if self.b.shape != (rows,):
            raise ValueError(f"bias must have length {rows}, got {self.b.shape}")

    @classmethod
    def from_gates(cls, gates: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> "LstmLayer":
        """Stack four per-gate ``(w_x, w_h, b)`` triples, given in ``GATES`` order."""
        if len(gates) != len(GATES):
            raise ValueError(f"a layer has {len(GATES)} gates, got {len(gates)}")
        shapes = {tuple(np.shape(part) for part in gate) for gate in gates}
        if len(shapes) != 1:
            raise ValueError(f"gates disagree on dimensions: {sorted(shapes)}")
        w_x, w_h, b = (np.concatenate(parts, dtype=np.float64) for parts in zip(*gates))
        return cls(w_x, w_h, b)

    def gates(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Each gate's ``(w_x, w_h, b)`` as row-block views, in ``GATES`` order."""
        return tuple(zip(*(np.split(part, len(GATES)) for part in (self.w_x, self.w_h, self.b))))

    @property
    def cell_size(self) -> int:
        return self.w_h.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass(frozen=True, eq=False)
class LstmModel:
    layers: tuple[LstmLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for k in range(1, len(self.layers)):
            if self.layers[k].input_size != self.layers[k - 1].cell_size:
                raise ValueError(
                    f"layer {k} expects input size {self.layers[k].input_size}, "
                    f"but layer {k - 1} outputs {self.layers[k - 1].cell_size}"
                )

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size


@dataclass(frozen=True, eq=False)
class InputSequence:
    """Step-major stack of input vectors, shape [steps, width]."""

    steps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", np.asarray(self.steps, dtype=np.float64))
        if self.steps.ndim != 2 or self.steps.shape[0] < 1:
            raise ValueError(f"sequence must be a non-empty 2-D array, got shape {self.steps.shape}")

    def __len__(self) -> int:
        return self.steps.shape[0]

    @property
    def width(self) -> int:
        return self.steps.shape[1]


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Per-layer cell-state and output histories, each [steps, cell_size]."""

    c: tuple[np.ndarray, ...]
    h: tuple[np.ndarray, ...]

    @property
    def n_layers(self) -> int:
        return len(self.c)

    @property
    def n_steps(self) -> int:
        return self.c[0].shape[0]


# exp(-x) overflows to inf for x below about -709, and sigmoid then returns
# the correct 0; the runs that call sigmoid silence that warning once per run.
@np.errstate(over="ignore")
def run_fp32(model: LstmModel, seq: InputSequence) -> StateTrace:
    """Evaluate the network layer by layer; layer k consumes layer k-1's whole output trace.

    Each gate's products stay separate gemvs with their own bias add: one
    fused [4H] gemv regroups the float64 sums and changes the bits.
    """
    if seq.width != model.input_size:
        raise ValueError(f"sequence width {seq.width} != model input size {model.input_size}")
    c_hist, h_hist = [], []
    inputs = seq.steps
    for layer in model.layers:
        gates = layer.gates()
        c_trace, h_trace = np.empty((len(seq), layer.cell_size)), np.empty((len(seq), layer.cell_size))
        c = h = np.zeros(layer.cell_size)
        for t, x in enumerate(inputs):
            i, f, g, o = (w_x @ x + w_h @ h + b for w_x, w_h, b in gates)
            c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
            h = sigmoid(o) * np.tanh(c)
            c_trace[t], h_trace[t] = c, h
        c_hist.append(c_trace)
        h_hist.append(h_trace)
        inputs = h_trace
    return StateTrace(c=tuple(c_hist), h=tuple(h_hist))
