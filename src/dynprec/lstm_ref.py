"""Full-precision four-gate LSTM evaluation, the ground truth for error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
}


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class GateWeights:
    """Forward weights, recurrent weights and bias of one gate."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_x", _as_matrix(self.w_x, "w_x"))
        object.__setattr__(self, "w_h", _as_matrix(self.w_h, "w_h"))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        cell = self.w_x.shape[0]
        if self.w_h.shape != (cell, cell):
            raise ValueError(f"w_h must be {cell}x{cell}, got {self.w_h.shape}")
        if self.b.shape != (cell,):
            raise ValueError(f"bias must have length {cell}, got {self.b.shape}")

    @property
    def cell_size(self) -> int:
        return self.w_x.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]


@dataclass(frozen=True, eq=False)
class LstmLayer:
    input_gate: GateWeights
    forget_gate: GateWeights
    updater_gate: GateWeights
    output_gate: GateWeights

    def __post_init__(self) -> None:
        shapes = {(g.cell_size, g.input_size) for g in self.gates()}
        if len(shapes) != 1:
            raise ValueError(f"gates disagree on dimensions: {sorted(shapes)}")

    def gates(self) -> tuple[GateWeights, GateWeights, GateWeights, GateWeights]:
        return (self.input_gate, self.forget_gate, self.updater_gate, self.output_gate)

    @property
    def cell_size(self) -> int:
        return self.input_gate.cell_size

    @property
    def input_size(self) -> int:
        return self.input_gate.input_size


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
class LstmState:
    c: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64))
        if self.c.shape != self.h.shape or self.c.ndim != 1:
            raise ValueError("c and h must be 1-D vectors of equal length")

    @classmethod
    def zeros(cls, cell_size: int) -> "LstmState":
        return cls(np.zeros(cell_size), np.zeros(cell_size))


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


def gate_eval(g: GateWeights, x_t: np.ndarray, h_prev: np.ndarray, activation: str) -> np.ndarray:
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x_t.shape != (g.input_size,):
        raise ValueError(f"input has shape {x_t.shape}, expected ({g.input_size},)")
    if h_prev.shape != (g.cell_size,):
        raise ValueError(f"recurrent input has shape {h_prev.shape}, expected ({g.cell_size},)")
    return _ACTIVATIONS[activation](g.w_x @ x_t + g.w_h @ h_prev + g.b)


def cell_step(layer: LstmLayer, x_t: np.ndarray, state: LstmState) -> LstmState:
    i = gate_eval(layer.input_gate, x_t, state.h, "sigmoid")
    f = gate_eval(layer.forget_gate, x_t, state.h, "sigmoid")
    g = gate_eval(layer.updater_gate, x_t, state.h, "tanh")
    o = gate_eval(layer.output_gate, x_t, state.h, "sigmoid")
    c = f * state.c + i * g
    return LstmState(c, o * np.tanh(c))


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
    """Evaluate the whole network; layer k consumes layer k-1's outputs."""
    if seq.width != model.input_size:
        raise ValueError(f"sequence width {seq.width} != model input size {model.input_size}")
    states = [LstmState.zeros(layer.cell_size) for layer in model.layers]
    c_hist: list[list[np.ndarray]] = [[] for _ in model.layers]
    h_hist: list[list[np.ndarray]] = [[] for _ in model.layers]
    for t in range(len(seq)):
        x = seq.steps[t]
        for k, layer in enumerate(model.layers):
            states[k] = cell_step(layer, x, states[k])
            c_hist[k].append(states[k].c)
            h_hist[k].append(states[k].h)
            x = states[k].h
    return StateTrace(
        c=tuple(np.stack(rows) for rows in c_hist),
        h=tuple(np.stack(rows) for rows in h_hist),
    )


def zero_model(layer_dims: Iterable[tuple[int, int]]) -> LstmModel:
    """All-zero model for the given (input_size, cell_size) per layer."""
    layers = []
    for input_size, cell_size in layer_dims:
        gate = GateWeights(np.zeros((cell_size, input_size)), np.zeros((cell_size, cell_size)), np.zeros(cell_size))
        layers.append(LstmLayer(gate, gate, gate, gate))
    return LstmModel(tuple(layers))
