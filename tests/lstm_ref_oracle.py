"""Step-major, per-gate reference for ``dynprec.lstm_ref.run_fp32``.

``gate_eval`` evaluates one gate's neurons from its ``(w_x, w_h, b)`` row
block, ``cell_step`` advances one layer by one step, and
``run_fp32_reference`` walks every layer at every step. This is the
evaluation order ``run_fp32`` had before it became layer-major. Each gate's
products are the same BLAS calls on the same rows, so the layer-major run
must reproduce this one bit for bit. ``zero_model`` builds an all-zero
model of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from dynprec.lstm_ref import GATES, InputSequence, LstmLayer, LstmModel, StateTrace, sigmoid

_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
}


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


def gate_eval(gate, x_t: np.ndarray, h_prev: np.ndarray, activation: str) -> np.ndarray:
    """``activation(w_x @ x_t + w_h @ h_prev + b)`` for one gate's ``(w_x, w_h, b)``."""
    w_x, w_h, b = gate
    cell_size, input_size = w_x.shape
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x_t.shape != (input_size,):
        raise ValueError(f"input has shape {x_t.shape}, expected ({input_size},)")
    if h_prev.shape != (cell_size,):
        raise ValueError(f"recurrent input has shape {h_prev.shape}, expected ({cell_size},)")
    return _ACTIVATIONS[activation](w_x @ x_t + w_h @ h_prev + b)


def cell_step(layer: LstmLayer, x_t: np.ndarray, state: LstmState) -> LstmState:
    input_gate, forget_gate, updater_gate, output_gate = layer.gates()
    i = gate_eval(input_gate, x_t, state.h, "sigmoid")
    f = gate_eval(forget_gate, x_t, state.h, "sigmoid")
    g = gate_eval(updater_gate, x_t, state.h, "tanh")
    o = gate_eval(output_gate, x_t, state.h, "sigmoid")
    c = f * state.c + i * g
    return LstmState(c, o * np.tanh(c))


@np.errstate(over="ignore")  # see lstm_ref.run_fp32
def run_fp32_reference(model: LstmModel, seq: InputSequence) -> StateTrace:
    """Evaluate the whole network step by step; layer k consumes layer k-1's outputs."""
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
        rows = len(GATES) * cell_size
        layers.append(LstmLayer(np.zeros((rows, input_size)), np.zeros((rows, cell_size)), np.zeros(rows)))
    return LstmModel(tuple(layers))
