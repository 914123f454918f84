import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynprec.harness import gen_toy
from dynprec import lstm_ref
from dynprec.lstm_ref import FORWARD_CHUNK, InputSequence, LstmLayer, LstmModel, run_fp32
from lstm_ref_oracle import LstmState, cell_step, gate_eval, run_fp32_reference, zero_model


def _random_model(rng, layer_dims, scale=0.5):
    layers = []
    for input_size, cell_size in layer_dims:
        gates = [
            (
                rng.uniform(-scale, scale, (cell_size, input_size)),
                rng.uniform(-scale, scale, (cell_size, cell_size)),
                rng.uniform(-scale, scale, cell_size),
            )
            for _ in range(4)
        ]
        layers.append(LstmLayer.from_gates(gates))
    return LstmModel(tuple(layers))


def _straight_line_reference(model, seq):
    """Independent loop-by-loop evaluation of the same cell equations."""
    n_layers = len(model.layers)
    c = [[0.0] * layer.cell_size for layer in model.layers]
    h = [[0.0] * layer.cell_size for layer in model.layers]
    c_trace = [[] for _ in range(n_layers)]
    h_trace = [[] for _ in range(n_layers)]

    def dot(row, vec):
        return sum(row[j] * vec[j] for j in range(len(vec)))

    for t in range(len(seq)):
        x = list(seq.steps[t])
        for L, layer in enumerate(model.layers):
            new_c, new_h = [], []
            for k in range(layer.cell_size):
                pre = {}
                for name, (w_x, w_h, b) in zip("ifgo", layer.gates()):
                    pre[name] = dot(w_x[k], x) + dot(w_h[k], h[L]) + b[k]
                i = 1.0 / (1.0 + math.exp(-pre["i"]))
                f = 1.0 / (1.0 + math.exp(-pre["f"]))
                g = math.tanh(pre["g"])
                o = 1.0 / (1.0 + math.exp(-pre["o"]))
                ck = f * c[L][k] + i * g
                new_c.append(ck)
                new_h.append(o * math.tanh(ck))
            c[L], h[L] = new_c, new_h
            c_trace[L].append(list(new_c))
            h_trace[L].append(list(new_h))
            x = list(new_h)
    return c_trace, h_trace


def test_gate_eval_zero_weights():
    g = (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3))
    out = gate_eval(g, np.zeros(2), np.zeros(3), "sigmoid")
    assert np.allclose(out, 0.5)
    out = gate_eval(g, np.zeros(2), np.zeros(3), "tanh")
    assert np.allclose(out, 0.0)


def test_gate_eval_identity_forward():
    g = (np.eye(2), np.zeros((2, 2)), np.zeros(2))
    out = gate_eval(g, np.zeros(2), np.zeros(2), "sigmoid")
    assert np.allclose(out, [0.5, 0.5])


def test_gate_eval_rejects_bad_inputs():
    g = (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        gate_eval(g, np.zeros(3), np.zeros(3), "sigmoid")
    with pytest.raises(ValueError):
        gate_eval(g, np.zeros(2), np.zeros(2), "sigmoid")
    with pytest.raises(ValueError):
        gate_eval(g, np.zeros(2), np.zeros(3), "relu")


def test_cell_step_closed_form():
    model = zero_model([(1, 1)])
    state = LstmState(np.array([1.0]), np.array([0.0]))
    out = cell_step(model.layers[0], np.zeros(1), state)
    assert out.c[0] == pytest.approx(0.5)
    assert out.h[0] == pytest.approx(0.5 * math.tanh(0.5))

    out = cell_step(model.layers[0], np.zeros(1), LstmState.zeros(1))
    assert out.c[0] == 0.0 and out.h[0] == 0.0


def test_cell_step_matches_straight_line():
    rng = np.random.default_rng(42)
    model = _random_model(rng, [(4, 4)])
    seq = InputSequence(rng.uniform(-1, 1, (1, 4)))
    trace = run_fp32(model, seq)
    c_ref, h_ref = _straight_line_reference(model, seq)
    assert np.allclose(trace.c[0][0], c_ref[0][0], rtol=1e-12)
    assert np.allclose(trace.h[0][0], h_ref[0][0], rtol=1e-12)


def test_run_fp32_zero_model_stays_zero():
    model = zero_model([(2, 3)])
    seq = InputSequence(np.ones((10, 2)))
    trace = run_fp32(model, seq)
    assert np.all(trace.c[0] == 0.0)
    assert np.all(trace.h[0] == 0.0)


def test_run_fp32_single_step_equals_cell_step():
    rng = np.random.default_rng(5)
    model = _random_model(rng, [(3, 5), (5, 4)])
    x = rng.uniform(-1, 1, (1, 3))
    trace = run_fp32(model, InputSequence(x))
    s0 = cell_step(model.layers[0], x[0], LstmState.zeros(5))
    s1 = cell_step(model.layers[1], s0.h, LstmState.zeros(4))
    assert np.array_equal(trace.c[0][0], s0.c)
    assert np.array_equal(trace.h[1][0], s1.h)


def test_run_fp32_two_layer_matches_oracle():
    rng = np.random.default_rng(99)
    model = _random_model(rng, [(8, 8), (8, 8)])
    seq = InputSequence(rng.uniform(-1, 1, (50, 8)))
    trace = run_fp32(model, seq)
    c_ref, h_ref = _straight_line_reference(model, seq)
    for L in range(2):
        ref = np.array(c_ref[L])
        denom = np.maximum(np.abs(ref), 1e-9)
        assert np.max(np.abs(trace.c[L] - ref) / denom) < 1e-6
        ref_h = np.array(h_ref[L])
        denom = np.maximum(np.abs(ref_h), 1e-9)
        assert np.max(np.abs(trace.h[L] - ref_h) / denom) < 1e-6


def test_cell_state_growth_and_output_bounds():
    rng = np.random.default_rng(17)
    model = _random_model(rng, [(4, 6)], scale=2.0)
    seq = InputSequence(rng.uniform(-2, 2, (80, 4)))
    trace = run_fp32(model, seq)
    c = trace.c[0]
    prev = np.zeros(6)
    for t in range(c.shape[0]):
        assert np.all(np.abs(c[t]) <= np.abs(prev) + 1.0 + 1e-12)
        prev = c[t]
    assert np.all(np.abs(trace.h[0]) < 1.0)


def test_run_fp32_deterministic():
    rng = np.random.default_rng(23)
    model = _random_model(rng, [(4, 4)])
    seq = InputSequence(rng.uniform(-1, 1, (30, 4)))
    t1 = run_fp32(model, seq)
    t2 = run_fp32(model, seq)
    assert np.array_equal(t1.c[0], t2.c[0])
    assert np.array_equal(t1.h[0], t2.h[0])


def test_model_validation():
    with pytest.raises(ValueError):
        LstmModel(())
    g_a = (np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(3))
    g_b = (np.zeros((4, 3)), np.zeros((4, 4)), np.zeros(4))
    layer_a = LstmLayer.from_gates([g_a, g_a, g_a, g_a])
    layer_b = LstmLayer.from_gates([g_b, g_b, g_b, g_b])
    LstmModel((layer_a, layer_b))  # 3 -> 3 feeds 4x3: consistent
    with pytest.raises(ValueError):
        LstmModel((layer_b, layer_b))
    with pytest.raises(ValueError, match="disagree"):
        LstmLayer.from_gates([g_a, g_a, g_a, g_b])


def test_stacked_layer_validation():
    rows, cell = 12, 3
    LstmLayer(np.zeros((rows, 2)), np.zeros((rows, cell)), np.zeros(rows))
    with pytest.raises(ValueError, match="4H"):
        LstmLayer(np.zeros((rows + 1, 2)), np.zeros((rows + 1, cell)), np.zeros(rows + 1))
    with pytest.raises(ValueError, match="non-empty"):
        LstmLayer(np.zeros((0, 2)), np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match="w_h"):
        LstmLayer(np.zeros((rows, 2)), np.zeros((rows, cell + 1)), np.zeros(rows))
    with pytest.raises(ValueError, match="bias"):
        LstmLayer(np.zeros((rows, 2)), np.zeros((rows, cell)), np.zeros(rows - 1))
    with pytest.raises(ValueError, match="4 gates"):
        LstmLayer.from_gates([(np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(4))] * 3)
    # Gates whose stack would pass the layer's own checks still have to agree.
    narrow = (np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(2))
    wide = (np.zeros((6, 2)), np.zeros((6, 4)), np.zeros(6))
    with pytest.raises(ValueError, match="disagree"):
        LstmLayer.from_gates([narrow, narrow, wide, wide])


def test_gates_are_row_blocks_of_the_stack():
    rng = np.random.default_rng(3)
    gates = [(rng.random((3, 2)), rng.random((3, 3)), rng.random(3)) for _ in range(4)]
    layer = LstmLayer.from_gates(gates)
    assert (layer.cell_size, layer.input_size) == (3, 2)
    for got, want in zip(layer.gates(), gates):
        for got_part, want_part, stacked in zip(got, want, (layer.w_x, layer.w_h, layer.b)):
            assert np.array_equal(got_part, want_part)
            assert np.shares_memory(got_part, stacked)  # a view, not a copy


def test_sequence_validation():
    with pytest.raises(ValueError):
        InputSequence(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        InputSequence(np.zeros(3))
    with pytest.raises(ValueError):
        run_fp32(zero_model([(2, 2)]), InputSequence(np.zeros((4, 3))))


# 3, 33, 37 and 51 rows per gate leave row tails in the BLAS kernels
_SIZES = (1, 3, 4, 8, 33, 37, 51)


@st.composite
def _fp_cases(draw):
    n_layers = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.sampled_from(_SIZES), min_size=n_layers + 1, max_size=n_layers + 1))
    n_steps = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = _random_model(rng, list(zip(sizes[:-1], sizes[1:])), scale=draw(st.sampled_from((0.5, 4.0))))
    if draw(st.booleans()):  # saturate some gates: exp(-x) overflows, sigmoid returns exactly 0
        layer = model.layers[draw(st.integers(0, n_layers - 1))]
        layer.b[rng.random(layer.b.shape) < 0.5] = -1000.0
    return model, InputSequence(rng.uniform(-1, 1, (n_steps, sizes[0])))


@given(_fp_cases())
@example(gen_toy("random", (3, 37, 51, 40), 0))
@example(gen_toy("random", (1, 13, 33, 40), 1))
# 128 cells make OpenBLAS thread the gemvs, and the steps cross two forward chunk boundaries
@example(gen_toy("random", (2, 96, 128, 2 * FORWARD_CHUNK + 1), 2))
@example(gen_toy("random", (1, 5, 7, FORWARD_CHUNK), 3))
@settings(max_examples=60, deadline=None)
def test_layer_major_run_is_bit_identical_to_step_major_oracle(case):
    # Each gate's products must keep their own gemv per step: a fused [4H] gemv, or a
    # GEMM over the steps, regroups the float64 sums and changes the low bits, which
    # the golden hashes can miss.
    model, seq = case
    got, want = run_fp32(model, seq), run_fp32_reference(model, seq)
    for L in range(len(model.layers)):
        assert np.array_equal(got.c[L], want.c[L])
        assert np.array_equal(got.h[L], want.h[L])


def test_run_fp32_makes_one_matmul_per_forward_chunk_and_step():
    # the four gate blocks share each call: one for a chunk's forward products, one per step's recurrent ones
    model, seq = gen_toy("random", (2, 3, 5, 2 * FORWARD_CHUNK + 1), 4)
    with mock.patch.object(lstm_ref.np, "matmul", wraps=np.matmul) as matmul:
        run_fp32(model, seq)
    assert matmul.call_count == len(model.layers) * (len(seq) + math.ceil(len(seq) / FORWARD_CHUNK))
    assert all(len(call.args[0]) == 4 for call in matmul.call_args_list)


_ROOT = Path(__file__).resolve().parent.parent

_BLAS_CHILD = """
import numpy as np
from dynprec.harness import gen_toy
from dynprec.lstm_ref import FORWARD_CHUNK, run_fp32
from lstm_ref_oracle import run_fp32_reference

cases = [
    ("random", (2, 96, 128, 2 * FORWARD_CHUNK + 1), 2),
    ("random", (3, 37, 51, 40), 0),
    ("peaky", (1, 16, 16, 300), 7),
]
for kind, dims, seed in cases:
    model, seq = gen_toy(kind, dims, seed)
    got, want = run_fp32(model, seq), run_fp32_reference(model, seq)
    for a, b in zip(got.c + got.h, want.c + want.h, strict=True):
        assert np.array_equal(a, b), (kind, dims)
print("bit-identical")
"""


def _cpu_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get(feature, False)


@pytest.mark.parametrize(
    "setting",
    [
        ("OPENBLAS_CORETYPE", "Sandybridge"),
        pytest.param(
            ("OPENBLAS_CORETYPE", "Haswell"),
            marks=pytest.mark.skipif(not _cpu_has("AVX2"), reason="the Haswell kernels need AVX2"),
        ),
        ("OPENBLAS_NUM_THREADS", "1"),
    ],
    ids=lambda setting: "=".join(setting),
)
def test_batched_reference_makes_the_oracles_calls_on_every_blas_kernel(setting):
    # The golden hashes hold only on hosts like the one that pinned them; this pins only that the
    # batched products make the same BLAS calls as the oracle's per-gate ones, whichever kernel runs
    # them. The variable is set in the child's environment alone.
    var, value = setting
    pythonpath = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    env = {**os.environ, var: value, "OPENBLAS_VERBOSE": "2", "PYTHONPATH": pythonpath}
    child = subprocess.run([sys.executable, "-c", _BLAS_CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip().endswith("bit-identical")
    if var == "OPENBLAS_CORETYPE" and "Core:" in child.stdout + child.stderr:  # OpenBLAS says which kernel it picked
        assert f"Core: {value}" in child.stdout + child.stderr
