import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynprec.sip import SipConfig, sip_cycles
from quant_oracle import QIndex, dot_int
from sip_oracle import sip_dot, sip_dot_batch


def test_worked_example():
    out = sip_dot([3, -2], [5, -3], precision=4)
    assert out.value == 21
    assert out.cycles == 4


def test_zero_serial_operand():
    out = sip_dot([7, -7, 100], [0, 0, 0], precision=8)
    assert out.value == 0
    assert out.cycles == 8


def test_accepts_qindex_operands():
    w = [QIndex(3, 8), QIndex(-2, 8)]
    x = [QIndex(5, 4), QIndex(-3, 4)]
    assert sip_dot(w, x, precision=4).value == 21


def test_cycles_examples():
    cfg = SipConfig(lanes=8, lane_width=16)
    assert sip_cycles(128, 8, cfg) == 8
    assert sip_cycles(128, 4, cfg) == 4
    assert sip_cycles(129, 8, cfg) == 16
    assert sip_cycles(1, 8, cfg) == 8
    with pytest.raises(ValueError):
        sip_cycles(0, 8, cfg)
    with pytest.raises(ValueError):
        sip_cycles(16, 5, cfg)


def test_cycle_halving_property():
    # with zero reduction latency the 4-bit cost is exactly half the 8-bit cost
    cfg = SipConfig()
    for length in (1, 16, 127, 128, 129, 1000, 4096):
        assert sip_cycles(length, 4, cfg) * 2 == sip_cycles(length, 8, cfg)


def test_reduction_latency_added_once():
    cfg = SipConfig(lanes=2, lane_width=4, reduction_latency=3)
    assert sip_cycles(8, 8, cfg) == 11
    assert sip_dot([1] * 8, [1] * 8, 8, cfg).cycles == 11


def test_throughput_matches_16_wide_parallel_array():
    # 8 units x 16 elements finish a 128-element pass every 8 cycles at 8 bits,
    # i.e. 16 multiply-accumulates per cycle.
    cfg = SipConfig(lanes=8, lane_width=16)
    cycles = sip_cycles(128, 8, cfg)
    assert 128 / cycles == 16.0


def test_validation_errors():
    with pytest.raises(ValueError):
        sip_dot([1, 2], [1], precision=4)
    with pytest.raises(ValueError):
        sip_dot([1], [8], precision=4)  # 8 not representable in 4 bits
    with pytest.raises(ValueError):
        sip_dot([200], [1], precision=8)  # weight outside 8-bit range
    with pytest.raises(ValueError):
        SipConfig(lanes=0)


def test_matches_dot_int_randomized():
    rng = np.random.default_rng(2024)
    cfg = SipConfig()
    for precision in (4, 8):
        limit = (1 << (precision - 1)) - 1
        for _ in range(200):
            n = int(rng.integers(1, 300))
            w = rng.integers(-127, 128, n)
            x = rng.integers(-limit, limit + 1, n)
            out = sip_dot(w, x, precision, cfg)
            assert out.value == dot_int(w, x)
            assert out.cycles == sip_cycles(n, precision, cfg)


@given(
    data=st.lists(
        st.tuples(st.integers(-127, 127), st.integers(-7, 7)), min_size=1, max_size=40
    )
)
@settings(max_examples=200)
def test_matches_dot_int_property(data):
    w = [a for a, _ in data]
    x = [b for _, b in data]
    assert sip_dot(w, x, 4).value == dot_int(w, x)
    assert sip_dot(w, x, 8).value == dot_int(w, x)


def test_batch_matches_scalar_rows():
    rng = np.random.default_rng(7)
    w = rng.integers(-127, 128, (50, 33))
    x = rng.integers(-7, 8, (50, 33))
    values, cycles = sip_dot_batch(w, x, 4)
    assert cycles == sip_cycles(33, 4)
    for r in range(50):
        assert values[r] == sip_dot(w[r], x[r], 4).value


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        sip_dot_batch(np.zeros((2, 3)), np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        sip_dot_batch(np.zeros(3), np.zeros(3), 4)
