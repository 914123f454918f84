"""Quantized LSTM inference with per-element dynamic precision selection."""

from .accel import AccelConfig, CapacityError, EnergyModel, SimResult, SipConfig, simulate
from .harness import (
    ConfigError,
    ExperimentResult,
    FormatError,
    ModelFormatError,
    Point,
    SequenceFormatError,
    export_trace,
    gen_toy,
    load_model,
    load_sequence,
    run_experiment,
    write_model,
    write_sequence,
)
from .lstm_quant import Mode, quantize_model
from .lstm_ref import InputSequence, LstmModel
from .pdu import PduConfig

__all__ = [
    "AccelConfig",
    "CapacityError",
    "ConfigError",
    "EnergyModel",
    "ExperimentResult",
    "FormatError",
    "InputSequence",
    "LstmModel",
    "Mode",
    "ModelFormatError",
    "PduConfig",
    "Point",
    "SequenceFormatError",
    "SimResult",
    "SipConfig",
    "export_trace",
    "gen_toy",
    "load_model",
    "load_sequence",
    "quantize_model",
    "run_experiment",
    "simulate",
    "write_model",
    "write_sequence",
]
