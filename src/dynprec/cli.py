"""Command-line front end.

Verbs: ``gen`` writes toy model/sequence files, ``run`` produces a JSON
report over one or more modes, ``trace`` exports one element's per-step
history as CSV, ``sweep`` runs one experiment across parameter values,
with every point's quantized runs as lanes of one pass.

Exit codes: 0 success, 1 usage error, 2 input-format error, 3 capacity
error (an on-chip buffer, the 64-bit cycle counter or host memory), 4 a
file could not be read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from ._fields import field_kind
from .accel import AccelConfig, CapacityError, EnergyModel, SipConfig
from .harness import (
    ConfigError,
    ExperimentResult,
    FormatError,
    Point,
    SequenceFormatError,
    TOY_KINDS,
    export_trace,
    gen_toy,
    load_model,
    load_sequence,
    render_report,
    run_experiment,
    sweep_report,
    write_model,
    write_sequence,
)
from .lstm_quant import DEFAULT_RANDOM_P, Mode
from .lstm_ref import InputSequence, LstmModel
from .pdu import PduConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_CAPACITY = 3
EXIT_IO = 4


def _keys(config_type: type, kind: type) -> tuple[str, ...]:
    """Names of the fields of ``config_type`` annotated as ``kind``, in field order."""
    return tuple(f.name for f in dataclasses.fields(config_type) if field_kind(f) == kind.__name__)


_PDU_INT_KEYS, _PDU_FLOAT_KEYS = _keys(PduConfig, int), _keys(PduConfig, float)
_SIP_KEYS = _keys(SipConfig, int)
_ACCEL_INT_KEYS, _ACCEL_FLOAT_KEYS = _keys(AccelConfig, int), _keys(AccelConfig, float)
_ENERGY_KEYS = _keys(EnergyModel, float)
_INT_KEYS = _PDU_INT_KEYS + _SIP_KEYS + _ACCEL_INT_KEYS
# every key a config file or a sweep may set
_KEYS = _INT_KEYS + _PDU_FLOAT_KEYS + _ACCEL_FLOAT_KEYS + _ENERGY_KEYS + ("random_p",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def load_config_file(path: str | Path) -> dict[str, float | int]:
    """Flat ``key = value`` file; ints and floats only, '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    values: dict[str, float | int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            value = int(raw) if key in _INT_KEYS else float(raw)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad numeric value {raw!r} for {key!r}") from None
        values[key] = value
    return values


def build_point(values: dict[str, float | int], n_steps: int, seed: int) -> Point:
    """The experiment point that config ``values`` set; a value the point rejects is a ``ConfigError``."""

    def given(keys: tuple[str, ...]) -> dict[str, float | int]:
        return {k: values[k] for k in keys if k in values}

    try:
        return Point(
            pdu_config=PduConfig.for_sequence(n_steps, **given(_PDU_INT_KEYS + _PDU_FLOAT_KEYS)),
            accel_config=AccelConfig(sip=SipConfig(**given(_SIP_KEYS)), **given(_ACCEL_INT_KEYS + _ACCEL_FLOAT_KEYS)),
            energy_model=EnergyModel(**given(_ENERGY_KEYS)),
            random_p=values.get("random_p", DEFAULT_RANDOM_P),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def _seed(raw: str) -> int:
    """``--seed`` values: the generators take only non-negative integers."""
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _parse_modes(raw: str) -> list[Mode]:
    modes = []
    for name in raw.split(","):
        name = name.strip()
        try:
            modes.append(Mode(name))
        except ValueError:
            raise UsageError(
                f"unknown mode {name!r}; choose from {', '.join(m.value for m in Mode)}"
            ) from None
        if modes.count(modes[-1]) > 1:
            raise UsageError(f"--mode lists {name!r} more than once")
    return modes


def _parse_dims(raw: str) -> tuple[int, int, int, int]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise UsageError("--dims must be 'layers,input_size,cell_size,steps'")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--dims must be four integers, got {raw!r}") from None
    if min(dims) < 1:
        raise UsageError("--dims values must all be >= 1")
    if max(dims[1], dims[3]) >= 2**32:  # the sequence file stores both as uint32
        raise UsageError("--dims input_size and steps must each be < 2**32")
    return dims  # type: ignore[return-value]


def _load_inputs(args: argparse.Namespace) -> tuple[LstmModel, InputSequence]:
    model = load_model(args.model)
    seq = load_sequence(args.input)
    if seq.width != model.layers[0].input_size:
        raise SequenceFormatError(
            f"{args.input}: sequence width {seq.width} != model input size {model.layers[0].input_size}"
        )
    return model, seq


def _experiment_from_args(args: argparse.Namespace, modes: list[Mode]) -> ExperimentResult:
    model, seq = _load_inputs(args)
    values = load_config_file(args.config) if args.config else {}
    return run_experiment(model, seq, modes, [build_point(values, len(seq), args.seed)])[0]


def _cmd_gen(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    out = Path(args.out)
    if out.name in ("", ".."):  # ".", "/", "" and "a/.." name no file to add the suffixes to
        raise UsageError(f"--out {args.out!r} must end in a file name")
    model_path = out.with_name(out.name + ".model")
    seq_path = out.with_name(out.name + ".seq")
    try:
        model, seq = gen_toy(args.kind, dims, args.seed)
        write_model(model, model_path)  # first: it makes the directory once it accepts the blob name
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_sequence(seq, seq_path)
    print(f"wrote {model_path}")
    print(f"wrote {model_path}.bin")
    print(f"wrote {seq_path}")
    return EXIT_OK


def _write_report(text: str, path: str | None) -> None:
    """``text`` to the file at ``path``, or to stdout when there is none."""
    if path:
        Path(path).write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    result = _experiment_from_args(args, _parse_modes(args.mode))
    _write_report(render_report(result.report), args.report)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    modes = _parse_modes(args.mode)
    if len(modes) != 1:
        raise UsageError("trace takes exactly one mode")
    result = _experiment_from_args(args, modes)
    try:
        export_trace(result, modes[0], args.element, args.out, layer=args.layer)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"wrote {args.out}")
    return EXIT_OK


def _sweep_value(param: str, raw: str, value: float) -> float | int:
    """What one ``--values`` entry sets; an int key reads an integer literal exactly, as ``float`` rounds past 2**53."""
    if param not in _INT_KEYS:
        return value
    try:
        return int(raw)
    except ValueError:
        return int(value)


def _cmd_sweep(args: argparse.Namespace) -> int:
    modes = _parse_modes(args.mode)
    if args.param not in _KEYS:
        raise UsageError(f"--param must be one of {sorted(_KEYS)}")
    if not args.values.strip():
        raise UsageError("--values is empty")
    entries = args.values.split(",")
    try:
        raw_values = [float(v) for v in entries]
    except ValueError:
        raise UsageError(f"--values must be comma-separated numbers, got {args.values!r}") from None
    if any(math.isnan(value) for value in raw_values):
        raise UsageError("--values holds NaN")
    if args.param in _INT_KEYS and not all(value.is_integer() for value in raw_values):
        raise UsageError(f"--values for {args.param} must be integers, got {args.values!r}")

    model, seq = _load_inputs(args)
    base = load_config_file(args.config) if args.config else {}
    # built one at a time as the experiment checks them, so the first bad point in value order fails
    points = (
        build_point({**base, args.param: _sweep_value(args.param, raw, value)}, len(seq), args.seed)
        for raw, value in zip(entries, raw_values)
    )
    results = run_experiment(model, seq, modes, points)
    _write_report(render_report(sweep_report(args.param, raw_values, results)), args.report)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dynprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments of every verb that reads a model
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--model", required=True)
    reads.add_argument("--input", required=True)
    reads.add_argument("--config", default=None)
    reads.add_argument("--seed", type=_seed, default=0)
    report_help = "report path (stdout when omitted)"

    gen = sub.add_parser("gen", help="generate a toy model and input sequence")
    gen.add_argument("--kind", required=True, choices=TOY_KINDS)
    gen.add_argument("--dims", required=True, help="layers,input_size,cell_size,steps")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True, help="output path prefix")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", parents=[reads], help="simulate one or more modes and report")
    run.add_argument("--mode", default="static8,static4,dynamic", help="comma-separated modes")
    run.add_argument("--report", default=None, help=report_help)
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", parents=[reads], help="export one element's per-step trace as CSV")
    trace.add_argument("--mode", default="dynamic")
    trace.add_argument("--element", type=int, required=True)
    trace.add_argument("--layer", type=int, default=0)
    trace.add_argument("--out", required=True)
    trace.set_defaults(func=_cmd_trace)

    sweep = sub.add_parser("sweep", parents=[reads], help="run one experiment across parameter values")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--mode", default="static8,dynamic")
    sweep.add_argument("--report", default=None, help=report_help)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        print("error: out of host memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def console_entry() -> None:
    sys.exit(main())
