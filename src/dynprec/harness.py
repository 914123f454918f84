"""Experiment orchestration: file formats, toy generators, reports, traces.

Model files are a text manifest next to a raw little-endian float32 blob,
so the tensor layout stays diff-auditable. Tensors appear in layer order;
within a layer in gate order input, forget, updater, output; within a
gate as w_x, w_h, b, all row-major. The manifest declares every tensor's
byte offset and size and the loader checks that they tile the blob
exactly. Sequence files are a small binary header (magic, step count,
vector width) followed by step-major float32 data.

Reports are versioned JSON rendered with sorted keys, so a run with fixed
seeds is byte-reproducible.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .accel import AccelConfig, EnergyModel, SimResult, check_capacity, compare, cost_run
from .lstm_quant import (
    DEFAULT_RANDOM_P,
    Lane,
    Mode,
    QuantizedModel,
    quantize_model,
    run_lanes,
    sequence_fingerprint,
)
from .lstm_ref import GATES, InputSequence, LstmLayer, LstmModel, StateTrace, run_fp32
from .pdu import PduConfig, Phase

# Unused by the pipeline; kept because perfbench/run.py span_targets wraps it.
from .pdu import classify_trace

REPORT_SCHEMA_VERSION = 1
SEQUENCE_MAGIC = b"LSTMSEQ1"
MODEL_FORMAT = "lstm-model"
MODEL_VERSION = 1
_F32 = np.dtype("<f4")

# Relative-error denominators are floored to avoid dividing by a near-zero cell state.
EPS_DENOM = 1e-3


class FormatError(Exception):
    """An input file does not match its declared format."""


class ModelFormatError(FormatError):
    pass


class SequenceFormatError(FormatError):
    pass


class ConfigError(FormatError):
    pass


# ---------------------------------------------------------------------------
# model files


def write_model(model: LstmModel, path: str | Path) -> None:
    path = Path(path)
    blob_path = path.with_name(path.name + ".bin")
    if blob_path.name.strip() != blob_path.name or blob_path.name.splitlines() != [blob_path.name]:
        raise ValueError(f"blob name {blob_path.name!r} would not read back from the manifest")
    lines = [
        f"format = {MODEL_FORMAT}",
        f"version = {MODEL_VERSION}",
        f"blob = {blob_path.name}",
        f"layers = {len(model.layers)}",
    ]
    chunks: list[bytes] = []
    offset = 0
    for L, layer in enumerate(model.layers):
        lines.append(f"layer{L}.input_size = {layer.input_size}")
        lines.append(f"layer{L}.cell_size = {layer.cell_size}")
        for key, gate in zip(GATES, layer.gates()):
            for part, tensor in zip(("w_x", "w_h", "b"), gate):
                raw = np.ascontiguousarray(tensor, dtype=_F32).tobytes()
                lines.append(f"tensor.layer{L}.{key}.{part} = {offset}:{len(raw)}")
                chunks.append(raw)
                offset += len(raw)
    lines.append(f"blob_bytes = {offset}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    blob_path.write_bytes(b"".join(chunks))


def _parse_manifest(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ModelFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in entries:
            raise ModelFormatError(f"{path}:{lineno}: repeated key {key!r}")
        entries[key] = value
    return entries


def _manifest_int(entries: dict[str, str], key: str, path: Path) -> int:
    if key not in entries:
        raise ModelFormatError(f"{path}: missing manifest key {key!r}")
    try:
        return int(entries[key])
    except ValueError:
        raise ModelFormatError(f"{path}: key {key!r} is not an integer: {entries[key]!r}") from None


def load_model(path: str | Path) -> LstmModel:
    path = Path(path)
    if not path.exists():
        raise ModelFormatError(f"model manifest not found: {path}")
    entries = _parse_manifest(path)
    if entries.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} manifest")
    if _manifest_int(entries, "version", path) != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported version {entries['version']}")
    n_layers = _manifest_int(entries, "layers", path)
    if n_layers < 1:
        raise ModelFormatError(f"{path}: layer count must be >= 1")
    declared_bytes = _manifest_int(entries, "blob_bytes", path)

    blob_name = entries.get("blob", path.name + ".bin")
    try:
        blob_path = path.with_name(blob_name)
    except ValueError:
        raise ModelFormatError(f"{path}: blob must name a file beside the manifest, got {blob_name!r}") from None
    if not blob_path.exists():
        raise ModelFormatError(f"tensor blob not found: {blob_path}")
    blob = blob_path.read_bytes()
    if len(blob) != declared_bytes:
        raise ModelFormatError(
            f"{blob_path}: blob is {len(blob)} bytes but the manifest declares {declared_bytes}"
        )

    spans: list[tuple[int, int, str]] = []

    def tensor(L: int, name: str, shape: tuple[int, ...]) -> np.ndarray:
        key = f"tensor.layer{L}.{name}"
        if key not in entries:
            raise ModelFormatError(f"{path}: missing manifest key {key!r}")
        try:
            offset_s, _, size_s = entries[key].partition(":")
            offset, size = int(offset_s), int(size_s)
        except ValueError:
            raise ModelFormatError(f"{path}: key {key!r} must be 'offset:size'") from None
        expected = math.prod(shape) * 4  # Python ints: a hostile shape cannot wrap
        if size != expected:
            raise ModelFormatError(
                f"{path}: {key} declares {size} bytes but shape {shape} needs {expected}"
            )
        if offset < 0 or offset + size > len(blob):
            raise ModelFormatError(
                f"{blob_path}: {key} spans bytes [{offset}, {offset + size}) outside the blob"
            )
        spans.append((offset, size, key))
        flat = np.frombuffer(blob, dtype=_F32, count=expected // 4, offset=offset)
        if not np.isfinite(flat).all():
            raise ModelFormatError(f"{blob_path}: {key} holds NaN or infinite values")
        return flat.astype(np.float64).reshape(shape)

    layers = []
    prev_cell = None
    for L in range(n_layers):
        input_size = _manifest_int(entries, f"layer{L}.input_size", path)
        cell_size = _manifest_int(entries, f"layer{L}.cell_size", path)
        if input_size < 1 or cell_size < 1:
            raise ModelFormatError(f"{path}: layer {L} sizes must be >= 1")
        if prev_cell is not None and input_size != prev_cell:
            raise ModelFormatError(
                f"{path}: layer {L} input size {input_size} != layer {L - 1} cell size {prev_cell}"
            )
        prev_cell = cell_size
        shapes = {"w_x": (cell_size, input_size), "w_h": (cell_size, cell_size), "b": (cell_size,)}
        layers.append(
            LstmLayer.from_gates(
                [tuple(tensor(L, f"{key}.{part}", shape) for part, shape in shapes.items()) for key in GATES]
            )
        )

    spans.sort()
    cursor = 0
    for offset, size, key in spans:
        if offset != cursor:
            raise ModelFormatError(
                f"{blob_path}: tensors must tile the blob; {key} starts at byte {offset}, expected {cursor}"
            )
        cursor = offset + size
    if cursor != len(blob):
        raise ModelFormatError(
            f"{blob_path}: declared tensors cover {cursor} bytes of a {len(blob)}-byte blob"
        )
    return LstmModel(tuple(layers))


# ---------------------------------------------------------------------------
# sequence files


def write_sequence(seq: InputSequence, path: str | Path) -> None:
    path = Path(path)
    header = SEQUENCE_MAGIC + struct.pack("<II", len(seq), seq.width)
    payload = np.ascontiguousarray(seq.steps, dtype=_F32).tobytes()
    path.write_bytes(header + payload)


def load_sequence(path: str | Path) -> InputSequence:
    path = Path(path)
    if not path.exists():
        raise SequenceFormatError(f"sequence file not found: {path}")
    raw = path.read_bytes()
    header_len = len(SEQUENCE_MAGIC) + 8
    if len(raw) < header_len:
        raise SequenceFormatError(f"{path}: header needs {header_len} bytes, file has {len(raw)}")
    if raw[: len(SEQUENCE_MAGIC)] != SEQUENCE_MAGIC:
        raise SequenceFormatError(f"{path}: bad magic {raw[:len(SEQUENCE_MAGIC)]!r}")
    steps, width = struct.unpack("<II", raw[len(SEQUENCE_MAGIC) : header_len])
    if steps < 1 or width < 1:
        raise SequenceFormatError(f"{path}: header declares {steps} steps of width {width}")
    expected = header_len + steps * width * 4
    if len(raw) != expected:
        raise SequenceFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype=_F32, count=steps * width, offset=header_len)
    if not np.isfinite(data).all():
        raise SequenceFormatError(f"{path}: sequence holds NaN or infinite values")
    return InputSequence(data.astype(np.float64).reshape(steps, width))


# ---------------------------------------------------------------------------
# toy generators

TOY_KINDS = ("flat", "peaky", "random")


SPIKE_HOLD_STEPS = 3


def peaky_spike_steps(n_steps: int) -> tuple[int, ...]:
    """Deterministic spike onsets; spaced so trackers settle between spikes."""
    start = PduConfig.for_sequence(n_steps).t_profile + 8
    spacing = max(2 * SPIKE_HOLD_STEPS + 8, round(0.07 * n_steps))
    steps = []
    t = start
    while t + SPIKE_HOLD_STEPS < n_steps and len(steps) < 10:
        steps.append(t)
        t += spacing
    return tuple(steps)


def _flat_layer(rng: np.random.Generator, input_size: int, cell_size: int) -> LstmLayer:
    def gate(bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return rng.uniform(-0.05, 0.05, (cell_size, input_size)), np.zeros((cell_size, cell_size)), bias

    # input, forget, updater, output; each bias is drawn before its gate's weights.
    # A strong forget-gate decay pins the cell state to its fixed point quickly.
    return LstmLayer.from_gates(
        [
            gate(rng.uniform(-0.2, 0.2, cell_size)),
            gate(np.full(cell_size, -2.0)),
            gate(rng.uniform(-0.5, 0.5, cell_size)),
            gate(rng.uniform(-0.2, 0.2, cell_size)),
        ]
    )


def _peaky_layer(rng: np.random.Generator, input_size: int, cell_size: int) -> LstmLayer:
    def noise() -> np.ndarray:
        return rng.uniform(-0.02, 0.02, (cell_size, input_size))

    w_i, w_f, w_g, w_o = noise(), noise(), noise(), noise()
    # element 0 listens to input channel 0: a sustained spike drives its input
    # and updater gates high, so its cell state climbs over the spike steps and
    # then decays back into the profiled band within a few steps; all other
    # elements keep a strong forget-gate decay and stay stable
    w_i[0, 0] = 1.0
    w_g[0, 0] = 1.0
    w_f[0, 0] = 0.0
    b_i = np.zeros(cell_size)
    b_f = np.full(cell_size, -2.0)
    b_f[0] = -1.1
    b_g = np.full(cell_size, 0.55)
    b_o = np.zeros(cell_size)
    zeros = np.zeros((cell_size, cell_size))
    return LstmLayer.from_gates([(w_i, zeros, b_i), (w_f, zeros, b_f), (w_g, zeros, b_g), (w_o, zeros, b_o)])


def _random_layer(rng: np.random.Generator, input_size: int, cell_size: int) -> LstmLayer:
    def gate() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            rng.uniform(-0.5, 0.5, (cell_size, input_size)),
            rng.uniform(-0.5, 0.5, (cell_size, cell_size)),
            rng.uniform(-0.5, 0.5, cell_size),
        )

    return LstmLayer.from_gates([gate() for _ in GATES])


def gen_toy(
    kind: str, dims: tuple[int, int, int, int], seed: int
) -> tuple[LstmModel, InputSequence]:
    """Deterministic desk-scale model/input pairs with known cell-state behavior.

    ``dims`` is (layers, input_size, cell_size, steps). ``flat`` settles to a
    near-constant cell state, ``peaky`` injects spikes on element 0 of layer 0,
    ``random`` draws uniform weights in [-0.5, 0.5].
    """
    if kind not in TOY_KINDS:
        raise ValueError(f"kind must be one of {TOY_KINDS}, got {kind!r}")
    n_layers, input_size, cell_size, n_steps = dims
    if min(dims) < 1:
        raise ValueError(f"all dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)

    layers = []
    for L in range(n_layers):
        layer_in = input_size if L == 0 else cell_size
        if kind == "random":
            layers.append(_random_layer(rng, layer_in, cell_size))
        elif kind == "peaky" and L == 0:
            layers.append(_peaky_layer(rng, layer_in, cell_size))
        else:
            layers.append(_flat_layer(rng, layer_in, cell_size))
    model = LstmModel(tuple(layers))

    if kind == "flat":
        x0 = rng.uniform(-1.0, 1.0, input_size)
        steps = np.tile(x0, (n_steps, 1))
    elif kind == "peaky":
        steps = rng.uniform(-0.03, 0.03, (n_steps, input_size))
        for onset in peaky_spike_steps(n_steps):
            steps[onset : onset + SPIKE_HOLD_STEPS, 0] = 4.0
    else:
        steps = rng.uniform(-1.0, 1.0, (n_steps, input_size))
    return model, InputSequence(steps)


# ---------------------------------------------------------------------------
# experiments

BASELINE_MODE = Mode.STATIC8


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    fp_trace: StateTrace
    fp_phases: tuple[np.ndarray, ...]
    sims: dict[str, SimResult]
    report: dict


def relative_error_stats(
    fp: StateTrace, q: StateTrace, fp_phases: tuple[np.ndarray, ...]
) -> tuple[float, float | None, float | None]:
    """Mean absolute cell-state error of ``q`` against the reference ``fp``, and its mean relative error in
    the steps where the reference's trackers (``fp_phases``) are in a peak and in the other steps.

    A relative error divides by the reference value, floored at ``EPS_DENOM``; a share with no steps gives None.
    """
    shapes = [[a.shape for a in arrays] for arrays in (fp.c, q.c, fp_phases)]
    if shapes[1] != shapes[0] or shapes[2] != shapes[0]:
        raise ValueError(f"misaligned traces and phases: {' vs '.join(map(str, shapes))}")
    err = np.concatenate([qc - fc for fc, qc in zip(fp.c, q.c)], axis=None)  # every layer, flat
    np.abs(err, out=err)
    mean_abs = float(err.mean())
    denom = np.concatenate(fp.c, axis=None)
    err /= np.maximum(np.abs(denom, out=denom), EPS_DENOM, out=denom)
    del denom  # before err's two shares are taken, so no three arrays of its size are alive at once
    peak = np.concatenate(fp_phases, axis=None) == Phase.IN_PEAK
    return mean_abs, *(float(rel.mean()) if rel.size else None for rel in (err[peak], err[~peak]))


def _run_entry(sim: SimResult, baseline: SimResult, fp: StateTrace, fp_phases: tuple[np.ndarray, ...]) -> dict:
    mean_abs, peak_err, stable_err = relative_error_stats(fp, sim.run.trace, fp_phases)
    speedup, savings = compare(sim, baseline)
    return {
        "total_cycles": int(sim.total_cycles),
        "wall_time_s": float(sim.wall_time_s),
        "energy_total": float(sim.energy_total),
        "energy_breakdown": {k: float(v) for k, v in sim.energy_breakdown.items()},
        "low_precision_usage": float(sim.run.low_precision_usage),
        "mean_abs_cell_error": mean_abs,
        "peak_relative_error": peak_err,
        "stable_relative_error": stable_err,
        "speedup_vs_static8": speedup,
        "energy_savings_vs_static8": savings,
    }


@dataclass(frozen=True)
class Point:
    """One configuration of an experiment; building it checks every rule that needs no model."""

    accel_config: AccelConfig = AccelConfig()
    energy_model: EnergyModel = EnergyModel()
    pdu_config: PduConfig | None = None  # None: PduConfig.for_sequence
    random_p: float = DEFAULT_RANDOM_P
    seed: int = 0

    def __post_init__(self) -> None:
        self.lane(Mode.RANDOM)  # Lane checks random_p
        if self.pdu_config is not None and not math.isfinite(self.pdu_config.beta):  # a JSON report cannot hold it
            raise ValueError(f"beta must be finite, got {self.pdu_config.beta!r}")

    def lane(self, mode: Mode) -> Lane:
        """The quantized run of ``mode`` at this point: only the fields the mode reads."""
        if mode is Mode.RANDOM:
            return Lane(mode, random_p=self.random_p, random_seed=self.seed)
        return Lane(mode, self.pdu_config if mode is Mode.DYNAMIC else None)


def simulate(qmodel: QuantizedModel, seq: InputSequence, mode: Mode, point: Point = Point()) -> SimResult:
    """One mode's run at ``point``: ``check_capacity``, then its lane of ``run_lanes``, then ``cost_run``."""
    check_capacity(qmodel, seq, point.accel_config, point.energy_model, mode)
    (run,), _ = run_lanes(qmodel, seq, [point.lane(mode)])
    return cost_run(qmodel, seq, run, point.accel_config, point.energy_model)


def run_experiment(
    model: LstmModel, seq: InputSequence, modes: list[Mode], points: Iterable[Point] = (Point(),)
) -> list[ExperimentResult]:
    """The reference plus each requested mode at every point, and each point's report.

    The points are read and checked one at a time, in order, before anything
    runs. Then each stage runs once for all points: the quantized model and
    the reference read only the model and the sequence; a quantized run reads
    its mode, plus the ``PduConfig`` in dynamic mode and ``random_p`` and the
    seed in random mode, and each distinct run is a lane of one ``run_lanes``
    pass, which keeps no ``h`` traces since the reports read only ``c``. The
    8-bit static run is always a lane, as the comparison baseline. Peak/stable
    error partitions come from fresh trackers over the reference's cell
    states, one set per distinct ``PduConfig``, which ride the same lane pass
    as extra tracker rows, so every mode is measured against the same peak
    structure. Each point then costs its runs with its ``AccelConfig`` and
    ``EnergyModel``.
    """
    ordered = list(dict.fromkeys([BASELINE_MODE, *modes]))
    # the checks read only whether a mode runs trackers
    trackers = [mode for mode in (BASELINE_MODE, Mode.DYNAMIC) if mode in ordered]
    qmodel, checked = None, []
    for point in points:
        if point.pdu_config is None:
            point = replace(point, pdu_config=PduConfig.for_sequence(len(seq)))
        try:
            if qmodel is None:
                qmodel = quantize_model(model)
            for mode in trackers:
                check_capacity(qmodel, seq, point.accel_config, point.energy_model, mode)
        except ValueError as exc:
            raise ConfigError(f"invalid configuration: {exc}") from None
        checked.append(point)
    if qmodel is None:  # no points
        return []
    fp_trace = run_fp32(model, seq)
    configs = list(dict.fromkeys(point.pdu_config for point in checked))
    lanes = list(dict.fromkeys(point.lane(mode) for point in checked for mode in ordered))
    results, phases = run_lanes(qmodel, seq, lanes, keep_h=False, reference=(fp_trace.c, configs))
    runs, fp_phases = dict(zip(lanes, results)), dict(zip(configs, phases))

    def result(point: Point) -> ExperimentResult:
        phases = fp_phases[point.pdu_config]
        sims = {
            mode.value: cost_run(qmodel, seq, runs[point.lane(mode)], point.accel_config, point.energy_model)
            for mode in ordered
        }
        baseline = sims[BASELINE_MODE.value]
        runs_report = {name: _run_entry(sim, baseline, fp_trace, phases) for name, sim in sims.items()}
        histogram = {
            name: [[int(n) for n in (bits == 4).sum(axis=0)] for bits in sim.run.precision_bits]
            for name, sim in sims.items()
        }
        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "model": {
                "hash": qmodel.fingerprint,
                "layers": [
                    {"input_size": layer.input_size, "cell_size": layer.cell_size}
                    for layer in model.layers
                ],
            },
            "sequence": {
                "hash": sequence_fingerprint(seq),
                "steps": len(seq),
                "width": seq.width,
            },
            "pdu_config": asdict(point.pdu_config),
            "accel_config": asdict(point.accel_config),
            "energy_model": asdict(point.energy_model),
            "random_p": point.random_p,
            "seed": point.seed,
            "runs": runs_report,
            "precision_histogram": histogram,
        }
        return ExperimentResult(fp_trace=fp_trace, fp_phases=phases, sims=sims, report=report)

    return [result(point) for point in checked]


def sweep_report(param: str, values: list[float], results: list[ExperimentResult]) -> dict:
    """The report of a sweep over ``param``: each value beside its point's report."""
    points = [{"value": value, "report": result.report} for value, result in zip(values, results, strict=True)]
    return {"schema_version": REPORT_SCHEMA_VERSION, "sweep": {"param": param, "points": points}}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def export_trace(
    result: ExperimentResult,
    mode: Mode | str,
    element: int,
    path: str | Path,
    layer: int = 0,
) -> None:
    """One CSV row per time step for one cell-state element.

    Columns: step, reference cell state, quantized cell state, precision bits
    used that step, and the tracker phase (the run's own phases in dynamic
    mode, otherwise phases derived from the reference trace).
    """
    mode_name = mode.value if isinstance(mode, Mode) else str(mode)
    if mode_name not in result.sims:
        raise ValueError(f"mode {mode_name!r} was not part of this experiment")
    sim = result.sims[mode_name]
    if not 0 <= layer < result.fp_trace.n_layers:
        raise ValueError(f"layer {layer} out of range")
    cell_size = result.fp_trace.c[layer].shape[1]
    if not 0 <= element < cell_size:
        raise ValueError(f"element {element} out of range for cell size {cell_size}")

    c_fp = result.fp_trace.c[layer][:, element]
    c_q = sim.run.trace.c[layer][:, element]
    bits = sim.run.precision_bits[layer][:, element]
    phases = (sim.run.phases or result.fp_phases)[layer][:, element]

    lines = ["step,c_fp32,c_quantized,precision_bits,phase"]
    for t in range(len(c_fp)):
        phase = Phase(int(phases[t])).name.lower()
        lines.append(f"{t},{float(c_fp[t])!r},{float(c_q[t])!r},{int(bits[t])},{phase}")
    Path(path).write_text("\n".join(lines) + "\n")
