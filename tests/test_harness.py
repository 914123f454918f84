import json
import math
from unittest import mock

import numpy as np
import pytest

from dynprec import harness
from dynprec.harness import (
    EPS_DENOM,
    ModelFormatError,
    Point,
    SequenceFormatError,
    SPIKE_HOLD_STEPS,
    export_trace,
    gen_toy,
    load_model,
    load_sequence,
    peaky_spike_steps,
    relative_error_stats,
    render_report,
    run_experiment,
    simulate,
    write_model,
    write_sequence,
)
from dynprec.accel import AccelConfig, EnergyModel
from dynprec import lstm_quant
from dynprec.lstm_quant import Mode, quantize_model
from dynprec.lstm_ref import InputSequence, StateTrace, run_fp32
from dynprec.pdu import PduConfig, Phase, classify_trace


@pytest.fixture(scope="module")
def flat_experiment():
    model, seq = gen_toy("flat", (1, 16, 16, 200), 7)
    return run_experiment(model, seq, [Mode.STATIC4, Mode.DYNAMIC])[0]


@pytest.fixture(scope="module")
def peaky_experiment():
    model, seq = gen_toy("peaky", (1, 16, 16, 200), 7)
    return run_experiment(model, seq, [Mode.STATIC4, Mode.DYNAMIC])[0]


def test_model_round_trip(tmp_path):
    model, _ = gen_toy("random", (2, 4, 6, 10), 3)
    path = tmp_path / "toy.model"
    write_model(model, path)
    loaded = load_model(path)
    for orig, back in zip(model.layers, loaded.layers):
        for g_orig, g_back in zip(orig.gates(), back.gates()):
            # float32 storage: loaded tensors equal the float32 cast of the originals
            for t_orig, t_back in zip(g_orig, g_back, strict=True):  # w_x, w_h, b
                assert np.array_equal(t_back, t_orig.astype(np.float32).astype(np.float64))


def test_model_write_load_write_is_identical(tmp_path):
    model, _ = gen_toy("random", (1, 3, 4, 5), 9)
    a = tmp_path / "a.model"
    write_model(model, a)
    b = tmp_path / "b.model"
    write_model(load_model(a), b)
    assert (tmp_path / "a.model.bin").read_bytes() == (tmp_path / "b.model.bin").read_bytes()


def test_write_model_refuses_a_blob_name_the_manifest_would_not_read_back(tmp_path):
    model, _ = gen_toy("random", (1, 3, 4, 5), 9)
    for name in (" lead.model", "x\ny.model", "x\u2028y.model", "\tx.model"):
        with pytest.raises(ValueError, match="would not read back"):
            write_model(model, tmp_path / name)
    assert list(tmp_path.iterdir()) == []  # refused before anything was written
    path = tmp_path / "sub" / "lead .model"  # a space inside the name reads back; the directory is made
    write_model(model, path)
    assert load_model(path).layers[0].cell_size == 4


def test_truncated_blob_reports_lengths(tmp_path):
    model, _ = gen_toy("random", (1, 3, 4, 5), 1)
    path = tmp_path / "toy.model"
    write_model(model, path)
    blob = path.with_name("toy.model.bin")
    data = blob.read_bytes()
    blob.write_bytes(data[:-8])
    with pytest.raises(ModelFormatError, match=rf"{len(data) - 8}.*{len(data)}"):
        load_model(path)


def test_layer_size_mismatch_rejected(tmp_path):
    model, _ = gen_toy("random", (2, 4, 4, 5), 2)
    path = tmp_path / "toy.model"
    write_model(model, path)
    text = path.read_text().replace("layer1.input_size = 4", "layer1.input_size = 5")
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="layer 1 input size"):
        load_model(path)


def test_blob_tiling_validated(tmp_path):
    model, _ = gen_toy("random", (1, 2, 2, 5), 4)
    path = tmp_path / "toy.model"
    write_model(model, path)
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("tensor.layer0.forget.w_x = "):
            # shift the tensor onto its neighbour: it overlaps and leaves a gap
            offset, size = line.split("= ")[1].split(":")
            line = f"tensor.layer0.forget.w_x = {int(offset) - 8}:{size}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="tile"):
        load_model(path)


def test_missing_manifest_key(tmp_path):
    model, _ = gen_toy("random", (1, 2, 2, 5), 4)
    path = tmp_path / "toy.model"
    write_model(model, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("tensor.layer0.output.b")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="tensor.layer0.output.b"):
        load_model(path)


@pytest.mark.parametrize("name", ["", "sub/toy.model.bin"])
def test_blob_name_must_be_a_file_beside_the_manifest(tmp_path, name):
    model, _ = gen_toy("random", (1, 2, 2, 5), 4)
    path = tmp_path / "toy.model"
    write_model(model, path)
    path.write_text(path.read_text().replace("blob = toy.model.bin", f"blob = {name}"))
    with pytest.raises(ModelFormatError, match="blob must name a file"):
        load_model(path)


def test_manifest_shape_product_does_not_wrap(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64, which matched a declared size of 0
    model, _ = gen_toy("random", (1, 2, 2, 5), 4)
    path = tmp_path / "toy.model"
    write_model(model, path)
    text = path.read_text().replace("layer0.input_size = 2", f"layer0.input_size = {2**32}")
    text = text.replace("layer0.cell_size = 2", f"layer0.cell_size = {2**32}")
    text = text.replace("tensor.layer0.input.w_x = 0:16", "tensor.layer0.input.w_x = 0:0")
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="declares 0 bytes"):
        load_model(path)


def test_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    seq = InputSequence(rng.uniform(-1, 1, (12, 3)).astype(np.float32))
    path = tmp_path / "toy.seq"
    write_sequence(seq, path)
    loaded = load_sequence(path)
    assert np.array_equal(loaded.steps, seq.steps)


def test_sequence_truncation_reports_lengths(tmp_path):
    seq = InputSequence(np.zeros((4, 2), dtype=np.float32))
    path = tmp_path / "toy.seq"
    write_sequence(seq, path)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(SequenceFormatError, match=rf"expected {len(data)} bytes, found {len(data) - 4}"):
        load_sequence(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sequence_rejects_non_finite_values(tmp_path, bad):
    steps = np.zeros((4, 2))
    steps[2, 1] = bad
    path = tmp_path / "toy.seq"
    write_sequence(InputSequence(steps), path)
    with pytest.raises(SequenceFormatError, match="NaN or infinite"):
        load_sequence(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_rejects_non_finite_values(tmp_path, bad):
    model, _ = gen_toy("random", (1, 3, 4, 5), 2)
    _, forget_w_h, _ = model.layers[0].gates()[1]
    forget_w_h[1, 2] = bad  # a view into the layer's stacked w_h
    path = tmp_path / "toy.model"
    write_model(model, path)
    with pytest.raises(ModelFormatError, match="forget.w_h holds NaN or infinite"):
        load_model(path)


def test_sequence_bad_magic(tmp_path):
    path = tmp_path / "toy.seq"
    path.write_bytes(b"NOTASEQ!" + b"\x00" * 16)
    with pytest.raises(SequenceFormatError, match="magic"):
        load_sequence(path)


def test_gen_toy_deterministic(tmp_path):
    for kind in ("flat", "peaky", "random"):
        m1, s1 = gen_toy(kind, (1, 4, 8, 50), 11)
        m2, s2 = gen_toy(kind, (1, 4, 8, 50), 11)
        assert np.array_equal(s1.steps, s2.steps)
        for l1, l2 in zip(m1.layers, m2.layers):
            for g1, g2 in zip(l1.gates(), l2.gates()):
                assert np.array_equal(g1[0], g2[0])  # w_x
    with pytest.raises(ValueError):
        gen_toy("bogus", (1, 4, 8, 50), 0)


def test_flat_toy_dynamic_behavior(flat_experiment):
    dyn = flat_experiment.sims["dynamic"]
    assert dyn.run.low_precision_usage >= 0.95
    assert 1.9 <= flat_experiment.report["runs"]["dynamic"]["speedup_vs_static8"] <= 2.0
    for phases in dyn.run.phases:
        assert not np.any(phases == Phase.IN_PEAK)


def test_peaky_toy_flags_spikes(peaky_experiment):
    phases = peaky_experiment.fp_phases[0]
    spikes = peaky_spike_steps(200)
    assert len(spikes) == 10
    flagged = sum(1 for s in spikes if phases[s, 0] == Phase.IN_PEAK)
    assert flagged >= 8


def test_first_spike_follows_the_default_profiling_window():
    # the toy reads its spike onsets from PduConfig's 5%-of-steps rule, so its trackers profile first
    for n in range(1, 2001):
        start = PduConfig.for_sequence(n).t_profile + 8
        assert peaky_spike_steps(n)[:1] == ((start,) if start + SPIKE_HOLD_STEPS < n else ())


@pytest.mark.parametrize("random_p", [math.nan, 1.5, -0.5])
def test_run_experiment_rejects_random_p_outside_unit_interval(random_p):
    model, seq = gen_toy("random", (1, 3, 4, 10), 0)
    with pytest.raises(ValueError, match="random_p"):
        run_experiment(model, seq, [Mode.RANDOM], [Point(random_p=random_p)])


def test_run_experiment_rejects_infinite_beta_before_any_run(monkeypatch):
    # the tracker takes beta = inf, but the report would hold "Infinity", which is not JSON
    model, seq = gen_toy("random", (1, 3, 4, 10), 0)
    monkeypatch.setattr(harness, "run_lanes", lambda *args, **kwargs: pytest.fail("a lane pass ran"))
    with pytest.raises(ValueError, match="beta must be finite"):
        run_experiment(model, seq, [Mode.DYNAMIC], [Point(pdu_config=PduConfig.for_sequence(len(seq), beta=math.inf))])


def test_report_contains_self_comparison(flat_experiment):
    runs = flat_experiment.report["runs"]
    assert runs["static8"]["speedup_vs_static8"] == 1.0
    assert runs["static8"]["energy_savings_vs_static8"] == 0.0


def test_report_dynamic_dominates_static4_on_peaky(peaky_experiment):
    runs = peaky_experiment.report["runs"]
    assert runs["dynamic"]["mean_abs_cell_error"] <= runs["static4"]["mean_abs_cell_error"]
    assert runs["dynamic"]["total_cycles"] <= runs["static8"]["total_cycles"]


def test_report_usage_matches_precision_trace(peaky_experiment):
    for name, sim in peaky_experiment.sims.items():
        low = sum(int((bits == 4).sum()) for bits in sim.run.precision_bits)
        total = sum(bits.size for bits in sim.run.precision_bits)
        assert peaky_experiment.report["runs"][name]["low_precision_usage"] == low / total


def test_report_histogram_matches_trace(peaky_experiment):
    hist = peaky_experiment.report["precision_histogram"]["dynamic"]
    bits = peaky_experiment.sims["dynamic"].run.precision_bits[0]
    assert hist[0] == [int(n) for n in (bits == 4).sum(axis=0)]


def test_report_text_is_deterministic():
    model, seq = gen_toy("peaky", (1, 8, 8, 120), 3)
    (a,) = run_experiment(model, seq, [Mode.DYNAMIC, Mode.RANDOM], [Point(seed=5)])
    (b,) = run_experiment(model, seq, [Mode.DYNAMIC, Mode.RANDOM], [Point(seed=5)])
    assert render_report(a.report) == render_report(b.report)
    json.loads(render_report(a.report))  # parses back


def test_simulate_matches_the_experiment_at_a_point():
    # simulate runs one mode alone; at the same point each run must equal that mode's run in an experiment
    model, seq = gen_toy("peaky", (2, 6, 5, 80), 4)
    point = Point(
        AccelConfig(peak_bandwidth=2e9, mu_comm_cycles=7),
        EnergyModel(static_power=1.5, pdu_update=0.9),
        PduConfig(t_profile=3, m_max_peak=4, n_max_stable=6, beta=0.2),
        random_p=0.6,
        seed=9,
    )
    (result,) = run_experiment(model, seq, list(Mode), [point])
    qmodel = quantize_model(model)
    for mode in Mode:
        got, want = simulate(qmodel, seq, mode, point), result.sims[mode.value]
        assert got.total_cycles == want.total_cycles, mode
        assert got.energy_breakdown == want.energy_breakdown, mode
        assert all(map(np.array_equal, got.run.precision_bits, want.run.precision_bits)), mode
        assert all(map(np.array_equal, got.run.trace.c, want.run.trace.c)), mode


def _c_trace(*layers) -> StateTrace:
    c = tuple(np.array(layer, dtype=np.float64) for layer in layers)
    return StateTrace(c=c, h=tuple(np.zeros_like(layer) for layer in c))


@pytest.mark.parametrize("modes", [[Mode.STATIC4], [Mode.DYNAMIC, Mode.RANDOM]])
def test_each_layer_step_of_an_experiment_observes_its_trackers_once(modes):
    # the reference's trackers and the dynamic lanes' share one pdu_observe call per layer and step,
    # and they run when no lane is dynamic too
    model, seq = gen_toy("peaky", (2, 4, 6, 70), 3)
    points = [Point(pdu_config=PduConfig.for_sequence(len(seq), beta=beta)) for beta in (0.1, 0.3)]
    with mock.patch.object(lstm_quant, "pdu_observe", wraps=lstm_quant.pdu_observe) as observe:
        results = run_experiment(model, seq, modes, points)
    assert observe.call_count == len(model.layers) * len(seq)
    fp = run_fp32(model, seq)
    for point, result in zip(points, results, strict=True):
        (want,) = classify_trace(fp.c, [point.pdu_config])
        assert all(np.array_equal(a, b) for a, b in zip(result.fp_phases, want, strict=True))


def test_relative_error_stats_identity():
    model, seq = gen_toy("random", (2, 6, 8, 40), 3)
    fp = run_fp32(model, seq)
    phases = tuple(np.zeros_like(layer, dtype=np.int8) for layer in fp.c)
    assert relative_error_stats(fp, fp, phases) == (0.0, None, 0.0)


def test_relative_error_stats_hand_case():
    # only IN_PEAK steps are peaks; profiling and stable steps both count as stable
    fp = _c_trace([[1.0, 2.0], [2.0, 4.0]], [[8.0]])
    q = _c_trace([[1.1, 2.0], [1.0, 3.0]], [[6.0]])
    phases = (np.array([[Phase.PROFILING, Phase.STABLE], [Phase.IN_PEAK, Phase.STABLE]], dtype=np.int8),
              np.array([[Phase.IN_PEAK]], dtype=np.int8))
    mean_abs, peak, stable = relative_error_stats(fp, q, phases)
    assert mean_abs == pytest.approx((0.1 + 0.0 + 1.0 + 1.0 + 2.0) / 5)
    assert peak == pytest.approx((0.5 + 0.25) / 2)
    assert stable == pytest.approx((0.1 + 0.0 + 0.25) / 3)


def test_relative_error_stats_eps_denominator():
    fp, q = _c_trace([[0.0]]), _c_trace([[EPS_DENOM]])
    phases = (np.array([[Phase.STABLE]], dtype=np.int8),)
    assert relative_error_stats(fp, q, phases) == (pytest.approx(EPS_DENOM), None, pytest.approx(1.0))


def test_relative_error_stats_rejects_misaligned():
    model, seq = gen_toy("random", (1, 6, 8, 40), 3)
    fp = run_fp32(model, seq)
    short = StateTrace(c=(fp.c[0][:-1],), h=(fp.h[0][:-1],))
    phases = tuple(np.zeros_like(layer, dtype=np.int8) for layer in fp.c)
    with pytest.raises(ValueError):
        relative_error_stats(fp, short, phases)
    with pytest.raises(ValueError):
        relative_error_stats(fp, fp, (phases[0][:-1],))


def test_beta_sweep_peak_count_monotone():
    # One profiling window, one decaying peak: the band-inclusion ordering then
    # forces every step flagged under a wide margin to be flagged under a
    # narrower one. (With forced re-profiling the timelines diverge across beta
    # and counts may fluctuate; the divergence-bounded property is covered in
    # the tracker tests.)
    baseline = [0.5, 0.52, 0.48, 0.5, 0.49, 0.51, 0.5, 0.5]
    spike = [2.0, 1.4, 1.0, 0.8, 0.68, 0.6, 0.56, 0.53, 0.51]
    trace = np.array(baseline + spike + [0.5] * 8).reshape(-1, 1)
    configs = [
        PduConfig.for_sequence(len(trace), beta=beta, t_profile=8, n_max_stable=100, m_max_peak=100)
        for beta in (0.05, 0.1, 0.2, 0.5, 1.0)
    ]
    counts = [int((phases == Phase.IN_PEAK).sum()) for (phases,) in classify_trace([trace], configs)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]  # the margin actually bites on this trace


def test_export_trace_flat(flat_experiment, tmp_path):
    path = tmp_path / "flat.csv"
    export_trace(flat_experiment, Mode.DYNAMIC, element=0, path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,c_fp32,c_quantized,precision_bits,phase"
    assert len(lines) == 1 + 200
    phases = {line.split(",")[4] for line in lines[1:]}
    assert phases <= {"profiling", "stable"}
    # plain parseable numbers, five fields per row
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[1]), float(fields[2])


def test_export_trace_peaky_shows_high_bits(peaky_experiment, tmp_path):
    path = tmp_path / "peaky.csv"
    export_trace(peaky_experiment, "dynamic", element=0, path=path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for onset in peaky_spike_steps(200):
        window = rows[onset : onset + SPIKE_HOLD_STEPS + 1]
        assert any(r[3] == "8" for r in window)
        assert any(r[4] == "in_peak" for r in window)


def test_export_trace_static_uses_reference_phases(peaky_experiment, tmp_path):
    path = tmp_path / "static.csv"
    export_trace(peaky_experiment, Mode.STATIC4, element=0, path=path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert all(r[3] == "4" for r in rows)
    assert any(r[4] == "in_peak" for r in rows)


def test_export_trace_validates_indices(peaky_experiment, tmp_path):
    with pytest.raises(ValueError):
        export_trace(peaky_experiment, Mode.DYNAMIC, element=99, path=tmp_path / "x.csv")
    with pytest.raises(ValueError):
        export_trace(peaky_experiment, Mode.DYNAMIC, element=0, path=tmp_path / "x.csv", layer=5)
    with pytest.raises(ValueError):
        export_trace(peaky_experiment, Mode.RANDOM, element=0, path=tmp_path / "x.csv")
