"""Pinned sha256 of report, trace and model file bytes for fixed toys, seeds and modes.

Reports are byte-reproducible for fixed seeds; these hashes extend that from
"repeatable within one process" to "unchanged across revisions". A change
that alters report bytes on purpose updates the hash it moves and says why.

The hashes are pinned to this host's numpy and OpenBLAS. The quantized
products are exact integer sums, so their bits do not depend on the BLAS
kernel. The full-precision reference sums are not exact: a regrouped fp
product (one fused [4H] gemv in place of four per-gate gemvs, say) can keep
these hashes on these shapes and still change the bits on others. That is
why ``test_lstm_ref`` checks ``run_fp32`` bit for bit against its
step-major oracle on many shapes.
"""

import hashlib

import numpy as np
import pytest

from dynprec.cli import EXIT_OK, main
from dynprec.harness import Point, gen_toy, load_model, load_sequence, render_report, run_experiment, write_model
from dynprec.lstm_quant import Mode
from dynprec.pdu import PduConfig, Phase

ALL_MODES = [Mode.STATIC8, Mode.STATIC4, Mode.DYNAMIC, Mode.RANDOM]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "kind, dims, seed, modes, digest",
    [
        (
            "peaky",
            (1, 16, 16, 200),
            0,
            ALL_MODES,
            "120e642e3470cff51d82393192dbbea77f6efbe067018062a6b4fdf637062613",
        ),
        (
            "random",
            (2, 16, 32, 120),
            3,
            [Mode.DYNAMIC, Mode.RANDOM],
            "80058c3c95ac47f19cbf36a0b5ddd37381fdc1acdfc38ddabead1472b43e2e3f",
        ),
        (
            "flat",
            (1, 8, 8, 100),
            0,
            [Mode.DYNAMIC],
            "d92d8941eb0cf5621340f7d881c07e5d273098b7bcbdc26c61c008cb2d830498",
        ),
    ],
    ids=["peaky", "random", "flat"],
)
def test_report_text_is_pinned(kind, dims, seed, modes, digest):
    model, seq = gen_toy(kind, dims, seed)
    (result,) = run_experiment(model, seq, modes, [Point(seed=seed)])
    assert _sha(render_report(result.report).encode()) == digest


@pytest.fixture()
def peaky_files(tmp_path):
    out = tmp_path / "toy"
    assert main(["gen", "--kind", "peaky", "--dims", "1,16,16,200", "--seed", "0", "--out", str(out)]) == EXIT_OK
    return ["--model", str(tmp_path / "toy.model"), "--input", str(tmp_path / "toy.seq")]


def test_sweep_report_is_pinned(peaky_files, tmp_path):
    report = tmp_path / "sweep.json"
    argv = ["sweep", *peaky_files, "--param", "beta", "--values", "0.05,0.2", "--report", str(report)]
    assert main(argv) == EXIT_OK
    assert _sha(report.read_bytes()) == "df12d45e6d301c5d7c6d15a3ecb8b58011bd919873c6b853f7d16ec31d9bd5fa"


def test_trace_csv_is_pinned(peaky_files, tmp_path):
    csv = tmp_path / "trace.csv"
    argv = ["trace", *peaky_files, "--mode", "dynamic", "--element", "0", "--out", str(csv)]
    assert main(argv) == EXIT_OK
    assert _sha(csv.read_bytes()) == "3cc0faf666d604bcfb87ed0149d8c6fc7b354f4b721c6d3c2503cc8ae17c56df"


def test_model_files_are_pinned(tmp_path):
    # The manifest names its blob, so both hashes hold for an output named "toy".
    argv = ["gen", "--kind", "random", "--dims", "2,5,7,3", "--seed", "3", "--out", str(tmp_path / "toy")]
    assert main(argv) == EXIT_OK
    manifest, blob = tmp_path / "toy.model", tmp_path / "toy.model.bin"
    assert _sha(manifest.read_bytes()) == "cf1cf6c4e3f858722f495017ecf8b175cdd891551d8d31b82ea3aa68b4c3dc83"
    assert _sha(blob.read_bytes()) == "544fb2f9c89835760638fcaf1db0cdeb4584790fd14fc114cc589709ee95b7eb"

    copy = tmp_path / "copy" / "toy.model"
    copy.parent.mkdir()
    write_model(load_model(manifest), copy)
    assert copy.read_bytes() == manifest.read_bytes()
    assert copy.with_name("toy.model.bin").read_bytes() == blob.read_bytes()


def _tracker_events(phases) -> tuple[int, int]:
    """(peak entries, forced re-profiles) over per-layer [steps, cell] phases, counted as perfbench counts them."""
    entries = reprofiles = 0
    for layer in phases:
        prev = np.vstack([np.full((1, layer.shape[1]), Phase.PROFILING), layer[:-1]])
        entries += int(((layer == Phase.IN_PEAK) & (prev != Phase.IN_PEAK)).sum())
        reprofiles += int(((layer == Phase.PROFILING) & (prev != Phase.PROFILING)).sum())
    return entries, reprofiles


@pytest.mark.parametrize(
    "kind, dims, events",
    [
        ("random", (2, 64, 256, 500), (13747, 2133)),
        ("peaky", (1, 16, 16, 2000), (144, 143)),
        ("peaky", (1, 32, 128, 1000), (1260, 884)),
    ],
    ids=["mid", "long", "sweep"],
)
def test_perfbench_tracker_events_are_pinned(tmp_path, kind, dims, events):
    # perfbench/run.py pins these for its workloads at seed 7, counted from the runs it traces; the
    # experiment runs lanes, which it no longer traces, so the same counts are checked here. The toys
    # go through the files, as in perfbench: their float32 round trip moves the counts.
    argv = ["gen", "--kind", kind, "--dims", ",".join(map(str, dims)), "--seed", "7", "--out", str(tmp_path / "toy")]
    assert main(argv) == EXIT_OK
    model, seq = load_model(tmp_path / "toy.model"), load_sequence(tmp_path / "toy.seq")
    pdu_config = PduConfig.for_sequence(len(seq), beta=0.1)  # sweep's pinned point; the default elsewhere
    (result,) = run_experiment(model, seq, [Mode.DYNAMIC], [Point(pdu_config=pdu_config, seed=7)])
    assert _tracker_events(result.sims["dynamic"].run.phases) == events
