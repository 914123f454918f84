"""Fuzzers for the file loaders, run end to end through ``cli.main``.

Truncated, garbled or oversized manifest, blob, sequence and config files
must end in a documented exit code (1 usage, 2 format, 3 capacity, 4 I/O)
with an ``error:`` line, or in a valid report when the damage left a
well-formed file; never in a traceback. Every generated file stays a few
kilobytes, and headers that declare huge sizes must be rejected before
anything of that size is allocated.
"""

import contextlib
import io
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynprec import cli
from dynprec.cli import EXIT_FORMAT, EXIT_OK, main
from dynprec.harness import SEQUENCE_MAGIC

DOCUMENTED_EXITS = (1, 2, 3, 4)
FUZZ = settings(max_examples=60, deadline=None)
ALLOCATION_LIMIT = 16 * 2**20  # bytes; far below any size a hostile header declares


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Original bytes of a tiny toy model, its blob and its sequence."""
    out = tmp_path_factory.mktemp("toy") / "toy"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--kind", "random", "--dims", "2,3,4,6", "--seed", "1", "--out", str(out)]) == EXIT_OK
    model = out.with_name("toy.model")
    return {
        "manifest": model.read_bytes(),
        "blob": model.with_name("toy.model.bin").read_bytes(),
        "seq": out.with_name("toy.seq").read_bytes(),
    }


def _run(files: dict[str, bytes], config: bytes | None = None) -> tuple[int, str, str]:
    """Write the files to a fresh directory and run every mode on them."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "toy.model").write_bytes(files["manifest"])
        (tmp / "toy.model.bin").write_bytes(files["blob"])
        (tmp / "toy.seq").write_bytes(files["seq"])
        argv = ["run", "--model", str(tmp / "toy.model"), "--input", str(tmp / "toy.seq"),
                "--mode", "static8,static4,dynamic,random"]
        if config is not None:
            (tmp / "run.cfg").write_bytes(config)
            argv += ["--config", str(tmp / "run.cfg")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_traced(files: dict[str, bytes]) -> tuple[int, str, str, int]:
    """``_run`` plus the peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        code, out, err = _run(files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def _assert_documented(code: int, out: str, err: str) -> None:
    if code == EXIT_OK:
        assert json.loads(out)["schema_version"] == 1
    else:
        assert code in DOCUMENTED_EXITS
        assert err.startswith("error: ")


def _repeats_a_key(text: bytes, content) -> bool:
    """Whether two ``key = value`` lines of ``text`` name one key; ``content`` strips a line's comment."""
    try:
        lines = text.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return False
    keys = [line.partition("=")[0].strip() for line in map(content, lines) if "=" in line]
    return len(keys) != len(set(keys))


def _manifest_content(line: str) -> str:
    return "" if line.strip().startswith("#") else line


def _config_content(line: str) -> str:
    return line.split("#", 1)[0]


@st.composite
def _damaged(draw, original: bytes) -> bytes:
    """``original`` truncated, overwritten in places, or with bytes spliced in."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("truncate", "overwrite", "insert")))
        at = draw(st.integers(0, len(data)))
        if kind == "truncate":
            del data[at:]
        elif kind == "overwrite":
            patch = draw(st.binary(min_size=1, max_size=8))
            data[at : at + len(patch)] = patch
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=64))
    return bytes(data)


_TOKENS = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "1e-308", "0", "-1", str(2**63), str(10**400)]),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", "-0", "1e999", "0x10", "3.5", "1_0", "9" * 5000, "\x00", "é"]),
    st.text(max_size=12),
)


@st.composite
def _edited_manifest(draw, original: bytes) -> bytes:
    """Manifest lines dropped, duplicated or given hostile values."""
    lines = original.decode().splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "value", "offset:size")))
        key = lines[i].partition("=")[0].strip()
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "value":
            lines[i] = f"{key} = {draw(_TOKENS)}"
        else:
            offset, size = draw(st.integers(-(2**64), 2**64)), draw(st.integers(-(2**64), 2**64))
            lines[i] = f"{key} = {offset}:{size}"
    return "\n".join(lines).encode() + b"\n"


@given(data=st.data())
@FUZZ
def test_fuzzed_manifest(toy, data):
    manifest = data.draw(st.one_of(_edited_manifest(toy["manifest"]), _damaged(toy["manifest"])))
    code, out, err = _run({**toy, "manifest": manifest})
    _assert_documented(code, out, err)
    if _repeats_a_key(manifest, _manifest_content):
        assert code == EXIT_FORMAT


@pytest.mark.parametrize("key", ["layers", "layer0.cell_size"])
def test_repeated_manifest_key(toy, key):
    # the fuzzer's "duplicate" edit, on a key whose repeat once loaded with the last value winning
    lines = toy["manifest"].decode().splitlines()
    i = next(i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key)
    manifest = "\n".join([*lines[: i + 1], lines[i], *lines[i + 1 :]]).encode() + b"\n"
    code, _, err = _run({**toy, "manifest": manifest})
    assert code == EXIT_FORMAT
    assert err.startswith("error: ") and f":{i + 2}: repeated key {key!r}" in err


@given(data=st.data())
@FUZZ
def test_fuzzed_blob(toy, data):
    blob = data.draw(_damaged(toy["blob"]))
    code, out, err = _run({**toy, "blob": blob})
    _assert_documented(code, out, err)
    if len(blob) != len(toy["blob"]):
        assert code == EXIT_FORMAT


@given(data=st.data())
@FUZZ
def test_fuzzed_sequence(toy, data):
    seq = data.draw(_damaged(toy["seq"]))
    code, out, err = _run({**toy, "seq": seq})
    _assert_documented(code, out, err)
    if len(seq) != len(toy["seq"]):
        assert code == EXIT_FORMAT


_CONFIG_KEYS = st.sampled_from([*cli._KEYS, "no_such_key"])
_CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, _CONFIG_KEYS, _TOKENS),
    st.builds("{} = {}".format, _CONFIG_KEYS, st.floats(allow_nan=True, allow_infinity=True)),
    st.text(max_size=20),
)


@given(
    lines=st.lists(_CONFIG_LINES, max_size=6),
    garble=st.one_of(st.none(), st.binary(min_size=1, max_size=32)),
)
@example(lines=[f"{key} = 0" for key in cli._ENERGY_KEYS], garble=None)  # a baseline that costs nothing
@example(lines=["beta = 0.1", "beta = 0.4"], garble=None)  # once ran with the last value
@FUZZ
def test_fuzzed_config(toy, lines, garble):
    config = "\n".join(lines).encode() + (garble or b"")
    code, out, err = _run(toy, config)
    _assert_documented(code, out, err)
    if code == EXIT_OK:
        json.loads(out, parse_constant=_reject_constant)
    if _repeats_a_key(config, _config_content):
        assert code == EXIT_FORMAT


def _reject_constant(name: str) -> None:
    raise AssertionError(f"the report holds {name}, which RFC 8259 JSON cannot")


@given(
    steps=st.integers(0, 2**32 - 1),
    width=st.integers(0, 2**32 - 1),
    payload=st.binary(max_size=64),
)
@FUZZ
def test_hostile_sequence_header_allocates_nothing_large(toy, steps, width, payload):
    seq = SEQUENCE_MAGIC + struct.pack("<II", steps, width) + payload
    code, out, err, peak = _run_traced({**toy, "seq": seq})
    _assert_documented(code, out, err)
    assert peak < ALLOCATION_LIMIT


_DIMENSIONS = st.one_of(st.integers(1, 2**64), st.integers(1, 64).map(lambda k: 2**k))


@given(input_size=_DIMENSIONS, cell_size=_DIMENSIONS, size=st.one_of(st.just(0), st.integers(0, 2**70)))
@FUZZ
def test_hostile_manifest_shapes_allocate_nothing_large(toy, input_size, cell_size, size):
    manifest = "\n".join([
        "format = lstm-model", "version = 1", "blob = toy.model.bin", "layers = 1",
        f"blob_bytes = {len(toy['blob'])}",
        f"layer0.input_size = {input_size}", f"layer0.cell_size = {cell_size}",
        *(f"tensor.layer0.{gate}.{part} = 0:{size}"
          for gate in ("input", "forget", "updater", "output") for part in ("w_x", "w_h", "b")),
    ]).encode() + b"\n"
    code, out, err, peak = _run_traced({**toy, "manifest": manifest})
    assert code == EXIT_FORMAT and err.startswith("error: ")
    assert peak < ALLOCATION_LIMIT

