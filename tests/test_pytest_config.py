import subprocess
import sys
from pathlib import Path

import conftest

REPO = Path(__file__).resolve().parent.parent


def test_a_failing_given_test_is_a_normal_failure(tmp_path):
    # hypothesis reports a falsifying example through modules that warn on import; under the repo's
    # warnings-as-errors config that must stay one failed test, not an INTERNALERROR that ends the session
    (tmp_path / "test_case.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "-p", "no:cacheprovider", "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 1, child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout
    assert "INTERNALERROR" not in child.stdout + child.stderr


def test_report_header_names_the_host_and_never_raises(monkeypatch):
    lines = conftest.pytest_report_header(None)
    assert conftest.GOLDEN_HOST in lines[0]
    assert f"numpy {conftest.np.__version__};" in lines[1]

    def broken(path):
        raise OSError("no such library")

    monkeypatch.setattr(conftest.ctypes, "CDLL", broken)
    assert "OpenBLAS core unknown (OSError)" in conftest.pytest_report_header(None)[1]
