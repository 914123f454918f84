"""Names the host in the session header, since the golden report hashes are pinned on one host class.

Reports are byte-identical for fixed seeds on the host class the hashes in ``tests/test_golden.py``
and perfbench's ``GOLDEN`` were taken on: numpy 2.4.6 finding the SIMD extensions X86_V3 X86_V4
AVX512_ICL AVX512_SPR, with its bundled OpenBLAS on the SkylakeX core. Another numpy build, SIMD
set or BLAS kernel may round a product differently, and then those tests fail; the header shows
which of the three differs.
"""

import ctypes
from pathlib import Path

import numpy as np

GOLDEN_HOST = "numpy 2.4.6; SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS core SkylakeX"


def _simd_found() -> str:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)) or "none"


def _openblas_core() -> str:
    """The core numpy's bundled OpenBLAS runs on, or ``unknown`` where it does not say."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _describe(read) -> str:
    try:
        return read()
    except Exception as exc:  # a header must not stop the session
        return f"unknown ({type(exc).__name__})"


def pytest_report_header(config):
    host = f"numpy {np.__version__}; SIMD {_describe(_simd_found)}; OpenBLAS core {_describe(_openblas_core)}"
    return [f"golden hashes pinned on: {GOLDEN_HOST}", f"this host:               {host}"]
