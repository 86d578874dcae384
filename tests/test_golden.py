"""Every golden CLI run reproduces its committed report and CSV digest byte for byte,
also with numpy's AVX-512 loops disabled, with numpy's baseline X86_V2 loops alone,
and under each OpenBLAS kernel the CPU runs."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from golden.cases import CASES, GOLDEN_DIR, run_case
from test_cli import src_env


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    produced = run_case(name, tmp_path)
    for filename, data in produced.items():
        assert data == (GOLDEN_DIR / filename).read_bytes(), f"{filename} changed"


def numpy_dispatches(level: str) -> bool:
    """Whether numpy has loops for the CPU ``level`` (``"X86_V4"`` is AVX-512) and
    this CPU runs them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return level in __cpu_dispatch__ and bool(__cpu_features__.get(level))


# Runs the golden cases named in argv[3:] and writes the files they yield into
# the directory argv[2].
_GOLDEN_CHILD = textwrap.dedent(
    """
    import os
    import sys
    import tempfile
    from pathlib import Path

    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    if disabled:
        from numpy._core._multiarray_umath import __cpu_features__

        on = [f for f in disabled if __cpu_features__.get(f)]
        assert not on, f"NPY_DISABLE_CPU_FEATURES left {on} on"
    sys.path.insert(0, sys.argv[1])
    from golden.cases import run_case

    for name in sys.argv[3:]:
        with tempfile.TemporaryDirectory() as workdir:
            for filename, data in run_case(name, Path(workdir)).items():
                (Path(sys.argv[2]) / filename).write_bytes(data)
    """
)


def changed_in_child(tmp_path, names, **env) -> list[str]:
    """Run the golden cases ``names`` in one child Python with ``env`` added to its
    environment; return the golden files whose bytes changed."""
    child = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD, str(GOLDEN_DIR.parent), str(tmp_path), *names],
        env=dict(src_env(), **env), capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    produced = sorted(os.listdir(tmp_path))
    assert len(produced) == len(names) + sum("--csv" in CASES[name] for name in names)
    return [f for f in produced if (tmp_path / f).read_bytes() != (GOLDEN_DIR / f).read_bytes()]


@pytest.mark.skipif(not numpy_dispatches("X86_V4"), reason="numpy runs no X86_V4 loops here")
def test_goldens_without_avx512_loops(tmp_path):
    # numpy picks its SIMD loops at import; without the AVX-512 ones every golden
    # must keep its bytes
    disabled = "AVX512_SPR AVX512_ICL X86_V4"
    assert changed_in_child(tmp_path, list(CASES), NPY_DISABLE_CPU_FEATURES=disabled) == []


# Every reported point comes from real arithmetic alone on the drawn components or
# on an object's entries (sqrt, sin, cos, +, -, *, /), whose bits numpy's X86_V2
# loops share with its X86_V3 and X86_V4 ones; so does every multistart value.
@pytest.mark.skipif(not numpy_dispatches("X86_V3"), reason="numpy runs no X86_V3 loops here")
def test_real_arithmetic_goldens_with_baseline_loops(tmp_path):
    disabled = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
    assert changed_in_child(tmp_path, list(CASES), NPY_DISABLE_CPU_FEATURES=disabled) == []


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def cpu_flags() -> set[str]:
    """The flags of the first CPU in /proc/cpuinfo (empty where there is none)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            line = next((line for line in handle if line.startswith("flags")), ":")
    except OSError:
        return set()
    return set(line.split(":", 1)[1].split())


# Each OpenBLAS kernel and the CPU flag it needs.
OPENBLAS_KERNELS = {"Prescott": "pni", "Haswell": "avx2", "SkylakeX": "avx512f"}
# These two take their witness from LAPACK's eigh of a degenerate matrix, so the
# kernel still decides which eigenvectors come back.
EIGH_CASES = {"classify-ambiguous-unitary", "classify-escapable-density"}


@pytest.mark.skipif(not openblas_dynamic_arch(), reason="numpy's BLAS has no run-time kernels")
@pytest.mark.parametrize("kernel", sorted(OPENBLAS_KERNELS))
def test_goldens_under_openblas_kernel(tmp_path, kernel):
    if OPENBLAS_KERNELS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    names = sorted(set(CASES) - EIGH_CASES)
    assert changed_in_child(tmp_path, names, OPENBLAS_CORETYPE=kernel) == []


# Prints the SHA-256 of the four reference rotations' bytes, in a child Python.
_ROTATIONS_DIGEST = (
    "import hashlib; from qcausal.basis_change import ESCAPE_V_SET; "
    "print(hashlib.sha256(b''.join(v.tobytes() for v in ESCAPE_V_SET)).hexdigest())"
)


@pytest.mark.parametrize("kernel", [None, *sorted(OPENBLAS_KERNELS)])
def test_reference_rotations_keep_their_bits_under_openblas_kernel(kernel):
    # the rotations are pinned floats: no SVD at import, so no kernel moves a bit
    # (as projected by LAPACK, Prescott's began 4f3638a3 and Haswell's fa3f1e85)
    if kernel is not None and OPENBLAS_KERNELS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    env = dict(src_env(), **({} if kernel is None else {"OPENBLAS_CORETYPE": kernel}))
    child = subprocess.run(
        [sys.executable, "-c", _ROTATIONS_DIGEST], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("d1ce4059e9c96293"), child.stdout
