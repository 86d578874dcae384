"""Every golden CLI run reproduces its committed report and CSV digest byte for byte,
also with numpy's AVX-512 loops disabled."""

import os
import subprocess
import sys
import textwrap

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


# Runs every golden case and writes the files it yields into the directory argv[2].
_GOLDEN_CHILD = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    from numpy._core._multiarray_umath import __cpu_features__

    assert not __cpu_features__["X86_V4"], "NPY_DISABLE_CPU_FEATURES took no effect"
    sys.path.insert(0, sys.argv[1])
    from golden.cases import CASES, run_case

    for name in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            for filename, data in run_case(name, Path(workdir)).items():
                (Path(sys.argv[2]) / filename).write_bytes(data)
    """
)


@pytest.mark.skipif(not numpy_dispatches("X86_V4"), reason="numpy runs no X86_V4 loops here")
def test_goldens_without_avx512_loops(tmp_path):
    # numpy picks its SIMD loops at import; without the AVX-512 ones every golden
    # must keep its bytes
    env = dict(src_env(), NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    child = subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD, str(GOLDEN_DIR.parent), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    produced = sorted(os.listdir(tmp_path))
    assert len(produced) == len(CASES) + sum("--csv" in argv for argv in CASES.values())
    changed = [f for f in produced if (tmp_path / f).read_bytes() != (GOLDEN_DIR / f).read_bytes()]
    assert changed == []
