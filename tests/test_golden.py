"""Every golden CLI run reproduces its committed report and CSV digest byte for byte."""

import pytest

from golden.cases import CASES, GOLDEN_DIR, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    produced = run_case(name, tmp_path)
    for filename, data in produced.items():
        assert data == (GOLDEN_DIR / filename).read_bytes(), f"{filename} changed"
