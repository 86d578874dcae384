"""Regenerate the golden reports and CSV digests under ``tests/golden/``.

    PYTHONPATH=src python tests/golden/make_goldens.py            # every case
    PYTHONPATH=src python tests/golden/make_goldens.py table1 ...  # named cases

Regenerate only for a deliberate change of output, and record it in
CHANGES.md; ``tests/test_golden.py`` fails on any other difference.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cases import CASES, GOLDEN_DIR, run_case  # noqa: E402


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown cases {unknown}; expected some of {sorted(CASES)}", file=sys.stderr)
        return 1
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as workdir:
            for filename, data in run_case(name, Path(workdir)).items():
                (GOLDEN_DIR / filename).write_bytes(data)
                print(f"wrote {filename}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
