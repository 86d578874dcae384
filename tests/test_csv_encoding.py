"""``cli._encode_rows`` writes every float of a CSV row exactly as ``repr`` does.

The oracle is ``test_cli.repr_rows_oracle``, the encoder the CSV had before
the vectorized kernel of ``qcausal._reprfloat``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal import cli
from qcausal import correlation as corr
from qcausal import geometry as geo
from qcausal.samplers import SamplerConfig, sample_density, sample_unitary
from test_cli import repr_rows_oracle, src_env
from test_golden import numpy_dispatches


# Values outside the kernel's range [1e-4, 1), which repr writes itself.
FALLBACK_DOMAIN = [
    0.0, -0.0, 1.0, -1.0, 1e-5, float(np.nextafter(1e-4, 0)), 5e-324,
    2.2250738585072014e-308, 1e-300,
]


def _ulp_walk(centres, steps: int = 50) -> np.ndarray:
    """Every double within ``steps`` ulps of each of ``centres``."""
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-steps, steps + 1)).reshape(-1).view(np.float64)


def float_sets(seed: int = 0) -> dict[str, np.ndarray]:
    """Float sets aimed at the kernel's edges, each with random signs."""
    rng = np.random.default_rng(seed)
    n = 50_000
    digits = rng.integers(1, 16, n)
    # decimals of 1 to 15 significant digits after 0 to 3 zeros, and their neighbours
    short = rng.integers(10 ** (digits - 1), 10**digits) / 10.0 ** (digits + rng.integers(0, 4, n))
    # binary fractions m / 2**q: many lie exactly halfway between two shortest decimals
    q = rng.integers(1, 41, n)
    dyadic = np.floor(rng.random(n) * 2.0**q) / 2.0**q
    fast_bits = rng.integers(
        np.float64(1e-4).view(np.int64), np.float64(1.0).view(np.int64), 2 * n
    ).view(np.float64)
    sets = {
        "uniform": rng.uniform(0, 1, 2 * n),
        "log-uniform": 10 ** rng.uniform(-6, 0.5, 2 * n),
        "short decimals": short,
        "below short decimals": np.nextafter(short, 0),
        "above short decimals": np.nextafter(short, 1),
        "binary fractions": dyadic,
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "walks around powers of ten": _ulp_walk(10.0 ** np.arange(-5, 2)),
        "walks around powers of two": _ulp_walk(np.ldexp(1.0, np.arange(-15, 2))),
        "random bits in range": fast_bits,
        "random bits": rng.integers(0, 2**63, n, dtype=np.int64).view(np.float64),
        "fallback domain": np.array(FALLBACK_DOMAIN),
    }
    return {name: np.where(rng.random(len(v)) < 0.5, -v, v) for name, v in sets.items()}


def encode(pts, cvals, codes) -> bytes:
    """``cli._encode_rows`` of the rows ``pts`` with the c column ``cvals``."""
    return cli._encode_rows(np.column_stack((pts, cvals)), codes)


def assert_encodes_like_repr(values) -> None:
    """``values``, four to a row (padded with 0.5), encode as the oracle encodes them."""
    values = np.asarray(values, dtype=np.float64)
    rows = np.concatenate((values, np.full(-len(values) % 4, 0.5))).reshape(-1, 4)
    codes = (np.arange(len(rows)) % len(geo._LABEL_NAMES)).astype(np.uint8)
    got = cli._encode_rows(rows, codes)
    want = repr_rows_oracle(rows[:, :3], rows[:, 3], codes)
    if got != want:
        row = next(g for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w)
        wrong = want.split(b"\n")[got.split(b"\n").index(row)]
        raise AssertionError(f"encoded {row!r}, repr gives {wrong!r}")


@pytest.mark.parametrize("name", sorted(float_sets()))
def test_float_set_encodes_like_repr(name):
    assert_encodes_like_repr(float_sets()[name])


def test_fallback_domain_keeps_repr_forms():
    rows = np.array([[0.0, -0.0, 1e-5, 1e-300], [1.0, -1.0, 5e-324, 0.5]])
    rows = cli._encode_rows(rows, np.array([0, 3], dtype=np.uint8))
    assert rows == b"0.0,-0.0,1e-05,1e-300,CC_ONLY\n1.0,-1.0,5e-324,0.5,MIXTURE_REQUIRED\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_any_finite_floats_encode_like_repr(values):
    assert_encodes_like_repr(values)


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("kind, rank", [("DC", 4), ("CC", 1), ("CC", 4)])
def test_sampled_chunk_encodes_like_repr(kind, rank, seed):
    rng = SamplerConfig(seed=seed, density_rank=rank).rng()
    n = cli._CHUNK_ROWS
    if kind == "CC":
        pts = corr.cc_pvector_batch(sample_density(rng, rank=rank, size=n))
    else:
        pts = corr.dc_pvector_batch(sample_unitary(rng, size=n))
    cvals = pts.prod(axis=1)
    codes = geo._classify_codes(pts, tol=1e-9)
    assert encode(pts, cvals, codes) == repr_rows_oracle(pts, cvals, codes)


# Doubles whose repr takes 24 bytes, the longest of any double.
LONGEST = [
    -2.2250738585072014e-308, -1.7708425042926192e-100, -3.1312945593648976e-123,
    -5.3114616832675065e-300, -2.0230481792926306e+150, -1.0134107515795256e+308,
]


def edge_rows(n: int = 2 * 4096 + 7) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` rows (points, c column, label codes) at the encoder's edges: 24-byte
    reprs in every column, 3-byte ones, fast and fallback fields mixed in each
    column, and every label; the rows on both sides of each 4,096-row block
    boundary are among them."""
    fast = [0.5, -0.123456789, 0.00012345678901234567, -0.9999999999999999, 0.1]
    slow = [1e-05, -1.0, 12.5, 5e-324, float(np.nextafter(1e-4, 0))]
    patterns = [LONGEST[k : k + 4] for k in range(3)] + [[0.0] * 4, [1.0] * 4, [0.5, 0.0, 1.0, 0.5]]
    for k in range(5):
        mixed = [fast[k], slow[k], fast[k - 1], slow[k - 1]]
        patterns += [mixed, mixed[1:] + mixed[:1], [-v for v in mixed]]
    rows = np.array(patterns)[np.arange(n) % len(patterns)]
    for boundary in range(4096, n, 4096):
        rows[boundary - 1], rows[boundary] = LONGEST[-4:], [0.0, 0.0, 0.0, 0.0]
    codes = (np.arange(n) % len(geo._LABEL_NAMES)).astype(np.uint8)
    return rows[:, :3], rows[:, 3], codes


def test_edge_rows_encode_like_repr():
    pts, cvals, codes = edge_rows()
    assert encode(pts, cvals, codes) == repr_rows_oracle(pts, cvals, codes)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8192])
def test_rows_at_block_boundaries_encode_like_repr(n):
    pts, cvals, codes = edge_rows(n)
    assert encode(pts, cvals, codes) == repr_rows_oracle(pts, cvals, codes)


def test_empty_chunk_encodes_to_nothing():
    assert cli._encode_rows(np.empty((0, 4)), np.empty(0, dtype=np.uint8)) == b""


# Checks every float set in a child process whose numpy runs only its baseline loops.
_BASELINE_CHILD = textwrap.dedent(
    """
    import sys

    from numpy._core._multiarray_umath import __cpu_features__

    assert not __cpu_features__["X86_V3"], "NPY_DISABLE_CPU_FEATURES took no effect"
    sys.path.insert(0, sys.argv[1])
    from test_cli import repr_rows_oracle
    from test_csv_encoding import assert_encodes_like_repr, edge_rows, encode, float_sets

    for values in float_sets().values():
        assert_encodes_like_repr(values)
    assert encode(*edge_rows()) == repr_rows_oracle(*edge_rows())
    """
)


@pytest.mark.skipif(not numpy_dispatches("X86_V3"), reason="numpy runs no X86_V3 loops here")
def test_float_sets_encode_like_repr_with_baseline_loops():
    # the kernel's bytes depend only on each float's bits, not on numpy's SIMD loops
    env = dict(src_env(), NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3")
    child = subprocess.run(
        [sys.executable, "-c", _BASELINE_CHILD, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
