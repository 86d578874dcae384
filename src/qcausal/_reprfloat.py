"""Python's ``repr`` of many floats at once, as fixed-width ASCII fields.

``repr_fields(x, out)`` writes, for each float of ``x``, the bytes of
``repr(float(v))`` right-aligned in the first 24 bytes of a row of ``out``,
NULs in front and a comma at byte 24, and gives each repr's length; 24 bytes
hold the longest repr of any double.
``repr`` writes the shortest decimal that reads back as the same double and,
of several such, the one nearest to it (Steele & White, PLDI 1990; Adams,
PLDI 2018).

A magnitude in [1e-4, 1), where ``repr`` writes ``[-]0.`` + 0 to 3 zeros +
the significant digits, takes the vectorized path below. It uses only exactly
rounded operations (comparisons, ``*``, ``+``, ``-``, ``floor``, ``ceil`` and
integer arithmetic), so its bytes depend on each float's bits alone:

1. The decade ``e`` (``10**e <= |x| < 10**(e + 1)``) comes from comparing
   ``|x|`` with the doubles 0.1, 0.01 and 0.001. Each lies just above its
   decimal and no double lies between them, so the comparisons are exact.
2. With ``k = 16 - e`` (10**k is an exact double), Dekker's two-product
   (Numer. Math. 18:224, 1971) gives ``P = |x| * 10**k`` exactly as an int64
   ``Pi`` plus a fraction ``f`` in [0, 1); ``10**16 <= P < 10**17``.
3. The decimals that read back as ``x`` are those between P - g- and P + g+,
   where g+ and g- are half the gaps to the neighbouring doubles, scaled by
   ``10**k``. ``A <= B`` are the least and the greatest integer between them.
   The ends are never integers, so round half to even never decides: an end
   is a midpoint between doubles, an odd multiple of 2**(u - 1) or
   2**(u - 2) where 2**u is the ulp of ``x``, and scaled by
   ``10**k = 5**k * 2**k`` it is an odd multiple of 2**(u - 1 + k) or less,
   with u - 1 + k <= -37 in this range.
4. The shortest decimal is a multiple of ``10**j`` in [A, B] with ``j``
   greatest: of the multiples just below and just above ``P``, the one in
   [A, B] that is nearer to ``P``. Its 17 digits less the ``j`` trailing
   zeros are the significant digits: the head ``[-]0.`` + zeros + first digit
   and the 16 others fill three 8-byte words, shifted right by ``j`` bytes.
   ``10**17`` is never in [A, B]: only the double nearest to 0.1, 0.01, 0.001
   or 1 reads back from it, and that double lies in the decade above.

Every other value is written by ``repr`` itself: 0, -0, magnitudes below 1e-4
or from 1 up, NaN and inf, and the rare values whose step 4 ends in an exact
tie.
"""

from __future__ import annotations

import numpy as np

FIELD = 32  # bytes per row of repr_fields' output: the field, its comma and padding

_BLOCK = 1 << 14  # values per repr_fields call, so that the temporaries stay in cache

_POW10 = np.array([1e17, 1e18, 1e19, 1e20])  # 10**k for the decades 0.1, 0.01, 0.001, 1e-4
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)
_EXPONENT = np.uint64(0x7FF0000000000000)
_HALF_ULP = np.uint64(53 << 52)  # subtracted from the exponent bits: half the gap above
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split(a):
    """Veltkamp's split ``a = hi + lo``, each half with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


# The field's first 8 bytes, right-aligned: sign, "0.", the zeros after the
# point and the first digit, for 40 * sign + 10 * zeros + digit.
_HEAD = np.frombuffer(
    b"".join(
        f"{sign}0.{'0' * zeros}{digit}".encode().rjust(8, b"\0")
        for sign in ("", "-")
        for zeros in range(4)
        for digit in range(10)
    ),
    dtype=np.uint64,
)
# The four ASCII digits of every number below 10**4, in the lower and in the
# upper half of a word.
_GROUP = (np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
_GROUP = _GROUP.view(np.uint32).reshape(-1).astype(np.uint64)
_GROUP_HI = _GROUP << np.uint64(32)


def _shortest(mag: np.ndarray):
    """Steps 1-4 for magnitudes in [1e-4, 1): the number of zeros after the
    point, the 17 digits ``D``, ``j``, and a mask of the values left to
    ``repr``."""
    bits = mag.view(np.uint64)
    zeros = ((mag < 0.1).view(np.uint8) + (mag < 0.01) + (mag < 0.001)).astype(np.intp)
    scale = _POW10.take(zeros)
    # Dekker's two-product: p + err is |x| * 10**k exactly
    p = mag * scale
    mh, ml = _split(mag)
    sh, sl = _POW10_HI.take(zeros), _POW10_LO.take(zeros)
    err = ((mh * sh - p) + mh * sl + ml * sh) + ml * sl
    whole = np.floor(err)
    pi = p.astype(np.int64) + whole.astype(np.int64)
    f = err - whole
    # Half gaps to the neighbouring doubles, scaled; the one below is half as
    # wide at a power of two. They are exact, as are f - g- and f + g+ (all
    # lie on a grid of 2**-48 and below 2**4).
    up = ((bits & _EXPONENT) - _HALF_ULP).view(np.float64) * scale
    down = (mag - (bits - 1).view(np.float64)) * (scale * 0.5)
    a = pi + np.ceil(f - down).astype(np.int64)
    b = pi + np.floor(f + up).astype(np.int64)
    # j is 0 or 1 for most values; only those with a multiple of 100 in [a, b] loop
    tens = b // 10 * 10 >= a
    j = tens.view(np.uint8).copy()
    t = 1 + 9 * tens.view(np.uint8).astype(np.int64)
    below = pi - (pi - pi // 10 * 10) * tens
    wide = np.flatnonzero(b // 100 * 100 >= a)
    if wide.size:
        j[wide] = 2
        more = wide
        for power in range(3, 17):
            more = more[b[more] // _POW10_INT[power] * _POW10_INT[power] >= a[more]]
            if not more.size:
                break
            j[more] = power
        tw = _POW10_INT.take(j[wide])
        t[wide] = tw
        below[wide] = pi[wide] // tw * tw
    # the nearer of the two multiples: 2 * (P - below) against t, as 2 * f
    # against z; z is exact or far from [0, 2)
    twice = 2.0 * f
    z = (t - 2 * (pi - below)).astype(np.float64)
    below_ok, above_ok = below >= a, below + t <= b
    digits = below + t * (~below_ok | (above_ok & (twice >= z)))
    return zeros, digits, j, below_ok & above_ok & (twice == z)


# Values outside [1e-4, 1) move here, for repr; 17 and 16 digits end j's search early.
_ENDS = np.nextafter([1e-4, 1.0], 0.5)


def repr_fields(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``repr(float(v))`` for the ``i``-th value ``v`` of ``x`` in C order
    into row ``i`` of ``out``, a C-contiguous (x.size, 32) uint8 array: right-
    aligned in bytes 0-23, NULs in front, and a comma at byte 24. Return the
    length of each repr. Up to ``_BLOCK`` values at a time keep the
    temporaries in cache."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mag = np.abs(x)
    inside = np.fmin(np.fmax(mag, _ENDS[0]), _ENDS[1])
    zeros, digits, j, slow = _shortest(inside)
    slow = np.flatnonzero(slow | (inside != mag))
    top = digits // 10**8  # the first 9 digits
    digits -= top * 10**8
    low, top = digits.astype(np.uint32), top.astype(np.uint32)
    first = top // 10**8
    top -= first * np.uint32(10**8)
    sign = np.signbit(x)
    lengths = 19 + zeros + sign - j  # the head's 3 + zeros + sign bytes, then 16 - j digits
    words = [_HEAD.take(first + 10 * zeros + 40 * sign)]
    for half in (top, low):
        left = half // 10**4
        half -= left * np.uint32(10**4)
        words.append(_GROUP_HI.take(half) | _GROUP.take(left))
    # shift right by j bytes, whole words first
    head, lo, hi = words
    far = np.flatnonzero(j > 7)
    if far.size:
        hi[far], lo[far], head[far] = lo[far], head[far], 0
        j[far] -= 8
    shift = 8 * j.astype(np.uint64)
    back = 64 - shift  # numpy shifts a uint64 by 64 to 0
    words = out.view(np.uint64)
    words[:, 0] = head << shift
    words[:, 1] = lo << shift | head >> back
    words[:, 2] = hi << shift | lo >> back
    words[:, 3] = ord(",")
    if slow.size:
        text = [repr(v) for v in x[slow].tolist()]
        fields = np.array([t.rjust(24, "\0") + "," for t in text], dtype=f"S{FIELD}")
        out[slow] = fields[:, None].view(np.uint8)
        lengths[slow] = [len(t) for t in text]
    return lengths
