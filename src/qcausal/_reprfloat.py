"""Python's ``repr`` of many floats at once, as NUL-padded ASCII fields.

``repr_fields(x)`` gives, for each float of ``x``, the bytes of
``repr(float(v))`` as one run inside a 24-byte row of NUL bytes, and the
index just past that run; 24 bytes hold the longest repr of any double.
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
   zeros are the significant digits. ``10**17`` is never in [A, B]: only the
   double nearest to 0.1, 0.01, 0.001 or 1 reads back from it, and that
   double lies in the decade above.

Every other value is written by ``repr`` itself: 0, -0, magnitudes below 1e-4
or from 1 up, NaN and inf, and the rare values whose step 4 ends in an exact
tie.
"""

from __future__ import annotations

import numpy as np

FIELD = 24

_BLOCK = 1 << 14  # values per pass, so that the temporaries stay in cache

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
# Four digits for every number below 10**4, and from 10**4 on the same with
# their trailing zeros left out, for a group after which every digit is zero.
_DIGITS = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 0, axis=1)[:, ::-1]
_GROUP = np.concatenate((_DIGITS + 48, (_DIGITS + 48) * ~_TRAILING)).astype(np.uint8)
_GROUP = _GROUP.view(np.uint32).reshape(-1)
# The group g (from 0) of 4 digits after the first ends the significant digits
# or follows their end when j > _LAST_FULL[g].
_LAST_FULL = (12, 8, 4, 0)


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
        aw, bw = a[wide], b[wide]
        jw = np.full(wide.size, 2, dtype=np.uint8)
        for tw in _POW10_INT[3:]:
            more = bw // tw * tw >= aw
            if not more.any():
                break
            jw += more
        j[wide] = jw
        tw = _POW10_INT.take(jw)
        t[wide] = tw
        below[wide] = pi[wide] // tw * tw
    # the nearer of the two multiples: 2 * (P - below) against t, as 2 * f
    # against z; z is exact or far from [0, 2)
    twice = 2.0 * f
    z = (t - 2 * (pi - below)).astype(np.float64)
    below_ok, above_ok = below >= a, below + t <= b
    digits = below + t * (~below_ok | (above_ok & (twice >= z)))
    return zeros, digits, j, below_ok & above_ok & (twice == z)


def _fast_fields(x: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write steps 1-4's fields of ``x`` into ``out``, a (len(x), 3) uint64
    view of 24-byte fields. Return the fields' ends and the indices of the
    values left to ``repr``."""
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1.0)
    zeros, digits, j, fallback = _shortest(np.where(fast, mag, 0.5))
    top = (digits // 10**8).astype(np.uint32)  # the first 9 digits
    low = (digits - top.astype(np.int64) * 10**8).astype(np.uint32)
    first = top // 10**8
    top -= first * np.uint32(10**8)
    head = first.astype(np.intp)
    head += 10 * zeros
    head += 40 * np.signbit(x)
    out[:, 0] = _HEAD.take(head)
    words = out.view(np.uint32)
    for col, half in ((2, top), (4, low)):
        left = half // 10**4
        for word, group in ((col, left), (col + 1, half - left * np.uint32(10**4))):
            group += (j > _LAST_FULL[word - 2]) * np.uint32(10**4)
            words[:, word] = _GROUP.take(group)
    return FIELD - j.astype(np.intp), np.flatnonzero(~fast | fallback)


def repr_fields(x) -> tuple[np.ndarray, np.ndarray]:
    """``repr(float(v))`` for each ``v`` of ``x`` as ASCII, in a uint8 array of
    shape ``x.shape + (24,)`` whose other bytes are NUL, and the index in its
    field just past each repr's last byte (an int array of ``x.shape``)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty((flat.size, FIELD // 8), dtype=np.uint64)
    ends = np.empty(flat.size, dtype=np.intp)
    for lo in range(0, flat.size, _BLOCK):
        hi = lo + _BLOCK
        ends[lo:hi], slow = _fast_fields(flat[lo:hi], out[lo:hi])
        if slow.size:
            slow += lo
            text = [repr(v) for v in flat[slow].tolist()]
            out[slow] = np.array(text, dtype=f"S{FIELD}").view(np.uint64).reshape(-1, FIELD // 8)
            ends[slow] = [len(s) for s in text]
    return out.view(np.uint8).reshape(*x.shape, FIELD), ends.reshape(x.shape)
