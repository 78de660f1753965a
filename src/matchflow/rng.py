"""numpy's ``default_rng`` permutation streams, drawn without importing numpy.random.

Importing numpy.random loads ``secrets``, hence hashlib and OpenSSL, which
costs a process several MB of memory.  This module reproduces, bit for bit,
the two draws the package makes from numpy's ``default_rng``:

- ``lane_permutations(seed, lanes, n)``: row r is
  ``default_rng([seed, lanes[r]]).permutation(n)``, all lanes at once;
- ``Stream(seed).tail(m, count)``: the last ``count`` entries of the next
  ``default_rng(seed).permutation(m)`` call on one stream.

Each stream is SeedSequence mixing (numpy/random/bit_generator.pyx), PCG64
seeded from it and read through its XSL-RR output (O'Neill, HMC-CS-2014-0905),
and ``Generator.shuffle``'s Fisher-Yates: for i = n-1 down to 1 it swaps i
with ``j = random_interval(i)``, a masked rejection on 32-bit draws that
takes the low half of each 64-bit output first.  Owning the stream also keeps
the bytes fixed if a numpy release changes its Generator methods (NEP 19).

All arithmetic is on uint32/uint64 arrays, which wrap without a warning; the
128-bit PCG state is a (hi, lo) pair of uint64 lanes.  State k of a stream
is s + C_k u, with C_k = 1 + M + ... + M^(k-1) and u = (M - 1) s + inc, so a
block of outputs needs one 128-bit product per output.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np

M32 = np.uint64(0xFFFFFFFF)
MASK128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_L, MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
POOL = 4  # SeedSequence's pool of uint32 words
STREAM_OUTPUTS = 2048  # outputs per product for a single stream
LANE_OUTPUTS = 16  # 64-bit outputs drawn per lane at once, bounding the temporaries


def _words(value) -> list:
    """The uint32 words SeedSequence reads from a non-negative int, low word first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _u64(value) -> tuple:
    return np.uint64(value >> 64), np.uint64(value & 0xFFFFFFFFFFFFFFFF)


def _mul(ah, al, bh, bl) -> tuple:
    """(a * b) mod 2**128 on (hi, lo) uint64 pairs; broadcasts, one side an array."""
    a0, a1, b0, b1 = al & M32, al >> 32, bl & M32, bl >> 32
    mid = a1 * b0
    mid += a0 * b0 >> 32
    low_mid = mid & M32
    low_mid += a0 * b1
    hi = a1 * b1
    hi += mid >> 32
    hi += low_mid >> 32
    hi += ah * bl
    hi += al * bh
    return hi, al * bl


def _add(ah, al, bh, bl) -> tuple:
    lo = al + bl
    return ah + bh + (lo < al), lo


@lru_cache(maxsize=None)
def _jumps(count: int) -> tuple:
    """C_1..C_count as (hi, lo) uint64 rows, and the (C, A = M^count) that advance by count."""
    c, rows = 0, []
    for _ in range(count):
        c = (c * PCG_MULT + 1) & MASK128
        rows.append(c)
    hi = np.array([r >> 64 for r in rows], dtype=np.uint64)
    lo = np.array([r & 0xFFFFFFFFFFFFFFFF for r in rows], dtype=np.uint64)
    return hi, lo, _u64(c), _u64((1 + (PCG_MULT - 1) * c) & MASK128)


def _seed(entropy: list) -> list:
    """[s_hi, s_lo, u_hi, u_lo], uint64 lane arrays, of PCG64(SeedSequence(entropy)).

    entropy holds one uint32 lane array per word.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * MIX_L - y * MIX_R
        return r ^ (r >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(POOL)]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL:]:
        for dst in range(POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    words = np.empty((2 * POOL, zero.size), dtype="<u4")
    hash_const = INIT_B
    for i in range(2 * POOL):
        value = pool[i % POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        words[i] = value ^ (value >> 16)
    # each lane's eight words, read as four little-endian uint64: initstate hi, lo; initseq hi, lo
    init = words.T.copy().view("<u8").astype(np.uint64).T
    inc = ((init[2] << 1) | (init[3] >> 63), (init[3] << 1) | np.uint64(1))
    state = _add(*inc, init[0], init[1])
    state = _add(*_mul(*state, *_u64(PCG_MULT)), *inc)
    return [*state, *_add(*_mul(*state, *_u64(PCG_MULT - 1)), *inc)]


def _draws(stream: list, count: int) -> np.ndarray:
    """The next 2 * count 32-bit draws of each lane, (2 * count, lanes) uint32.

    Row 2k holds the low half of each lane's output k and row 2k + 1 its high
    half.  stream's lanes lie along its last axis; it is advanced.
    """
    c_hi, c_lo, advance, scale = _jumps(count)
    s_hi, s_lo, u_hi, u_lo = stream
    hi, lo = _add(s_hi, s_lo, *_mul(u_hi, u_lo, c_hi[:, None], c_lo[:, None]))  # s + C_k u
    x, rot = hi ^ lo, hi >> 58  # XSL-RR: rotate hi ^ lo right by the state's top 6 bits
    out = ((x >> rot) | (x << ((64 - rot) & 63))).astype("<u8", copy=False)
    stream[:2] = _add(s_hi, s_lo, *_mul(u_hi, u_lo, *advance))
    stream[2:] = _mul(u_hi, u_lo, *scale)
    lanes = out.shape[1]
    return out.view("<u4").reshape(count, lanes, 2).transpose(0, 2, 1).reshape(2 * count, lanes)


def lane_permutations(seed, lanes, n: int) -> np.ndarray:
    """(len(lanes), n) matrix whose row r is default_rng([seed, lanes[r]]).permutation(n).

    Lanes are ints in [0, 2**32).  Entries are int16 when n < 2**15.

    The draws are read one row at a time across all lanes.  Lane state u is
    the Fisher-Yates step i + 1 that the lane is on, so a draw v, masked for
    step i, is accepted when v < u, and the lane then swaps its entries i and
    v at once and moves on to step i - 1.  Lanes are independent, so each
    lane's swaps are made in its own step order.  A lane that has taken step
    1 accepts its next draw at u = 1, a swap of entry 0 with itself, and at
    u = 0 accepts nothing more.
    """
    lanes = np.asarray(lanes, dtype=np.int64)
    if lanes.size and (lanes.min() < 0 or lanes.max() > 0xFFFFFFFF):
        raise ValueError("lanes must lie in [0, 2**32)")
    count = lanes.size
    dtype = np.int16 if n < 2**15 else np.intp
    perm = np.empty((count, n), dtype=dtype)
    perm[:] = np.arange(n, dtype=dtype)
    if n < 2 or not count:
        return perm
    words = [np.full(count, w, np.uint32) for w in _words(seed)]
    stream = _seed([*words, lanes.astype(np.uint32)])
    masks = np.array([0, 0] + [(1 << i.bit_length()) - 1 for i in range(1, n)], dtype=np.uint32)
    flat, u = perm.reshape(-1), np.full(count, n)
    start = np.arange(0, count * n, n)
    while u.any():
        for row in _draws(stream, LANE_OUTPUTS):
            v = row & masks.take(u)
            accepted = v < u
            u -= accepted
            i = start + u * accepted  # a lane that draws again swaps its entry 0 with itself
            j = start + v * accepted
            flat[i], flat[j] = flat[j], flat[i]
    return perm


class Stream:
    """One ``default_rng(seed)`` stream; successive calls read it as numpy's would."""

    def __init__(self, seed):
        state = _seed([np.full(1, w, np.uint32) for w in _words(seed)])
        blocks = iter(lambda: _draws(state, STREAM_OUTPUTS).ravel().tolist(), None)
        self._draws = itertools.chain.from_iterable(blocks)
        self._pending = 0  # steps of the last shuffle whose draws are still unread

    def _steps(self, hi: int, lo: int, perm=None) -> None:
        """Fisher-Yates steps i = hi down to lo: swap perm[i] and perm[random_interval(i)].

        Without perm the steps only read their draws.
        """
        draws, i = self._draws, hi
        while i >= lo:
            mask = (1 << i.bit_length()) - 1
            stop = max(lo, (mask + 1) >> 1) - 1  # the steps down to stop + 1 share this mask
            for j in draws:
                j &= mask
                if j <= i:
                    if perm is not None:
                        perm[i], perm[j] = perm[j], perm[i]
                    i -= 1
                    if i == stop:
                        break

    def tail(self, m: int, count: int) -> list:
        """Entries [m - count, m) of the next permutation(m) draw.

        The steps below m - count only permute positions below it, so their
        draws are read when the stream is next used, not here.
        """
        self._steps(self._pending, 1)
        keep = max(m - count, 1)
        perm = list(range(m))
        self._steps(m - 1, keep, perm)
        self._pending = keep - 1
        return perm[m - count:]
