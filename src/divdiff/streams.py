"""Per-(seed, sample, step) random streams, and many of them in one pass.

Sample i at step t draws its uniforms from numpy's default generator
seeded with the key [seed mod 2**64, i, t]; sample_stream is that
reference definition. stream_uniforms returns the same draws, bit for
bit, for a whole block of keys without constructing any Generator: it
runs numpy's SeedSequence hash in uint32 lanes and the PCG64 generator
(a 128-bit LCG with the XSL-RR output; O'Neill 2014, "PCG") in (hi, lo)
uint64 lanes, and reaches every stream's k-th state by a jump ahead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

_SEED_MASK = (1 << 64) - 1
_M32 = 0xFFFFFFFF

# numpy.random.SeedSequence: a pool of four 32-bit words and its hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def sample_stream(seed: int, sample: int, step: int) -> np.random.Generator:
    """Random stream for one sample at one step, invariant to batch size."""
    return np.random.default_rng([seed & _SEED_MASK, sample, step])


def _int_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int (0 is [0])."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per hash call, the constant it xors in and the one it multiplies by.

    SeedSequence advances its hash constant by one multiplication per
    call, whatever the data, so the whole sequence is fixed.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    c = np.array(consts, dtype=np.uint32)[:, None, None]
    return c[:-1], c[1:]


# mix_entropy makes 4 hash calls to fill the pool, then 3 per source word;
# generate_state makes one per output word (8 for four uint64 words)
_MIX_XOR, _MIX_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_OUT_XOR, _OUT_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hash(values, xor, mul):
    values = values ^ xor
    values *= mul
    values ^= values >> 16
    return values


def _seed_state(seed: int, batch: int, steps) -> np.ndarray:
    """SeedSequence([seed, i, t]).generate_state(4, uint64) as a (4, T, B) array.

    Every key is at most four words long (seed <= 2**64 - 1, i and t below
    2**32), so it fills the pool with zero padding and the hash never
    takes SeedSequence's path for longer entropy.
    """
    words = _int_words(seed & _SEED_MASK)
    pool = np.zeros((_POOL, len(steps), batch), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None, None]
    pool[len(words)] = np.arange(batch, dtype=np.uint32)
    pool[len(words) + 1] = np.asarray(steps, dtype=np.uint32)[:, None]
    pool = _hash(pool, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src in range(_POOL):
        # the source word stays fixed while it is mixed into the other three
        dst = [d for d in range(_POOL) if d != src]
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _MIX_XOR[calls], _MIX_MUL[calls])
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hash(pool[np.arange(2 * _POOL) % _POOL], _OUT_XOR, _OUT_MUL).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (hi, lo) uint64 arrays of 128-bit ints."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _SEED_MASK for v in values], dtype=np.uint64)
    hi.setflags(write=False)
    lo.setflags(write=False)
    return hi, lo


@lru_cache(maxsize=16)
def _jump(length: int):
    """(hi, lo) of M**(k+1) and M**k + ... + 1 for the draws k = 1..length.

    After seeding, PCG64 holds M*x + inc with x = initstate + inc, and
    each draw first advances the state, so draw k reads
    M**(k+1) * x + (M**k + ... + 1) * inc (mod 2**128).
    """
    mod = 1 << 128
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(length):
        total = (total + power) % mod
        power = power * _PCG_MULT % mod
        powers.append(power)
        sums.append(total)
    return _split(powers), _split(sums)


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2**128 on (hi, lo) uint64 lanes."""
    a0, a1 = al & _M32, al >> 32
    b0, b1 = bl & _M32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + al * bh + ah * bl
    return hi, al * bl


def stream_uniforms(seed: int, batch: int, steps, length: int) -> np.ndarray:
    """All uniforms of a block of streams, as a (len(steps), batch, length) array.

    Row [t, i] is sample_stream(seed, i, steps[t]).random(length), bit for
    bit. Steps must lie in [0, 2**32).
    """
    steps = np.asarray(steps, dtype=np.int64).reshape(-1)
    if batch < 0 or length < 0 or np.any((steps < 0) | (steps > _M32)):
        raise InvalidInputError("stream_uniforms: batch, length and steps must be "
                                "non-negative and steps below 2**32")
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(seed, batch, steps)[..., None]
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    x_lo = init_lo + inc_lo
    x_hi = init_hi + inc_hi + (x_lo < inc_lo)
    (m_hi, m_lo), (c_hi, c_lo) = _jump(length)
    s_hi, s_lo = _mul128(m_hi, m_lo, x_hi, x_lo)
    t_hi, t_lo = _mul128(c_hi, c_lo, inc_hi, inc_lo)
    s_lo += t_lo
    s_hi += t_hi + (s_lo < t_lo)
    # XSL-RR: rotate hi ^ lo right by the top six bits of the state
    rot = s_hi >> 58
    s_lo ^= s_hi
    out = s_lo >> rot | s_lo << (-rot & 63)
    out >>= 11
    return out.astype(np.float64) * 2.0**-53
