"""The geometric input model and seedable random-variate generation.

The workbench sorts arrays of iid geometric(p) draws on r = 0, 1, 2, ...
(the number of failures before the first success).  `ContinuousUniform`
is only a tag for the closed-form theory; nothing samples it.

All randomness flows through :class:`RandomSource`, a deterministic
uniform stream.  Identical (algorithm_id, master_seed, call sequence)
yields an identical stream, and independent substreams for parallel
workers are derived with a fixed mixing function (:func:`mix64`), so
every downstream artifact is reproducible byte for byte.

:func:`sample_block` draws many trials of a cell at once from the
streams ``RandomSource(mix64(cell_seed, t))``: it hashes the trial seeds
into their ``SeedSequence`` words for the whole block with array
arithmetic, and numpy seeds each trial's PCG64 from its words, so no
trial pays for a ``SeedSequence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALGORITHM_ID",
    "ContinuousUniform",
    "Geometric",
    "RandomSource",
    "geometric",
    "mix64",
    "sample_array",
    "sample_block",
]

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood's weyl increment and finalizer).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = (1 << 32) - 1

#: Name of the underlying generator, recorded in all output metadata.
ALGORITHM_ID = "pcg64"


def mix64(seed: int, index: int) -> int:
    """Derive the 64-bit seed of substream `index` from a parent seed.

    SplitMix64 finalizer applied to ``seed + (index + 1) * gamma``; the
    same function is used for cell and trial substreams so results do
    not depend on worker scheduling.
    """
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_block(seed: int, start: int, stop: int) -> np.ndarray:
    """``mix64(seed, t)`` for t in [start, stop), as uint64 (arithmetic wraps mod 2**64)."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed, as (k, 4).

    numpy's pool hash (pool size 4) on uint32 arrays, one element per seed.
    A seed is hashed as its little-endian 32-bit words; a word that is
    absent (seeds below 2**32 have one) hashes like 0, so both sizes take
    the same path.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(_XSHIFT))
    hash_const = _INIT_B
    halves = []
    for index in range(8):
        value = pool[index % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> np.uint32(_XSHIFT))).astype(np.uint64))
    return np.stack([halves[2 * k] | halves[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


class _TrialSeed:
    """One trial's ``SeedSequence`` words, as the seed numpy's PCG64 takes.

    PCG64 takes precomputed words only from an ``ISeedSequence``.
    :func:`sample_block` registers this class as one when it draws, not at
    import, so that ``numpy.random`` still loads with the first draw.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds 4 uint64 seed words, asked for {n_words} of {dtype!r}")
        return self.words


def _uniforms_in_place(raw: np.ndarray) -> np.ndarray:
    """Deviates in [0, 1) from contiguous raw PCG64 outputs (top 53 bits), in raw's buffer."""
    flat = raw.reshape(-1)
    np.right_shift(flat, np.uint64(11), out=flat)
    uniforms = flat.view(np.float64)
    # A ufunc with out= would first copy an input that overlaps an output of
    # another dtype; a 1-d copyto casts element by element, in place.
    np.copyto(uniforms, flat, casting="unsafe")
    np.multiply(uniforms, 2.0**-53, out=uniforms)
    return uniforms.reshape(raw.shape)


class RandomSource:
    """Deterministic stream of uniform deviates in [0, 1).

    Backed by numpy's PCG64 bit generator.  Doubles are built directly
    from the raw 64-bit outputs (top 53 bits), so the stream depends
    only on the PCG64 bit stream, which numpy keeps stable across
    releases.  ``uniform()`` and ``uniforms(k)`` consume the same
    stream: one raw output per deviate.

    Single-stream, stateful, not meant to be shared across concurrent
    workers; give each worker its own source, seeded by :func:`mix64`.
    """

    algorithm_id = ALGORITHM_ID

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, int) or isinstance(master_seed, bool):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        if not 0 <= master_seed <= _MASK64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed}")
        self.master_seed = master_seed
        self._bitgen = np.random.PCG64(master_seed)

    def __repr__(self) -> str:
        return f"RandomSource(algorithm_id={self.algorithm_id!r}, master_seed={self.master_seed})"

    def uniform(self) -> float:
        """Next deviate in [0, 1)."""
        raw = self._bitgen.random_raw()
        return (raw >> 11) * 2.0**-53

    def uniforms(self, k: int) -> np.ndarray:
        """Next `k` deviates in [0, 1) as a float64 array."""
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        if k == 0:
            return np.empty(0, dtype=np.float64)
        return _uniforms_in_place(self._bitgen.random_raw(k))


@dataclass(frozen=True)
class Geometric:
    """iid geometric(p) input on r = 0, 1, 2, ...

    Accepts 0 < p <= 1.  p = 1 is the degenerate all-zeros input; p <= 0
    is rejected because no trial would ever succeed.
    """

    p: float

    def __post_init__(self):
        p = self.p
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise ValueError(f"p must be a finite real, got {p!r}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0,1], got {p}")
        object.__setattr__(self, "p", float(p))


geometric = Geometric


@dataclass(frozen=True)
class ContinuousUniform:
    """iid continuous uniform input on [0, 1): a tag for the closed-form theory only."""


def _check_inverse_p(p: float) -> None:
    # The largest uniform is 1 - 2**-53, so no draw exceeds this bound; past
    # the int64 range (p below about 4e-18) the cast in _geometric_in_place
    # would wrap.
    if math.log(2.0**-53) / math.log1p(-p) >= 2.0**63:
        raise ValueError(f"p={p!r} is too small: geometric draws would overflow int64")


def _geometric_in_place(u: np.ndarray, p: float) -> np.ndarray:
    """floor(log1p(-u) / log1p(-p)) for p < 1 and contiguous u, as int64 in u's buffer."""
    flat = u.reshape(-1)
    np.negative(flat, out=flat)
    np.log1p(flat, out=flat)
    np.divide(flat, math.log1p(-p), out=flat)
    np.floor(flat, out=flat)
    draws = flat.view(np.int64)
    np.copyto(draws, flat, casting="unsafe")  # in place, as in _uniforms_in_place
    return draws.reshape(u.shape)


def sample_array(src: RandomSource, model: Geometric, n: int) -> np.ndarray:
    """n iid geometric draws from `src` by the inverse CDF, in draw order, as int64."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not isinstance(model, Geometric):
        raise TypeError(f"unknown input model: {model!r}")
    if model.p >= 1.0:
        src.uniforms(n)  # keep stream consumption identical to p < 1
        return np.zeros(n, dtype=np.int64)
    _check_inverse_p(model.p)
    return _geometric_in_place(src.uniforms(n), model.p)


def sample_block(model: Geometric, n: int, cell_seed: int, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of a cell as one (stop - start, n) int64 array.

    Row i draws from ``RandomSource(mix64(cell_seed, t))`` for t = start + i
    and equals ``sample_array`` on that source: the trial seeds and their
    ``SeedSequence`` words are computed for the whole block at once
    (:func:`_seed_sequence_words`), and numpy seeds each trial's PCG64
    from its words, so every draw still comes from numpy's PCG64.  The
    block is filled as raw uint64 and mapped to geometric draws in place
    (about 8 bytes per value, output included).  Refusals (n < 1, a bad start/stop,
    a model that is not `Geometric`, a p whose draws would overflow int64)
    raise before any draw.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    if not isinstance(model, Geometric):
        raise TypeError(f"unknown input model: {model!r}")
    if model.p >= 1.0:
        return np.zeros((stop - start, n), dtype=np.int64)
    _check_inverse_p(model.p)
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    raw = np.empty((stop - start, n), dtype=np.uint64)
    for row, words in zip(raw, _seed_sequence_words(_mix64_block(cell_seed, start, stop))):
        row[:] = np.random.PCG64(_TrialSeed(words)).random_raw(n)
    return _geometric_in_place(_uniforms_in_place(raw), model.p)
