"""The geometric input model and seedable random-variate generation.

The workbench sorts arrays of iid geometric(p) draws on r = 0, 1, 2, ...
(the number of failures before the first success).  `ContinuousUniform`
is only a tag for the closed-form theory; nothing samples it.

:func:`sample_block` draws many trials of a cell at once, and its
docstring states which generator each trial draws from.  :func:`mix64`
derives every substream seed with a fixed mixing function, so every
downstream artifact is reproducible byte for byte whatever the
scheduling.  Trial seeds are hashed into their ``SeedSequence`` words
with array arithmetic (:func:`_seed_sequence_words`), so no trial pays
for a ``SeedSequence``, and :func:`_draw_rows` draws a block from those
words.  The pipeline calls the two itself, hashing the seeds of a whole
share of trials at once (``sortlab.montecarlo``); ``sample_block`` is the
same draw for one block.

:class:`RandomSource` with :func:`sample_array` is the per-trial
definition ``sample_block`` must match.  It leaves the seeding to numpy,
so it shares none of ``sample_block``'s seed hashing.
"""

from __future__ import annotations

import math
import numbers
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


def _as_int(name: str, value, minimum: int | None = None) -> int:
    # An integer of any kind (numpy's too) as a Python int.  A bool is refused
    # like any non-integer, and so is a value below `minimum` if one is given.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _as_seed(name: str, value) -> int:
    # _as_int, then refused unless it fits in 64 unsigned bits.
    value = _as_int(name, value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return value


def mix64(seed: int, index: int) -> int:
    """Derive the 64-bit seed of substream `index` from a parent seed.

    SplitMix64 finalizer applied to ``seed + (index + 1) * gamma``, computed
    by :func:`_mix64_block`; the same function is used for cell and trial
    substreams so results do not depend on worker scheduling.  Refuses a
    `seed` that is not an int in [0, 2**64) and an `index` that is not an
    int in [0, 2**64 - 2] (a bool is not an int for either), rather than
    wrapping them mod 2**64.
    """
    seed, index = _as_seed("seed", seed), _as_int("index", index, minimum=0)
    return int(_mix64_block(seed, index, index + 1)[0])


def _mix64_block(seed: int, start: int, stop: int) -> np.ndarray:
    """``mix64(seed, t)`` for t in [start, stop), as uint64.

    Refuses a range without 0 <= start < stop, and any t above 2**64 - 2,
    whose multiplier t + 1 would not fit in 64 bits and would wrap (t = 2**64
    would repeat t = 0's seed).  Past those checks the arithmetic wraps mod
    2**64, as SplitMix64's does.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    if stop > _MASK64:
        raise ValueError(f"index must be <= {_MASK64 - 1}, got {stop - 1}")
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
    :func:`_draw_rows` registers this class as one when it draws, not at
    import, so that ``numpy.random`` still loads with the first draw.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"holds 4 uint64 seed words, asked for {n_words} of {dtype!r}")
        return self.words


class RandomSource:
    """One trial's generator: numpy's PCG64, seeded by numpy from `master_seed`,
    an integer (numpy's too, not a bool) in [0, 2**64).

    :func:`sample_array` reads its raw 64-bit outputs, one per draw.
    Stateful and single-stream; give each trial its own source, seeded by
    :func:`mix64`.
    """

    def __init__(self, master_seed: int):
        self._bitgen = np.random.PCG64(_as_seed("master_seed", master_seed))


@dataclass(frozen=True)
class Geometric:
    """iid geometric(p) input on r = 0, 1, 2, ...

    Accepts any real 0 < p <= 1 but a bool (numpy scalars too) and stores
    it as a float.  p <= 0 is rejected because no trial would ever succeed.
    """

    p: float

    def __post_init__(self):
        p = self.p
        # Finite by comparison: math.isfinite overflows on an int past the float range.
        if isinstance(p, bool) or not (isinstance(p, numbers.Real) and abs(p) < math.inf):
            raise ValueError(f"p must be a finite real, got {p!r}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0,1], got {p}")
        object.__setattr__(self, "p", float(p))


geometric = Geometric


@dataclass(frozen=True)
class ContinuousUniform:
    """iid continuous uniform input on [0, 1): a tag for the closed-form theory only."""


def _inverse_p(model: Geometric, n: int) -> float:
    """The p whose inverse CDF maps a sampler's uniforms.

    Refuses, in this order: an n that is not an int >= 1 (:func:`_as_int`),
    a model that is not `Geometric`, and a p whose draws would overflow int64.
    """
    _as_int("n", n, minimum=1)
    if not isinstance(model, Geometric):
        raise TypeError(f"unknown input model: {model!r}")
    # The largest uniform is 1 - 2**-53, so no draw exceeds this bound; past
    # the int64 range (p below about 4e-18) the cast in _geometric_in_place
    # would wrap.
    if model.p < 1.0 and math.log(2.0**-53) / math.log1p(-model.p) >= 2.0**63:
        raise ValueError(f"p={model.p!r} is too small: geometric draws would overflow int64")
    return model.p


def _geometric_in_place(raw: np.ndarray, p: float) -> np.ndarray:
    """floor(log1p(-u) / log1p(-p)), u the deviate in [0, 1) that each
    contiguous raw PCG64 output makes (its top 53 bits times 2**-53), as int64
    in raw's buffer."""
    flat = raw.reshape(-1)
    np.right_shift(flat, np.uint64(11), out=flat)
    values = flat.view(np.float64)
    # A ufunc with out= would first copy an input that overlaps an output of
    # another dtype; a 1-d copyto casts element by element, in place.
    np.copyto(values, flat, casting="unsafe")
    # Scaling by a power of two is exact, so this is -u bit for bit.
    np.multiply(values, -(2.0**-53), out=values)
    np.log1p(values, out=values)
    # log1p(-1) is -inf, where math.log1p raises; every quotient is then +0.0.
    np.divide(values, math.log1p(-p) if p < 1.0 else -math.inf, out=values)
    # The quotient is >= +0.0 for 0 <= u < 1, so the cast's truncation is
    # the floor.
    draws = flat.view(np.int64)
    np.copyto(draws, values, casting="unsafe")
    return draws.reshape(raw.shape)


def sample_array(src: RandomSource, model: Geometric, n: int) -> np.ndarray:
    """n iid geometric draws from `src` by the inverse CDF, in draw order, as int64."""
    p = _inverse_p(model, n)
    return _geometric_in_place(src._bitgen.random_raw(n), p)


def sample_block(model: Geometric, n: int, cell_seed: int, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of a cell as one (stop - start, n) int64 array.

    Row i is trial t = start + i: the inverse-CDF draws from numpy's
    ``PCG64(mix64(cell_seed, t))``, equal to ``sample_array`` on
    ``RandomSource(mix64(cell_seed, t))``.  The trial seeds and their
    ``SeedSequence`` words are computed for the whole block at once
    (:func:`_seed_sequence_words`), and :func:`_draw_rows` has numpy seed
    each trial's PCG64 from its words, so every draw still comes from
    numpy's PCG64 (about 8 bytes per value, output included, after a
    hashing peak of about 165 bytes per trial).  Refusals raise before
    any draw, in this order: :func:`_inverse_p`'s (an n that is not an int
    >= 1, a model that is not `Geometric`, a p whose draws would overflow
    int64), then a `cell_seed` that is not an int in [0, 2**64), then a
    start or stop that is not an int (:func:`_as_int`; a bool is not one),
    then :func:`_mix64_block`'s (a range without 0 <= start < stop, a trial
    index above 2**64 - 2).
    """
    p = _inverse_p(model, n)
    cell_seed = _as_seed("cell_seed", cell_seed)
    seeds = _mix64_block(cell_seed, _as_int("start", start), _as_int("stop", stop))
    return _draw_rows(p, n, _seed_sequence_words(seeds))


def _draw_rows(p: float, n: int, words: np.ndarray) -> np.ndarray:
    """The (len(words), n) int64 block whose row i is drawn from numpy's PCG64
    seeded by ``words[i]``, one trial's ``SeedSequence`` words (a row of
    :func:`_seed_sequence_words`).

    `p` is :func:`_inverse_p`'s.  The block is filled as raw uint64, and
    :func:`_geometric_in_place` maps each raw word to its inverse-CDF draw
    in the block's buffer (about 8 bytes per value, output included).
    """
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    raw = np.empty((len(words), n), dtype=np.uint64)
    for row, trial_words in zip(raw, words):
        row[:] = np.random.PCG64(_TrialSeed(trial_words)).random_raw(n)
    return _geometric_in_place(raw, p)
