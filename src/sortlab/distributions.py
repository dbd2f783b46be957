"""Input models and seedable random-variate generation.

The workbench sorts arrays of iid draws from one of two input models: a
geometric(p) distribution on r = 0, 1, 2, ... (number of failures before
the first success) or a continuous uniform distribution on [0, 1).

All randomness flows through :class:`RandomSource`, a deterministic
uniform stream.  Identical (algorithm_id, master_seed, call sequence)
yields an identical stream, and independent substreams for parallel
workers are derived with a fixed mixing function (:func:`mix64`), so
every downstream artifact is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ALGORITHM_ID",
    "ContinuousUniform",
    "Geometric",
    "GeometricParam",
    "InputModel",
    "RandomSource",
    "geometric",
    "geometric_from_uniform",
    "geometric_pmf",
    "mix64",
    "sample_array",
    "sample_geometric_inverse",
    "sample_geometric_loop",
    "sample_uniform",
]

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood's weyl increment and finalizer).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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


class RandomSource:
    """Deterministic stream of uniform deviates in [0, 1).

    Backed by numpy's PCG64 bit generator.  Doubles are built directly
    from the raw 64-bit outputs (top 53 bits), so the stream depends
    only on the PCG64 bit stream, which numpy keeps stable across
    releases.  ``uniform()`` and ``uniforms(k)`` consume the same
    stream: one raw output per deviate.

    Single-stream, stateful, not meant to be shared across concurrent
    workers; derive one source per worker via :meth:`substream`.
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
        raw = self._bitgen.random_raw(k)
        return (raw >> np.uint64(11)) * 2.0**-53

    def substream(self, index: int) -> "RandomSource":
        """Independent source number `index` derived from this seed."""
        return RandomSource(mix64(self.master_seed, index))


@dataclass(frozen=True)
class GeometricParam:
    """Success probability of the geometric input model.

    Accepts 0 < p <= 1.  p = 1 is the degenerate all-zeros input; p <= 0
    is rejected because the failure-counting sampler would not
    terminate.
    """

    p: float

    def __post_init__(self):
        p = self.p
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise ValueError(f"p must be a finite real, got {p!r}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0,1], got {p}")
        object.__setattr__(self, "p", float(p))


@dataclass(frozen=True)
class Geometric:
    """iid geometric(p) input; support r = 0, 1, 2, ..."""

    param: GeometricParam

    @property
    def p(self) -> float:
        return self.param.p


@dataclass(frozen=True)
class ContinuousUniform:
    """iid continuous uniform input on [0, 1)."""


InputModel = Union[Geometric, ContinuousUniform]


def geometric(p: float) -> Geometric:
    """Shorthand for ``Geometric(GeometricParam(p))``."""
    return Geometric(GeometricParam(p))


def geometric_pmf(param: GeometricParam, r: int) -> float:
    """Mass at r: p * (1-p)**r, the chance of r failures then a success."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return param.p * (1.0 - param.p) ** int(r)


def sample_uniform(src: RandomSource) -> float:
    """One uniform deviate in [0, 1), advancing the source."""
    return src.uniform()


def sample_geometric_loop(src: RandomSource, param: GeometricParam) -> int:
    """One geometric(p) variate by counting failures until a success.

    Consumes one uniform per Bernoulli trial (u < p is a success), so it
    terminates almost surely for any p > 0.  This is the reference
    sampler; :func:`sample_geometric_inverse` is the O(1) equivalent.
    """
    r = 0
    while src.uniform() >= param.p:
        r += 1
    return r


def geometric_from_uniform(u: float, p: float) -> int:
    """Inverse-CDF map of one uniform deviate to a geometric variate.

    floor(log(1-u) / log(1-p)); u < p lands in the first cell (r = 0)
    and p = 1 is guarded to 0.
    """
    if p >= 1.0:
        return 0
    return int(math.log1p(-u) / math.log1p(-p))


def sample_geometric_inverse(src: RandomSource, param: GeometricParam) -> int:
    """One geometric(p) variate via the inverse CDF; one uniform per draw."""
    return geometric_from_uniform(src.uniform(), param.p)


#: Most uniforms the loop sampler draws in one block, which bounds its
#: memory (a few tens of MB) however small p is.
LOOP_BLOCK = 1 << 20


def _geometric_array_inverse(src: RandomSource, p: float, n: int) -> np.ndarray:
    if p >= 1.0:
        src.uniforms(n)  # keep stream consumption identical to p < 1
        return np.zeros(n, dtype=np.int64)
    # The largest uniform is 1 - 2**-53, so no draw exceeds this bound; past
    # the int64 range (p below about 4e-18) the cast below would wrap.
    if math.log(2.0**-53) / math.log1p(-p) >= 2.0**63:
        raise ValueError(f"p={p!r} is too small: geometric draws would overflow int64")
    u = src.uniforms(n)
    return np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)


def _geometric_array_loop(src: RandomSource, p: float, n: int) -> np.ndarray:
    """Vectorized equivalent of n successive failure-counting draws.

    Draws uniform blocks of at most :data:`LOOP_BLOCK` until n successes
    appear, keeping only the success positions; the gaps between
    consecutive successes are exactly the values the scalar loop would
    produce from the same stream.  May consume uniforms past the n-th
    success (the surplus is discarded).
    """
    positions = []
    successes = drawn = 0
    while successes < n:
        need = n - successes
        block = min(LOOP_BLOCK, max(64, int(need / p * 1.1) + 16))
        hits = np.flatnonzero(src.uniforms(block) < p)[:need] + drawn
        positions.append(hits)
        successes += hits.size
        drawn += block
    return np.diff(np.concatenate(positions), prepend=-1).astype(np.int64) - 1


def sample_array(
    src: RandomSource,
    model: InputModel,
    n: int,
    method: str = "inverse",
) -> np.ndarray:
    """n iid draws from `model`, in draw order.

    Geometric draws come back as int64, continuous ones as float64.
    `method` selects the geometric sampler ("inverse" or "loop"); both
    produce the same distribution and are ignored for continuous input.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(model, ContinuousUniform):
        return src.uniforms(n)
    if not isinstance(model, Geometric):
        raise TypeError(f"unknown input model: {model!r}")
    if method == "inverse":
        return _geometric_array_inverse(src, model.p, n)
    if method == "loop":
        return _geometric_array_loop(src, model.p, n)
    raise ValueError(f"method must be 'inverse' or 'loop', got {method!r}")
