"""Deterministic random-number-generator management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  Campaigns built from the same master seed
are bit-reproducible, which both the test-suite and the benchmark harness
rely on.  The helpers below centralise how generators are created and how
child generators are derived from a parent so that adding a new consumer of
randomness does not silently change the stream seen by existing consumers.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import List, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, an existing generator (returned unchanged),
    or ``None`` for nondeterministic entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: np.random.Generator, tag: str) -> np.random.Generator:
    """Derive a child generator from ``parent`` keyed by a string ``tag``.

    The tag is hashed (with a process-independent hash, so results do not
    depend on ``PYTHONHASHSEED``) into the child seed so that two different
    consumers of the same parent never share a stream, and the derivation is
    stable across runs (unlike ``parent.spawn`` whose result depends on
    spawn order).
    """
    tag_value = np.uint64(zlib.crc32(tag.encode("utf-8")) * 0x9E37_79B9)
    draw = parent.integers(0, 2**63, dtype=np.int64)
    return np.random.default_rng(int(np.uint64(draw) ^ tag_value))


def split_rng(parent: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``parent`` into ``count`` independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = parent.integers(0, 2**63, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def cumulative_distribution(probabilities: Sequence[float]) -> List[float]:
    """The CDF that ``Generator.choice(n, p=probabilities)`` searches.

    Computed the way numpy computes it (``cumsum``, then divided by the
    last element), so :func:`draw_index` over it picks exactly what
    ``choice`` picks.  Build it once per weight set; ``choice`` rebuilds
    it, and a fresh array, on every call.
    """
    cdf = np.asarray(probabilities, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """Draw an index like ``rng.choice(len(cdf), p=...)`` does.

    ``choice`` draws one ``rng.random()`` and searches the CDF for it
    (``side="right"``); this does the same, so both the index and the
    generator's stream afterwards are identical.
    """
    return bisect_right(cdf, rng.random())
