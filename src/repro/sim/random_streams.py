"""Reproducible named random streams.

CSIM gives each stochastic component its own random stream so that
changing one part of a model does not perturb the variate sequences of
the others (common random numbers).  We reproduce this with numpy's
``SeedSequence`` spawning: a :class:`StreamFactory` holds a root seed
and derives an independent, deterministic child stream for every
*name*, so the arrival process, the lifetime sampler, the source
chooser and each AC-router's selection dice all have their own streams.

Identical ``(root_seed, name)`` pairs always produce identical variate
sequences, which makes whole experiments bit-for-bit reproducible.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Variates drawn per block.  Large enough that the per-block generator
#: call and state save vanish per scalar, small enough that a stream's
#: block stays a few tens of kilobytes.
_BLOCK_SIZE = 1024

#: Block kinds: no block, ``Generator.random``, and
#: ``Generator.standard_exponential``.  A positive kind ``k`` is a block
#: of ``Generator.integers(0, k)`` (uniform choice among ``k`` items).
_NO_BLOCK = 0
_RANDOM = -1
_STANDARD_EXPONENTIAL = -2


def _name_to_entropy(name: str) -> int:
    """Hash a stream name to a stable 128-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


class RandomStream:
    """A single named random stream with distribution helpers.

    Thin wrapper over :class:`numpy.random.Generator` exposing exactly
    the variates the anycast model needs, with validation.

    Variates are drawn in blocks: the first scalar of a kind draws
    ``_BLOCK_SIZE`` of them in one generator call and later calls are
    served from that block.  A size-n numpy draw equals n scalar draws
    for every kind used here, so the sequence a stream yields does not
    depend on the blocking.  When a stream switches kind (or draws an
    :meth:`integer`) it first *rewinds*: the generator state saved at
    the start of the block is restored and the variates already served
    are redrawn in one call, leaving the generator exactly where the
    equivalent scalar draws would have left it.
    """

    def __init__(
        self, seed_sequence: np.random.SeedSequence, name: str = ""
    ) -> None:
        self.name = name
        self._generator = np.random.Generator(np.random.PCG64(seed_sequence))
        #: variates served so far (scalars, not blocks)
        self.draws = 0
        self._kind = _NO_BLOCK
        self._block: list[Any] = []
        self._pos = 0
        self._block_start: Mapping[str, Any] = {}

    def _fill(self, kind: int, size: int) -> list[Any]:
        """Draw ``size`` variates of ``kind`` in one generator call."""
        generator = self._generator
        block: list[Any]
        if kind == _RANDOM:
            block = generator.random(size).tolist()
        elif kind == _STANDARD_EXPONENTIAL:
            block = generator.standard_exponential(size).tolist()
        else:
            block = generator.integers(0, kind, size=size).tolist()
        return block

    def _rewind(self) -> None:
        """Drop the block, leaving the generator just past the variates served."""
        if self._pos < len(self._block):
            self._generator.bit_generator.state = self._block_start
            if self._pos:
                self._fill(self._kind, self._pos)
        self._kind = _NO_BLOCK
        self._block = []
        self._pos = 0

    def _refill(self, kind: int) -> None:
        """Start a fresh block of ``kind`` (rewinding any other kind first)."""
        self._rewind()
        self._block_start = self._generator.bit_generator.state
        self._block = self._fill(kind, _BLOCK_SIZE)
        self._kind = kind

    def exponential(self, mean: float) -> float:
        """Sample an exponential variate with the given mean."""
        if not 0.0 < mean < math.inf:
            raise ValueError(
                f"exponential mean must be positive and finite, got {mean}"
            )
        self.draws += 1
        if self._kind != _STANDARD_EXPONENTIAL or self._pos == _BLOCK_SIZE:
            self._refill(_STANDARD_EXPONENTIAL)
        pos = self._pos
        self._pos = pos + 1
        # numpy's exponential(mean) is mean * standard_exponential().
        variate: float = self._block[pos]
        return mean * variate

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Sample uniformly from ``[low, high)``."""
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError(f"need finite low <= high, got [{low}, {high})")
        self.draws += 1
        if self._kind != _RANDOM or self._pos == _BLOCK_SIZE:
            self._refill(_RANDOM)
        pos = self._pos
        self._pos = pos + 1
        # numpy's uniform(low, high) is low + (high - low) * random().
        variate: float = self._block[pos]
        return low + span * variate

    def integer(self, low: int, high: int) -> int:
        """Sample an integer uniformly from ``[low, high]`` inclusive.

        The range varies between calls, so this is a scalar draw.
        """
        if high < low:
            raise ValueError(f"need low <= high, got [{low}, {high}]")
        self.draws += 1
        self._rewind()
        return int(self._generator.integers(low, high + 1))

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item uniformly."""
        size = len(items)
        if not size:
            raise ValueError("cannot choose from an empty sequence")
        self.draws += 1
        if self._kind != size or self._pos == _BLOCK_SIZE:
            self._refill(size)
        pos = self._pos
        self._pos = pos + 1
        index: int = self._block[pos]
        return items[index]

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with probability proportional to its weight.

        Weights must be non-negative with a positive, finite sum; they
        are normalized internally, so callers may pass unnormalized
        values.
        """
        if len(items) != len(weights):
            raise ValueError(
                f"{len(items)} items but {len(weights)} weights"
            )
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        total = 0.0
        for weight in weights:
            if not weight >= 0:
                raise ValueError(f"weights must be non-negative, got {weight}")
            total += weight
        if total <= 0:
            raise ValueError("weights must not all be zero")
        if total == math.inf:
            raise ValueError("weights must have a finite sum")
        self.draws += 1
        if self._kind != _RANDOM or self._pos == _BLOCK_SIZE:
            self._refill(_RANDOM)
        pos = self._pos
        self._pos = pos + 1
        # Same variate as numpy's uniform(0.0, total).
        point = total * self._block[pos]
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if point < acc:
                return item
        return items[-1]  # guard against floating-point edge at total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream({self.name!r}, draws={self.draws})"


class StreamFactory:
    """Derives independent named :class:`RandomStream` objects.

    Parameters
    ----------
    root_seed:
        Experiment-level seed.  Every stream name deterministically
        maps to its own child seed, so two factories with the same root
        seed hand out identical streams for identical names.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._issued: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object (its internal state advances as it is used).
        """
        existing = self._issued.get(name)
        if existing is not None:
            return existing
        seed_sequence = np.random.SeedSequence(
            entropy=self.root_seed, spawn_key=(_name_to_entropy(name),)
        )
        stream = RandomStream(seed_sequence, name=name)
        self._issued[name] = stream
        return stream

    def issued_names(self) -> list[str]:
        """Names of all streams created so far, in creation order."""
        return list(self._issued)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamFactory(seed={self.root_seed}, streams={len(self._issued)})"
