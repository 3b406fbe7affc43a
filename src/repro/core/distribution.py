"""1D data distributions (block, cyclic, block-cyclic).

A distribution maps the ``length`` global indices of a 1D array onto
``parts`` owners.  GridCCM's current model distributes IDL sequences —
1D arrays — exactly as the paper describes ("one dimension distribution
can automatically be applied"); multidimensional arrays map to nested
sequences whose outer dimension is distributed.

Index sets are vectorised (numpy); block bounds and sizes are
closed-form int arithmetic, so block→block redistribution planning
allocates nothing proportional to the index space.
"""

from __future__ import annotations

import numpy as np


class DistributionError(ValueError):
    """Invalid distribution parameters or indices."""


class Distribution:
    """Base class: a partition of ``range(length)`` into ``parts``."""

    kind = "abstract"

    def __init__(self, parts: int, length: int):
        if parts < 1:
            raise DistributionError(f"parts must be >= 1, got {parts}")
        if length < 0:
            raise DistributionError(f"length must be >= 0, got {length}")
        self.parts = parts
        self.length = length

    # -- interface --------------------------------------------------------
    def owner(self, index: int | np.ndarray) -> int | np.ndarray:
        """Owning part of global index/indices."""
        raise NotImplementedError

    def global_indices(self, part: int) -> np.ndarray:
        """Sorted global indices owned by ``part``."""
        raise NotImplementedError

    def local_size(self, part: int) -> int:
        return len(self.global_indices(part))

    def local_of_global(self, part: int, global_idx: np.ndarray) -> np.ndarray:
        """Positions of ``global_idx`` within ``part``'s local array."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.parts:
            raise DistributionError(
                f"part {part} out of range (parts={self.parts})")

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self)
                and other.__dict__ == self.__dict__)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(
            self.__dict__.items()))))

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} parts={self.parts} "
                f"length={self.length}>")


class BlockDistribution(Distribution):
    """Contiguous blocks; the first ``length % parts`` blocks get one
    extra element (standard HPF BLOCK)."""

    kind = "block"

    # closed forms: the first ``extra`` blocks hold ``base + 1`` elements,
    # so plans pay plain int arithmetic per call, never an allocation
    def start(self, part: int) -> int:
        self._check_part(part)
        base, extra = divmod(self.length, self.parts)
        return part * base + min(part, extra)

    def end(self, part: int) -> int:
        return self.start(part) + self.local_size(part)

    def owner(self, index):
        if self.length == 0:
            raise DistributionError("empty distribution has no owners")
        base, extra = divmod(self.length, self.parts)
        cut = extra * (base + 1)            # first index of a short block
        if isinstance(index, np.ndarray):
            if np.any((index < 0) | (index >= self.length)):
                raise DistributionError(f"index out of range: {index}")
            return np.where(index < cut, index // (base + 1),
                            extra + (index - cut) // max(base, 1))
        i = int(index)
        if not 0 <= i < self.length:
            raise DistributionError(f"index out of range: {index}")
        return i // (base + 1) if i < cut else extra + (i - cut) // base

    def global_indices(self, part: int) -> np.ndarray:
        return np.arange(self.start(part), self.end(part), dtype=np.int64)

    def local_size(self, part: int) -> int:
        self._check_part(part)
        base, extra = divmod(self.length, self.parts)
        return base + (part < extra)

    def local_of_global(self, part: int, global_idx: np.ndarray) -> np.ndarray:
        return np.asarray(global_idx, dtype=np.int64) - self.start(part)


class CyclicDistribution(Distribution):
    """Round-robin element distribution (HPF CYCLIC)."""

    kind = "cyclic"

    def owner(self, index):
        idx = np.asarray(index)
        if np.any((idx < 0) | (idx >= self.length)):
            raise DistributionError(f"index out of range: {index}")
        out = idx % self.parts
        return out if isinstance(index, np.ndarray) else int(out)

    def global_indices(self, part: int) -> np.ndarray:
        self._check_part(part)
        return np.arange(part, self.length, self.parts, dtype=np.int64)

    def local_size(self, part: int) -> int:
        self._check_part(part)
        if part >= self.length:
            return 0
        return int((self.length - part - 1) // self.parts + 1)

    def local_of_global(self, part: int, global_idx: np.ndarray) -> np.ndarray:
        g = np.asarray(global_idx, dtype=np.int64)
        return (g - part) // self.parts


class BlockCyclicDistribution(Distribution):
    """Blocks of ``block_size`` dealt round-robin (HPF CYCLIC(k))."""

    kind = "block-cyclic"

    def __init__(self, parts: int, length: int, block_size: int):
        super().__init__(parts, length)
        if block_size < 1:
            raise DistributionError(
                f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def owner(self, index):
        idx = np.asarray(index)
        if np.any((idx < 0) | (idx >= self.length)):
            raise DistributionError(f"index out of range: {index}")
        out = (idx // self.block_size) % self.parts
        return out if isinstance(index, np.ndarray) else int(out)

    def global_indices(self, part: int) -> np.ndarray:
        self._check_part(part)
        all_idx = np.arange(self.length, dtype=np.int64)
        return all_idx[(all_idx // self.block_size) % self.parts == part]

    def local_of_global(self, part: int, global_idx: np.ndarray) -> np.ndarray:
        g = np.asarray(global_idx, dtype=np.int64)
        block = g // self.block_size
        round_idx = block // self.parts
        return round_idx * self.block_size + g % self.block_size


def make_distribution(kind: str, parts: int, length: int,
                      block_size: int | None = None) -> Distribution:
    """Factory used by the parallelism descriptor."""
    if kind == "block":
        return BlockDistribution(parts, length)
    if kind == "cyclic":
        return CyclicDistribution(parts, length)
    if kind == "block-cyclic":
        if block_size is None:
            raise DistributionError("block-cyclic needs a block_size")
        return BlockCyclicDistribution(parts, length, block_size)
    raise DistributionError(f"unknown distribution kind {kind!r}")
