"""Dense float tensors, seeded RNG, finiteness checks, and binary round-trip IO.

Feature maps are plain numpy arrays in row-major (C) order, float64 by
default; float32 is available for benchmarking only. The axis order is
[T, C, H, W], with an optional leading batch axis. There is no implicit
broadcasting across mismatched shapes in the operators built on top of
this module; mismatches are hard errors.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import NonFiniteError, ShapeError

DEFAULT_DTYPE = np.float64

_MASK64 = (1 << 64) - 1


class Rng:
    """Counter-based seeded random stream (Philox under the hood).

    The same seed and the same call sequence produce the same values on
    every platform. Instances are not shareable across threads; derive a
    child stream per unit of work instead.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, tag: str) -> "Rng":
        """Derive an independent stream keyed by this seed and a label."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.seed.to_bytes(8, "little"))
        h.update(tag.encode("utf-8"))
        return Rng(int.from_bytes(h.digest(), "little"))

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return rand_uniform(shape, self, lo, hi, dtype=dtype)

    def integers(self, lo: int, hi: int, shape=None) -> np.ndarray:
        return self._gen.integers(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _checked_numel(shape) -> int:
    n = 1
    for e in shape:
        e = int(e)
        if e < 0:
            raise ShapeError(f"negative extent in shape {tuple(shape)}")
        n *= e
        if n > 2**62:
            raise ShapeError(f"element count overflow for shape {tuple(shape)}")
    return n


def rand_uniform(shape, rng: Rng, lo: float = 0.0, hi: float = 1.0, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Uniform values in [lo, hi), deterministic under the rng's seed."""
    if not lo < hi:
        raise ShapeError(f"rand_uniform needs lo < hi, got [{lo}, {hi})")
    _checked_numel(shape)
    u = rng._gen.random(size=tuple(int(e) for e in shape), dtype=np.float64)
    out = np.asarray(lo + (hi - lo) * u)
    # Rounding can land exactly on hi when the interval is tiny; keep it open.
    np.minimum(out, np.nextafter(hi, lo), out=out)
    return out.astype(dtype, copy=False)


def assert_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    # fast path: a single reduction, into which any NaN/Inf propagates; a
    # non-finite sum of finite values (overflow) is settled elementwise
    with np.errstate(over="ignore"):
        total = np.sum(x)
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise NonFiniteError(f"{what} contains NaN or Inf")
    return x


def save_tensor(path, x: np.ndarray) -> None:
    """Binary round-trip format: little-endian uint64 rank and extents,
    then raw float64 values in row-major order."""
    x = np.asarray(x, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        fh.write(x.astype("<f8").tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    """Read a save_tensor file; a file of any other length raises ShapeError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    rank = struct.unpack_from("<Q", blob)[0] if len(blob) >= 8 else 0
    if len(blob) < 8 * (1 + rank):
        raise ShapeError(f"{path}: {len(blob)} bytes is too short for a tensor header")
    shape = struct.unpack_from(f"<{rank}Q", blob, 8)
    size = 8 * (1 + rank + _checked_numel(shape))
    if len(blob) != size:
        raise ShapeError(f"{path}: a tensor shaped {shape} takes {size} bytes, the file has {len(blob)}")
    return np.frombuffer(blob, dtype="<f8", offset=8 * (1 + rank)).reshape(shape).astype(np.float64)

