"""Small shared helpers: seed derivation, deterministic RNG construction
and atomic file writes."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def derive_seed(*parts) -> int:
    """Hash an arbitrary tuple of labels/ints into a stable 64-bit seed.

    Every source of randomness in the package draws from a seed derived
    here from the single run seed, so independent streams never collide
    and runs replay exactly.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write ``path`` through a temporary file in the same directory.

    The temporary is flushed, fsynced and renamed over ``path`` when the
    block exits cleanly and deleted when it raises, so ``path`` always
    holds either its previous contents or the complete new ones.  Text
    modes use UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
