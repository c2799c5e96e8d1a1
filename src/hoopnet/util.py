"""Small shared helpers: seed derivation, deterministic RNG construction,
the config sections' finite check, atomic file writes, and JSONL line I/O:
``write_lines`` writes one line per record through ``atomic_open`` and
``read_lines`` yields each nonblank line with its number."""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError


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


def check_finite(section) -> None:
    """ValueError naming the first float field of a config section that is
    nan or +-inf, which would pass range checks: no comparison with nan holds."""
    for name, value in vars(section).items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` followed by a newline, atomically: a line
    that fails to build leaves ``path`` as it was."""
    with atomic_open(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each nonblank line of the UTF-8
    text file ``path``; bytes that are not UTF-8 raise DataError naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
