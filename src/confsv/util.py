"""Seeding and small process utilities.

Every random draw in the toolkit flows through `stable_seed`, which hashes an
arbitrary tuple of labels into a 64-bit seed.  Unlike Python's `hash`, the
digest is stable across processes and runs, which is what makes training runs,
corpora and augmentation streams exactly reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import stat
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

THREADS_ENV = "CONFSV_THREADS"

# The one-thread lane of the batch stream open on this thread, if any.  A
# context variable, so a thread other than the one that opened the stream (a
# batch worker, the lane itself) sees no lane and forks serially.
_LANE: ContextVar[Optional[ThreadPoolExecutor]] = ContextVar("confsv_lane", default=None)


def stable_seed(*parts: object) -> int:
    """Hash labels (ints, floats, strings) into a reproducible 64-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy Generator keyed by the given labels."""
    return np.random.default_rng(stable_seed(*parts))


def worker_count() -> int:
    """Worker cap from CONFSV_THREADS, at most the CPU count; defaults to 1 (serial)."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1))


@contextmanager
def map_batches(fn: Callable[[T], U], batches: Iterable[Sequence[T]]) -> Iterator[Iterator[list[U]]]:
    """Map `fn` over the items of each batch, in order, at most one batch ahead.

    The context yields an iterator over the batches' result lists.  It runs
    serially unless CONFSV_THREADS asks for more workers; then one pool of
    that many threads builds the items of batch k+1 while the caller works on
    batch k, and no item of batch k+2 starts before the caller asks for batch
    k+1.  Results do not depend on the worker count because each item is
    processed independently.  A failing item raises when its batch is asked
    for, the first failure in batch order, as it would serially.  Beside the
    pool, a threaded stream opens a one-thread lane that `fork_join` uses on
    the calling thread.  Leaving the context cancels queued items and waits
    for running ones, so no worker or lane thread outlives it.
    """
    n = worker_count()
    if n <= 1:
        yield ([fn(x) for x in batch] for batch in batches)
        return
    pool = ThreadPoolExecutor(max_workers=n)
    lane = ThreadPoolExecutor(max_workers=1)

    def ahead():
        pending = None
        for batch in batches:
            submitted = [pool.submit(fn, x) for x in batch]
            if pending is not None:
                yield [f.result() for f in pending]
            pending = submitted
        if pending is not None:
            yield [f.result() for f in pending]

    token = _LANE.set(lane)
    try:
        yield ahead()
    finally:
        _LANE.reset(token)
        lane.shutdown(wait=True)
        pool.shutdown(wait=True, cancel_futures=True)


def fork_join(a: Callable[[], T], b: Callable[[], U]) -> tuple[T, U]:
    """(a(), b()), with `a` run on the calling thread and `b` on the stream's lane.

    Serial, `a` then `b`, unless a threaded `map_batches` stream is open on
    this thread.  If the lane has not started `b` by the time `a` returns (it
    is busy, or slow to wake), `b` is cancelled there and run inline, so a
    fork never waits on queued work.  If `a` raises, `b` is cancelled or
    waited for before the exception propagates; an exception in `b` is raised
    after `a` has finished.  Both paths give the same results when neither
    task reads what the other writes.
    """
    lane = _LANE.get()
    if lane is None:
        return a(), b()
    future = lane.submit(b)
    try:
        ra = a()
    except BaseException:
        if not future.cancel():
            wait([future])
        raise
    if future.cancel():
        return ra, b()
    return ra, future.result()


def parallel_map(fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
    """Order-preserving map over stateless work items: one batch of `map_batches`."""
    with map_batches(fn, [items]) as results:
        return next(results)


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace `path` with `data` through a temporary file in the same directory.

    Readers see the old file or the new one, never a partial write; if writing
    fails, the temporary file is removed and the old file is left as it was.
    A symlink is followed, so its target is replaced and the link kept, and the
    new file keeps the old one's permission bits.  A path that exists but is
    not a regular file (a device such as /dev/stdout, a pipe) cannot be
    replaced and is written in place.  The data is not fsynced, so this guards
    against failed runs, not power loss.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as f:
            f.write(data)
        return
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: Union[str, Path], lines: Iterable[str]) -> None:
    """Write `lines` as UTF-8 text, each ending in a newline, through `write_atomic`."""
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_text(path: Union[str, Path], error: type) -> str:
    """The UTF-8 text of `path`; bytes that are not UTF-8 raise `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text at byte {e.start}") from None


class ByteReader:
    """Bounds-checked sequential reads over the bytes of a binary file.

    A read past the end raises `error` naming the file, its `kind` and what
    was being read, and so does text that is not UTF-8; no read can fail with
    another exception.
    """

    def __init__(self, data: bytes, path: Union[str, Path], error: type, kind: str):
        self.data, self.path, self.error, self.kind = data, path, error, kind
        self.off = 0

    def take(self, n: int, what: str) -> int:
        """Offset of the next n bytes, which must lie inside the data."""
        if self.off + n > len(self.data):
            raise self.error(f"{self.path}: truncated {self.kind}: {what} at byte {self.off}")
        self.off += n
        return self.off - n

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        start = self.take(n, what)
        try:
            return self.data[start : start + n].decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: {what} is not UTF-8") from None


def check_finite(arr: np.ndarray, what: str = "array") -> np.ndarray:
    from .errors import NumericError

    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr
