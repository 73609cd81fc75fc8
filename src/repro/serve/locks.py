"""A writer-preferring read/write lock for the serving daemon.

Queries over an :class:`~repro.ads.index.AdsIndex` are pure reads and
run concurrently; a ``POST /update`` rewrites the index columns in
place, which readers must never observe half-spliced.  The classic
answer is a read/write lock: any number of readers *or* one writer.
Writers are preferred -- new readers queue once a writer is waiting --
so a steady query stream cannot starve updates forever.

Kept deliberately tiny (one condition variable, two counters) and
dependency-free; stdlib ``threading`` has no RW lock of its own.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class _ReadSide:
    """``with lock.read_locked():`` -- one object per lock, entered by
    any number of threads at once: it holds no per-entry state, so
    every ``__enter__`` is one more reader until its ``__exit__``."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "ReadWriteLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, *exc_info) -> None:
        self._lock.release_read()


class ReadWriteLock:
    """Many concurrent readers xor one writer; writers preferred.

    Example:
        >>> lock = ReadWriteLock()
        >>> with lock.read_locked():
        ...     pass  # any number of readers in here concurrently
        >>> with lock.write_locked():
        ...     pass  # exclusive
    """

    def __init__(self) -> None:
        # A plain Lock: no method re-enters the condition, and the
        # default RLock costs more on every read of every request.
        self._condition = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._read_side = _ReadSide(self)

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            # Only a writer waits on the reader count: readers queue
            # behind writers, which this release does not change.
            if self._readers == 0 and self._writers_waiting:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            except BaseException:
                # Readers queued behind this writer may go now.
                self._writers_waiting -= 1
                self._condition.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    def read_locked(self) -> _ReadSide:
        """The shared side as a context manager.  Every request takes
        it, so it is one reusable object, not a generator per call."""
        return self._read_side

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


__all__ = ["ReadWriteLock"]
