"""Seeding stability and worker-pool determinism."""

import os
import stat
import threading
import time

import numpy as np
import pytest

from confsv.util import (
    map_batches,
    parallel_map,
    rng_for,
    stable_seed,
    worker_count,
    write_atomic,
)


def test_stable_seed_is_process_independent():
    # frozen values: blake2b digests must never drift
    assert stable_seed("corpus", 7) == stable_seed("corpus", 7)
    assert stable_seed("corpus", 7) != stable_seed("corpus", 8)
    assert stable_seed("a", 1, "b") != stable_seed("a", "1b")


def test_rng_for_reproducible_draws():
    a = rng_for("x", 3).normal(size=5)
    b = rng_for("x", 3).normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_parallel_map_matches_serial(monkeypatch):
    items = list(range(50))
    fn = lambda x: x * x + 1
    monkeypatch.setenv("CONFSV_THREADS", "1")
    serial = parallel_map(fn, items)
    # three workers even on a machine with fewer cores
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CONFSV_THREADS", "3")
    assert worker_count() == 3
    threaded = parallel_map(fn, items)
    assert serial == threaded == [fn(x) for x in items]


def _pin_threads(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CONFSV_THREADS", str(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_batches_builds_at_most_one_batch_ahead(monkeypatch, n):
    _pin_threads(monkeypatch, n)
    batches = [[(k, i) for i in range(3 + k % 2)] for k in range(6)]
    started = [threading.Event() for _ in batches]
    threads = set()
    lock = threading.Lock()

    def build(key):
        with lock:
            threads.add(threading.get_ident())
        started[key[0]].set()
        return key

    with map_batches(build, batches) as results:
        for k, result in enumerate(results):
            assert result == batches[k]
            if n > 1 and k + 1 < len(batches):
                assert started[k + 1].wait(timeout=10)  # built while batch k is consumed
            time.sleep(0.02)  # time for a worker that would run further ahead
            assert not any(e.is_set() for e in started[k + 1 + (n > 1):])
    assert all(e.is_set() for e in started)
    assert len(threads) <= n
    if n == 1:
        assert threads == {threading.get_ident()}


def test_map_batches_raises_the_first_failure_in_batch_order_and_stops_its_workers(monkeypatch):
    _pin_threads(monkeypatch, 2)

    def build(x):
        if x == 5:
            time.sleep(0.05)  # item 6 fails first in time
        if x in (5, 6):
            raise ValueError(f"item {x}")
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 5"):
        with map_batches(build, [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]) as results:
            assert next(results) == [0, 1, 2, 3]
            next(results)
    assert threading.active_count() == before


def test_worker_count_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("CONFSV_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("CONFSV_THREADS", "junk")
    assert worker_count() == 1


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    # only the count is computed; no pool is started with it
    monkeypatch.setenv("CONFSV_THREADS", str(10**9))
    assert worker_count() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


def test_write_atomic_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    write_atomic(path, b"old")
    write_atomic(path, b"new contents")
    assert path.read_bytes() == b"new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_follows_symlink_and_keeps_mode(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"old")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_atomic(link, b"new")
    assert link.is_symlink()
    assert target.read_bytes() == b"new"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_atomic_writes_a_device_in_place():
    write_atomic(os.devnull, b"discarded")
    assert not stat.S_ISREG(os.stat(os.devnull).st_mode)
