"""Seeding stability and worker-pool determinism."""

import os
import stat
import threading
import time

import numpy as np
import pytest

from confsv.util import (
    fork_join,
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


def _on_thread(record: list, key: str, fn=lambda: None):
    """A task that records the thread it runs on under `key`, then runs `fn`."""

    def task():
        record.append((key, threading.current_thread()))
        return fn()

    return task


@pytest.mark.parametrize("stream", [False, True])
def test_fork_join_at_one_thread_is_serial_and_starts_no_thread(monkeypatch, stream):
    _pin_threads(monkeypatch, 1)
    ran, counts = [], []
    b = _on_thread(ran, "b", lambda: counts.append(threading.active_count()) or "rb")
    before = threading.active_count()
    if stream:
        with map_batches(lambda x: x, [[0]]):
            result = fork_join(_on_thread(ran, "a", lambda: "ra"), b)
    else:
        result = fork_join(_on_thread(ran, "a", lambda: "ra"), b)
    assert result == ("ra", "rb")
    assert ran == [("a", threading.current_thread()), ("b", threading.current_thread())]
    assert counts == [before]


def test_fork_join_without_a_stream_is_serial_at_two_threads(monkeypatch):
    _pin_threads(monkeypatch, 2)
    ran = []
    assert fork_join(_on_thread(ran, "a", lambda: 1), _on_thread(ran, "b", lambda: 2)) == (1, 2)
    assert [t for _, t in ran] == [threading.current_thread()] * 2


def test_fork_join_runs_b_on_the_idle_lane(monkeypatch):
    _pin_threads(monkeypatch, 2)
    started = threading.Event()
    ran = []

    def a():
        assert started.wait(timeout=10)  # the lane has taken b
        return "ra"

    with map_batches(lambda x: x, [[0]]):
        result = fork_join(a, _on_thread(ran, "b", lambda: started.set() or "rb"))
    assert result == ("ra", "rb")
    assert ran[0][1] is not threading.current_thread()


def test_fork_join_runs_b_inline_while_the_lane_is_busy(monkeypatch):
    _pin_threads(monkeypatch, 2)
    busy, release = threading.Event(), threading.Event()
    ran = []

    def hold_the_lane():
        busy.set()
        assert release.wait(timeout=10)

    def a():
        assert busy.wait(timeout=10)
        inner = fork_join(lambda: "ra", _on_thread(ran, "b", lambda: "rb"))
        release.set()
        return inner

    with map_batches(lambda x: x, [[0]]):
        inner, _ = fork_join(a, hold_the_lane)
    assert inner == ("ra", "rb")
    assert ran == [("b", threading.current_thread())]


def test_fork_join_settles_b_before_a_failure_propagates(monkeypatch):
    _pin_threads(monkeypatch, 2)
    started, finished = threading.Event(), threading.Event()

    def b():
        started.set()
        time.sleep(0.05)
        finished.set()

    def a():
        assert started.wait(timeout=10)
        raise ValueError("a failed")

    with map_batches(lambda x: x, [[0]]):
        with pytest.raises(ValueError, match="a failed"):
            fork_join(a, b)
        assert finished.is_set()  # waited for, not left running


def test_fork_join_cancels_a_queued_b_when_a_fails(monkeypatch):
    _pin_threads(monkeypatch, 2)
    busy, release = threading.Event(), threading.Event()
    ran = []

    def a():
        assert busy.wait(timeout=10)
        try:
            fork_join(lambda: 1 / 0, _on_thread(ran, "b"))
        finally:
            release.set()

    with map_batches(lambda x: x, [[0]]):
        with pytest.raises(ZeroDivisionError):
            fork_join(a, lambda: busy.set() or release.wait(timeout=10))
    assert ran == []  # the stream is closed: b was cancelled, not run late


def test_fork_join_raises_the_exception_of_b_after_a_finishes(monkeypatch):
    _pin_threads(monkeypatch, 2)
    started = threading.Event()
    finished = []

    def b():
        started.set()
        raise KeyError("b failed")

    def a():
        assert started.wait(timeout=10)
        time.sleep(0.02)
        finished.append(True)

    with map_batches(lambda x: x, [[0]]):
        with pytest.raises(KeyError, match="b failed"):
            fork_join(a, b)
    assert finished == [True]


def test_fork_join_nested_inside_the_lane_returns(monkeypatch):
    _pin_threads(monkeypatch, 2)
    results = []

    def body():
        started = threading.Event()

        def b():
            started.set()
            return fork_join(lambda: "inner a", lambda: "inner b")

        def a():
            assert started.wait(timeout=10)

        with map_batches(lambda x: x, [[0]]):
            results.append(fork_join(a, b))

    caller = threading.Thread(target=body)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert results == [(None, ("inner a", "inner b"))]


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
