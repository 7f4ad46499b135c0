"""Tests for the dynamic concurrency checker (`repro.devtools.locks`).

Covers cycle detection on the site-level lock-order graph, re-entrant
RLock handling, ``threading.Condition`` compatibility, the audit-hook
I/O-under-lock detector, and the module-scoped ``threading`` patching
that `track_locks` performs (including restoration on exit).
"""

from __future__ import annotations

import threading
import time

import repro.devtools.locks as locks_mod
from repro.devtools.locks import (
    LockTracker,
    TrackedLock,
    TrackedRLock,
    track_locks,
)


def acquire_in_order(first, second):
    """Take ``first`` then ``second`` on a fresh thread and join it."""

    def body():
        with first:
            with second:
                pass

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()


# -- ordering graph and cycles ----------------------------------------------


def test_opposite_order_acquisitions_report_a_cycle():
    tracker = LockTracker()
    a = TrackedLock(tracker, "a.py:1")
    b = TrackedLock(tracker, "b.py:2")
    acquire_in_order(a, b)
    acquire_in_order(b, a)
    assert tracker.cycles() == [("a.py:1", "b.py:2")]


def test_consistent_order_is_acyclic():
    tracker = LockTracker()
    a = TrackedLock(tracker, "a.py:1")
    b = TrackedLock(tracker, "b.py:2")
    c = TrackedLock(tracker, "c.py:3")
    acquire_in_order(a, b)
    acquire_in_order(b, c)
    acquire_in_order(a, c)
    assert tracker.cycles() == []
    assert tracker.graph() == {
        "a.py:1": ("b.py:2", "c.py:3"),
        "b.py:2": ("c.py:3",),
    }


def test_three_site_rotation_is_one_cycle():
    tracker = LockTracker()
    a = TrackedLock(tracker, "a.py:1")
    b = TrackedLock(tracker, "b.py:2")
    c = TrackedLock(tracker, "c.py:3")
    acquire_in_order(a, b)
    acquire_in_order(b, c)
    acquire_in_order(c, a)
    assert tracker.cycles() == [("a.py:1", "b.py:2", "c.py:3")]


def test_two_instances_from_one_site_nested_is_a_self_edge_cycle():
    tracker = LockTracker()
    first = TrackedLock(tracker, "pool.py:10")
    second = TrackedLock(tracker, "pool.py:10")
    acquire_in_order(first, second)
    assert tracker.cycles() == [("pool.py:10",)]


def test_reentrant_rlock_is_not_a_self_edge():
    tracker = LockTracker()
    rlock = TrackedRLock(tracker, "r.py:1")
    with rlock:
        with rlock:
            pass
    assert tracker.cycles() == []
    assert tracker.graph() == {}


def test_release_pops_per_thread_stack():
    tracker = LockTracker()
    lock = TrackedLock(tracker, "a.py:1")
    assert tracker.held_sites() == ()
    with lock:
        assert tracker.held_sites() == ("a.py:1",)
    assert tracker.held_sites() == ()


def test_nonblocking_failed_acquire_is_not_recorded():
    tracker = LockTracker()
    lock = TrackedLock(tracker, "a.py:1")
    grabbed = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            grabbed.set()
            release.wait(timeout=5)

    thread = threading.Thread(target=holder)
    thread.start()
    assert grabbed.wait(timeout=5)
    assert lock.acquire(blocking=False) is False
    assert tracker.held_sites() == ()
    release.set()
    thread.join()
    assert tracker.acquisitions == 1


# -- Condition compatibility -------------------------------------------------


def test_condition_over_tracked_lock_wait_notify():
    tracker = LockTracker()
    lock = TrackedLock(tracker, "q.py:1")
    condition = threading.Condition(lock)
    results = []

    def waiter():
        with condition:
            condition.wait(timeout=5)
            results.append("woke")

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.1)
    with condition:
        condition.notify_all()
    thread.join()
    assert results == ["woke"]
    assert tracker.cycles() == []


def test_condition_over_tracked_rlock_wait_notify():
    tracker = LockTracker()
    rlock = TrackedRLock(tracker, "q.py:2")
    condition = threading.Condition(rlock)
    results = []

    def waiter():
        with condition:
            condition.wait(timeout=5)
            results.append("woke")

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.1)
    with condition:
        condition.notify_all()
    thread.join()
    assert results == ["woke"]
    # wait() fully released the lock, reacquired it, and the per-thread
    # stacks settled back to empty.
    assert tracker.held_sites() == ()


# -- I/O-under-lock audit ----------------------------------------------------


def test_io_under_tracked_lock_is_recorded(tmp_path):
    with track_locks(modules=()) as tracker:
        lock = TrackedLock(tracker, "io.py:1")
        with lock:
            (tmp_path / "f.txt").write_text("x")
        violations = list(tracker.io_violations)
    assert violations
    assert violations[0].event == "open"
    assert violations[0].held_sites == ("io.py:1",)
    assert "io.py:1" in violations[0].format()


def test_sqlite3_connect_under_tracked_lock_is_recorded(tmp_path):
    import sqlite3

    with track_locks(modules=()) as tracker:
        lock = TrackedLock(tracker, "io.py:1")
        with lock:
            sqlite3.connect(tmp_path / "cells.sqlite").close()
        violations = list(tracker.io_violations)
    assert [violation.event for violation in violations] == ["sqlite3.connect"]
    assert violations[0].held_sites == ("io.py:1",)


def test_io_without_held_lock_is_not_recorded(tmp_path):
    with track_locks(modules=()) as tracker:
        lock = TrackedLock(tracker, "io.py:1")
        with lock:
            pass
        (tmp_path / "f.txt").write_text("x")
    assert tracker.io_violations == []


def test_io_outside_tracking_window_is_not_recorded(tmp_path):
    with track_locks(modules=()) as tracker:
        lock = TrackedLock(tracker, "io.py:1")
    with lock:
        (tmp_path / "f.txt").write_text("x")
    assert tracker.io_violations == []


# -- module patching ---------------------------------------------------------


def test_track_locks_patches_and_restores_target_modules():
    import repro.service.jobs as jobs_mod

    before = jobs_mod.threading
    with track_locks() as tracker:
        assert isinstance(jobs_mod.threading, locks_mod._ThreadingProxy)
        lock = jobs_mod.threading.Lock()
        assert isinstance(lock, TrackedLock)
        rlock = jobs_mod.threading.RLock()
        assert isinstance(rlock, TrackedRLock)
        # Everything else delegates to the real module.
        assert jobs_mod.threading.Event is threading.Event
        with lock:
            pass
        assert tracker.acquisitions == 1
    assert jobs_mod.threading is before
    assert not tracker.active


def test_track_locks_sites_point_at_creating_line():
    with track_locks(modules=()) as tracker:
        proxy = locks_mod._ThreadingProxy(tracker)
        lock = proxy.Lock()
    assert lock.site.startswith("test_devtools_locks.py:")


def test_queue_and_pool_run_clean_under_tracking():
    from repro.engine import SimulationEngine

    with track_locks() as tracker:
        from repro.service.jobs import JobQueue
        from repro.service.scenarios import default_registry
        from repro.service.worker import WorkerPool

        queue = JobQueue()
        pool = WorkerPool(
            queue,
            default_registry(),
            SimulationEngine(cache_dir=False),
            num_workers=2,
            poll_interval=0.01,
        )
        pool.start()
        pool.stop()
    assert tracker.acquisitions > 0
    assert tracker.cycles() == []


def test_report_shape():
    tracker = LockTracker()
    a = TrackedLock(tracker, "a.py:1")
    b = TrackedLock(tracker, "b.py:2")
    acquire_in_order(a, b)
    report = tracker.report()
    assert report["acquisitions"] == 2
    assert report["graph"] == {"a.py:1": ["b.py:2"]}
    assert report["cycles"] == []
    assert report["io_violations"] == []
