"""The multi-tenant job queue: priority within a tenant, FIFO on ties,
round-robin fairness across tenants, quota/backlog shedding, and clean
close semantics — all independent of HTTP and the runner threads."""

import threading

import pytest

from repro.serve.queue import (
    BacklogFull,
    Job,
    JobQueue,
    QueueRejection,
    QuotaExceeded,
)


def job(tenant="a", priority=0, kind="run"):
    return Job(id=f"j-{tenant}-{priority}", tenant=tenant, kind=kind,
               scenarios=[object()], options={}, priority=priority)


class TestOrdering:
    def test_priority_within_a_tenant(self):
        q = JobQueue()
        low = q.submit(job("a", priority=5))
        urgent = q.submit(job("a", priority=-1))
        normal = q.submit(job("a", priority=0))
        assert [q.take(0) for _ in range(3)] == [urgent, normal, low]

    def test_fifo_on_priority_ties(self):
        q = JobQueue()
        first, second, third = (q.submit(job("a")) for _ in range(3))
        assert [q.take(0) for _ in range(3)] == [first, second, third]

    def test_round_robin_across_tenants(self):
        q = JobQueue()
        a1, a2 = q.submit(job("a")), q.submit(job("a"))
        b1, b2 = q.submit(job("b")), q.submit(job("b"))
        c1 = q.submit(job("c"))
        # a chatty tenant cannot take two consecutive slots while other
        # tenants have queued work
        order = [q.take(0) for _ in range(5)]
        assert order == [a1, b1, c1, a2, b2]

    def test_rotation_alternates_under_sustained_load(self):
        # two tenants keeping the queue non-empty strictly alternate —
        # no consecutive grants to the same tenant
        q = JobQueue()
        for _ in range(3):
            q.submit(job("a"))
            q.submit(job("b"))
        served = [q.take(0).tenant for _ in range(6)]
        assert sorted(served) == ["a"] * 3 + ["b"] * 3
        assert all(x != y for x, y in zip(served, served[1:]))

    def test_priority_is_per_tenant_not_global(self):
        q = JobQueue()
        q.submit(job("a", priority=9))
        q.submit(job("b", priority=-9))
        # fairness outranks global priority: a was first in rotation
        assert q.take(0).tenant == "a"
        assert q.take(0).tenant == "b"


class TestShedding:
    def test_backlog_full(self):
        q = JobQueue(max_backlog=2, tenant_quota=16)
        q.submit(job("a"))
        q.submit(job("b"))
        with pytest.raises(BacklogFull):
            q.submit(job("c"))
        # draining one job frees one admission slot
        q.take(0)
        q.submit(job("c"))

    def test_tenant_quota(self):
        q = JobQueue(max_backlog=64, tenant_quota=2)
        q.submit(job("a"))
        q.submit(job("a"))
        with pytest.raises(QuotaExceeded):
            q.submit(job("a"))
        # other tenants are unaffected
        q.submit(job("b"))

    def test_rejections_are_queue_rejections(self):
        assert issubclass(BacklogFull, QueueRejection)
        assert issubclass(QuotaExceeded, QueueRejection)

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            JobQueue(max_backlog=0)
        with pytest.raises(ValueError):
            JobQueue(tenant_quota=0)


class TestTakeAndClose:
    def test_take_times_out_empty(self):
        assert JobQueue().take(0.01) is None

    def test_take_blocks_until_submit(self):
        q = JobQueue()
        got = []
        thread = threading.Thread(target=lambda: got.append(q.take(5.0)))
        thread.start()
        submitted = q.submit(job("a"))
        thread.join(timeout=5.0)
        assert got == [submitted]

    def test_closed_queue_rejects_submissions(self):
        q = JobQueue()
        q.close()
        with pytest.raises(QueueRejection, match="closed"):
            q.submit(job("a"))

    def test_closed_queue_still_drains(self):
        q = JobQueue()
        queued = q.submit(job("a"))
        q.close()
        assert q.take(0) is queued
        assert q.take(0) is None

    def test_close_wakes_blocked_takers(self):
        q = JobQueue()
        got = []
        thread = threading.Thread(target=lambda: got.append(q.take(30.0)))
        thread.start()
        q.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [None]

    def test_close_wakes_takers_without_a_timeout(self):
        q = JobQueue()
        got = []
        threads = [threading.Thread(target=lambda: got.append(q.take()))
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        q.close()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert got == [None, None, None]


class TestInFlight:
    def test_take_and_done_balance(self):
        q = JobQueue()
        q.submit(job("a"))
        q.submit(job("b"))
        first = q.take(0)
        assert q.in_flight() == 1 and q.depth() == 1
        second = q.take(0)
        assert q.in_flight() == 2
        q.done(first)
        q.done(second)
        assert q.in_flight() == 0

    def test_wait_idle_covers_queued_and_taken_jobs(self):
        q = JobQueue()
        assert q.wait_idle(0)
        queued = q.submit(job("a"))
        assert not q.wait_idle(0.01)
        assert q.take(0) is queued
        # taken but not done: still busy, though the queue is empty
        assert q.depth() == 0 and not q.wait_idle(0.01)
        q.done(queued)
        assert q.wait_idle(0)

    def test_done_wakes_an_idle_waiter(self):
        q = JobQueue()
        taken = q.submit(job("a"))
        q.take(0)
        idle = []
        thread = threading.Thread(target=lambda: idle.append(q.wait_idle(30)))
        thread.start()
        q.done(taken)
        thread.join(timeout=5.0)
        assert not thread.is_alive() and idle == [True]


class TestDoneCallbacks:
    def test_callback_runs_once_at_finish(self):
        j = job("a")
        seen = []
        j.add_done_callback(seen.append)
        assert seen == []
        j.finish()
        assert seen == [j] and j.done_event.is_set()
        j.finish()
        assert seen == [j]

    def test_finished_job_calls_back_at_once(self):
        j = job("a")
        j.finish()
        seen = []
        j.add_done_callback(seen.append)
        assert seen == [j]

    def test_removed_callback_is_not_called(self):
        j = job("a")
        seen = []
        j.add_done_callback(seen.append)
        j.remove_done_callback(seen.append)
        j.remove_done_callback(seen.append)  # absent: a no-op
        j.finish()
        assert seen == []

    def test_registration_racing_finish_is_never_lost(self):
        # every waiter registered around a concurrent finish() is called
        # back exactly once, whichever side of it it landed on
        for _ in range(50):
            j = job("a")
            seen = []
            barrier = threading.Barrier(5)

            def register():
                barrier.wait()
                j.add_done_callback(seen.append)

            def finish():
                barrier.wait()
                j.finish()

            threads = [threading.Thread(target=register) for _ in range(4)]
            threads.append(threading.Thread(target=finish))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)
            assert seen == [j] * 4


class TestIntrospection:
    def test_depths(self):
        q = JobQueue()
        q.submit(job("a"))
        q.submit(job("a"))
        q.submit(job("b"))
        assert q.depth() == 3
        assert q.tenant_depths() == {"a": 2, "b": 1}
        q.take(0)
        assert q.depth() == 2

    def test_status_document_shape(self):
        j = job("a")
        doc = j.status_document()
        assert doc["state"] == "queued"
        assert doc["scenarios"] == 1
        assert "error" not in doc and "result" not in doc
        j.error = "boom"
        j.document = {"x": 1}
        doc = j.status_document()
        assert doc["error"] == "boom" and doc["result"] == {"x": 1}
