"""Waits in the daemon end when their job does, not on a timer tick.

Every request that waits on a job (``/v1/run``, ``?wait=1``, a followed
events stream, the client's ``wait``) is woken by the job's completion
callback.  These tests tell a wake from a poll without tight timing: a
poll would either cost a timer period per request or, with its tick
stretched to a minute, never end within the test's bounds.  The
in-flight count behind ``/healthz`` and ``drain`` is checked under
concurrent load from several runner threads.
"""

import json
import socket
import statistics
import sys
import threading
import time
import types
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.client
from repro.api import Scenario
from repro.api.schema import build_request
from repro.client import ServeClient, ServeClientError
from repro.serve import ServeConfig, start_in_process
from repro.serve import server as server_module


def scenario(microbatches=2):
    return Scenario.from_group(
        "ib", 2, 1, tensor=1, pipeline=1, data=0, global_batch_size=0,
        num_microbatches=microbatches, trace_enabled=False, fidelity="auto",
    )


def until(predicate, timeout=10.0):
    """Test-side wait for a condition the daemon reaches asynchronously."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


@pytest.fixture()
def daemon(tmp_path):
    handles = []

    def boot(**overrides):
        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"),
                             **overrides)
        handle = start_in_process(config)
        handles.append(handle)
        return handle

    yield boot
    for handle in handles:
        if not handle.loop.is_closed():
            handle.stop()


@pytest.fixture()
def gate(monkeypatch):
    """Hold every job of a daemon before it executes until ``open()``."""

    class Gate:
        def __init__(self):
            self.event = threading.Event()

        def install(self, service):
            execute = service._execute

            def gated(job):
                self.event.wait(30)
                execute(job)

            monkeypatch.setattr(service, "_execute", gated)

        def open(self):
            self.event.set()

    held = Gate()
    yield held
    held.open()  # never leave a runner parked past the test


def waiters(job):
    return len(job._callbacks)


def address(handle):
    url = urllib.parse.urlsplit(handle.url)
    return url.hostname, url.port


def post_run_bytes(s):
    body = json.dumps(build_request("run", [s])).encode()
    return (f"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def test_warm_hits_are_not_bound_by_a_timer(daemon):
    handle = daemon()
    observed = []
    histogram = handle.service.m_latency
    observe = histogram.observe

    def record(value, **labels):
        if labels.get("endpoint") == "/v1/run":
            observed.append(value)
        observe(value, **labels)

    histogram.observe = record
    client = ServeClient(handle.url, tenant="warm")
    s = scenario()
    client.run_document(s)  # the miss that warms the cache
    for _ in range(20):
        client.run_document(s)
        # a job leaves the in-flight count before its waiter wakes
        assert handle.service.queue.in_flight() == 0
    hits = observed[-20:]
    assert len(hits) == 20
    # a 20 ms job poll put every waited request at or above 20 ms
    assert statistics.median(hits) < 0.015


def test_followed_stream_ends_when_its_job_finishes(daemon, gate, monkeypatch):
    monkeypatch.setattr(server_module, "EVENTS_TICK_S", 60.0)
    handle = daemon()
    gate.install(handle.service)
    client = ServeClient(handle.url, tenant="stream")
    job_id = str(client.submit_sweep([scenario()])["id"])
    job = handle.service.get_job(job_id)
    events = []
    reader = threading.Thread(
        target=lambda: events.extend(client.events(job_id, timeout=30)))
    reader.start()
    until(lambda: waiters(job) == 1)  # the stream is parked on the job
    gate.open()
    reader.join(timeout=20)
    assert not reader.is_alive(), "stream kept waiting for its 60 s tick"
    kinds = [event.get("event") for event in events]
    assert "sweep-begin" in kinds and kinds[-1] == "sweep-end"
    assert waiters(job) == 0


def test_client_wait_long_polls_without_sleeping(daemon, gate, monkeypatch):
    def no_sleep(_seconds):
        raise AssertionError("ServeClient.wait slept")

    monkeypatch.setattr(repro.client, "time", types.SimpleNamespace(
        monotonic=time.monotonic, sleep=no_sleep))
    handle = daemon()
    gate.install(handle.service)
    client = ServeClient(handle.url, tenant="wait")
    job_id = str(client.submit_sweep([scenario()])["id"])
    job = handle.service.get_job(job_id)
    docs = []
    waiter = threading.Thread(
        target=lambda: docs.append(client.wait(job_id, timeout=30)))
    waiter.start()
    until(lambda: waiters(job) == 1)
    gate.open()
    waiter.join(timeout=20)
    assert not waiter.is_alive()
    assert docs[0]["state"] == "done"
    # a finished job's document comes back on the first answer
    again = client.wait(job_id, timeout=30)
    assert again["state"] == "done" and again["result"] == docs[0]["result"]


def test_long_poll_answers_running_job_at_request_timeout(daemon, gate):
    handle = daemon(request_timeout=0.2)
    gate.install(handle.service)
    client = ServeClient(handle.url, tenant="poll")
    job_id = str(client.submit_sweep([scenario()])["id"])
    doc = client._request("GET", f"/v1/jobs/{job_id}?wait=1")
    assert doc["state"] in ("queued", "running")
    assert waiters(handle.service.get_job(job_id)) == 0
    gate.open()
    assert client.wait(job_id, timeout=30)["state"] == "done"


def test_timed_out_waiter_deregisters(daemon, gate):
    handle = daemon(request_timeout=0.2)
    gate.install(handle.service)
    client = ServeClient(handle.url, tenant="late")
    with pytest.raises(ServeClientError) as excinfo:
        client.run_document(scenario())
    assert excinfo.value.status == 500
    assert "exceeded request_timeout" in str(excinfo.value)
    (job,) = handle.service.jobs.values()
    assert waiters(job) == 0
    gate.open()
    assert job.done_event.wait(30) and job.state == "done"


def test_disconnected_waiter_leaves_the_runner_alive(daemon, gate):
    handle = daemon(workers=1)
    service = handle.service
    gate.install(service)
    s = scenario()
    with socket.create_connection(address(handle), timeout=30) as sock:
        sock.sendall(post_run_bytes(s))
        until(lambda: service.jobs and waiters(next(iter(service.jobs.values()))) == 1)
    (job,) = service.jobs.values()
    gate.open()
    assert job.done_event.wait(30) and job.state == "done"
    # the only runner woke a waiter whose client had gone and served on
    served = ServeClient(handle.url, tenant="next").run_document(s)
    assert served["kind"] == "run"
    assert all(thread.is_alive() for thread in service._threads)
    assert waiters(job) == 0


def test_concurrent_hits_leave_nothing_in_flight(daemon, tmp_path):
    handle = daemon(workers=4, max_backlog=256, tenant_quota=256)
    client = ServeClient(handle.url, tenant="burst")
    s = scenario()
    client.run_document(s)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races show sooner
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            served = list(pool.map(lambda _: client.run_document(s),
                                   range(200)))
    finally:
        sys.setswitchinterval(interval)
    assert len(served) == 200
    health = client.healthz()
    assert health["active_jobs"] == 0 and health["queue_depth"] == 0
    assert handle.stop() == "ok"
    ledger = tmp_path / "cache" / "ledger.jsonl"
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()
                 if json.loads(line).get("kind") == "serve"]
    counts = record["counts"]
    assert counts["jobs"] == counts["done"] == 201
    assert counts["failed"] == 0
    # every hit counted: no update lost between runner threads
    assert counts["cache_hits"] == 200 and counts["executed"] == 1
