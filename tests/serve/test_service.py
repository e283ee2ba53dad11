"""The in-process daemon end to end over real sockets: health, the
served-equals-local identity, async sweep lifecycle with event streaming,
admission-control shedding, Prometheus metrics content, and drain.

One module-scoped daemon serves most tests (boot costs a thread + a
socket, and the service is multi-tenant by design); shedding tests boot
their own tightly-bounded instance.
"""

import dataclasses
import json

import pytest

from repro.api import Scenario, run
from repro.client import ServeClient, ServeClientError
from repro.serve import ServeConfig, start_in_process


def scenario(env="ib", nodes=2, seed_offset=0):
    return Scenario.from_group(
        env, nodes, 1, tensor=1, pipeline=1, data=0, global_batch_size=0,
        num_microbatches=2 + seed_offset, trace_enabled=False, fidelity="auto",
    )


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    config = ServeConfig(port=0, cache_dir=str(root / "cache"))
    handle = start_in_process(config)
    yield handle
    handle.stop()


@pytest.fixture()
def client(daemon):
    return ServeClient(daemon.url, tenant="pytest")


class TestHealthAndRouting:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["draining"] is False
        assert "queue_depth" in health and "active_jobs" in health

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v2/run")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/run")
        assert excinfo.value.status == 405

    def test_malformed_json_is_400(self, daemon, client):
        status, raw, _ = client._raw("POST", "/v1/run", body=None)
        # no body at all: the daemon must refuse, not crash
        assert status == 400
        payload = json.loads(raw)
        assert payload["error"]["status"] == 400

    def test_kind_endpoint_mismatch_is_400(self, client):
        from repro.api.schema import build_request

        request = build_request("sweep", [scenario()], {})
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/run", request)
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.job("j99999-deadbeef")
        assert excinfo.value.status == 404


class TestServedRunIdentity:
    def test_served_document_is_byte_identical_to_local(self, client):
        from repro.hardware.config_io import topology_to_dict

        named = scenario()
        inline = dataclasses.replace(
            named, env="ib-inline",
            machine=topology_to_dict(named.topology()),
        )
        for s in (named, inline):
            local = run(s).to_document()
            served = client.run_document(s)
            assert (json.dumps(served, sort_keys=True)
                    == json.dumps(local, sort_keys=True))

    def test_parsed_result_equals_local(self, client):
        s = scenario()
        assert client.run(s) == run(s)

    def test_bare_canonical_payload_accepted_on_run(self, client):
        # POST /v1/run also takes a bare Scenario.canonical() mapping —
        # the curl-friendly spelling of the same request
        s = scenario()
        doc = client._request("POST", "/v1/run", s.canonical())
        assert doc["kind"] == "run"
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(run(s).to_document(), sort_keys=True))


class TestSweepLifecycle:
    def test_async_sweep_completes_with_stats_and_events(self, client):
        scenarios = [scenario("ib"), scenario("roce")]
        submitted = client.submit_sweep(scenarios)
        assert submitted["state"] in ("queued", "running")
        job_id = str(submitted["id"])
        doc = client.wait(job_id, timeout=300)
        assert doc["state"] == "done"
        assert doc["stats"]["total"] == 2
        assert doc["stats"]["failed"] == 0
        outcome = client.sweep(scenarios)  # second submit: warm cache
        assert len(outcome.results) == 2
        assert not outcome.failures
        # the flight recorder narrates the job, cache hits included
        events = client.job_events(job_id)
        kinds = [e.get("event") for e in events]
        assert "sweep-begin" in kinds and kinds[-1] == "sweep-end"
        assert "scenario-finished" in kinds

    def test_sync_sweep_with_wait_flag(self, client):
        doc = client.submit_sweep([scenario()], wait=True)
        assert doc["state"] == "done"
        assert doc["result"]["kind"] == "sweep"

    def test_plan_job_over_the_wire(self, client):
        doc = client.submit_plan(scenario(), budget=2, top_k=1,
                                 fidelity="auto", wait=True)
        assert doc["state"] == "done"
        payload = doc["result"]
        assert payload["kind"] == "plan"
        from repro.api.schema import result_from_document

        assert result_from_document(payload).best.digest

    def test_invalid_scenario_is_rejected_not_queued(self, client):
        from repro.api.schema import REQUEST_SCHEMA

        before = client.healthz()["jobs"]
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/run", {
                "schema": REQUEST_SCHEMA, "kind": "run",
                "scenarios": [{"env": "warp-drive"}], "options": {},
            })
        assert excinfo.value.status == 400
        assert client.healthz()["jobs"] == before


class TestMetrics:
    def test_prometheus_exposition_content(self, client):
        client.run(scenario())  # ensure at least one served run
        text = client.metrics()
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_cache_hit_rate" in text
        assert 'serve_requests_total{endpoint="/v1/run",status="200"}' in text
        assert 'tenant="pytest"' in text  # per-tenant counters
        assert "serve_request_seconds" in text  # latency histogram
        assert "serve_jobs_total" in text

    def test_cache_hit_rate_reflects_shared_cache(self, client):
        s = scenario()
        client.run(s)
        client.run(s)  # identical: must be a cache hit
        text = client.metrics()
        line = next(l for l in text.splitlines()
                    if l.startswith("serve_cache_hit_rate"))
        assert float(line.split()[-1]) > 0.0


class TestShedding:
    def test_backlog_and_quota_shed_with_429(self, tmp_path, monkeypatch):
        # Deterministic admission control: no runner threads, so queued
        # jobs stay queued and every limit is exercised exactly.
        from repro.serve.server import SimulationService

        monkeypatch.setattr(SimulationService, "start_workers",
                            lambda self: None)
        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"),
                             max_backlog=3, tenant_quota=2, drain_timeout=0.2)
        handle = start_in_process(config)
        try:
            greedy = ServeClient(handle.url, tenant="greedy")
            other = ServeClient(handle.url, tenant="other")
            greedy.submit_sweep([scenario()])
            greedy.submit_sweep([scenario()])
            # third greedy job breaches the per-tenant quota
            with pytest.raises(ServeClientError) as excinfo:
                greedy.submit_sweep([scenario()])
            assert excinfo.value.status == 429
            assert "quota" in str(excinfo.value) or "queued" in str(excinfo.value)
            # another tenant is unaffected by greedy's quota...
            other.submit_sweep([scenario()])
            # ...until the service-wide backlog (3) is full
            with pytest.raises(ServeClientError) as excinfo:
                other.submit_sweep([scenario()])
            assert excinfo.value.status == 429
            assert "backlog" in str(excinfo.value)
            text = greedy.metrics()
            assert 'reason="QuotaExceeded"' in text
            assert 'reason="BacklogFull"' in text
            assert "serve_queue_depth 3" in text
        finally:
            # queued jobs never ran: the bounded drain gives up quickly
            # and reports the partial outcome honestly
            assert handle.stop(drain_timeout=0.2) == "partial"

    def test_draining_service_refuses_new_work_with_503(self, tmp_path):
        from repro.serve.server import _HttpError

        config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
        handle = start_in_process(config)
        assert handle.stop() == "ok"
        with pytest.raises(_HttpError) as excinfo:
            handle.service.submit("run", [scenario()], {}, "late")
        assert excinfo.value.status == 503
