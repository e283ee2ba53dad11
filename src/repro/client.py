"""In-process client for the serve daemon — the wire path as a library.

:class:`ServeClient` speaks the same ``repro.api.request/v1`` /
``repro.api.result/v1`` documents the daemon serves (stdlib
``http.client``, one connection per request — the daemon closes
connections after every response anyway).  It is what ``repro submit`` /
``repro status`` run on, what the e2e tests drive the daemon with, and
the migration path for code moving from ``repro.api.run(...)`` to a
shared service: ``client.run(scenario)`` returns the *same*
:class:`repro.api.RunResult`, byte-identical.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.api.schema import build_request, result_from_document
from repro.errors import ReproError


class ServeClientError(ReproError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: object) -> None:
        self.status = status
        self.payload = payload
        message = payload
        if isinstance(payload, Mapping):
            error = payload.get("error")
            if isinstance(error, Mapping):
                message = error.get("message", payload)
        super().__init__(f"HTTP {status}: {message}")


class ServeClient:
    """Typed HTTP client for one serve daemon."""

    def __init__(self, base_url: str, tenant: str = "default",
                 timeout: float = 600.0) -> None:
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"ServeClient speaks http only: {base_url!r}")
        netloc = parsed.netloc or parsed.path  # tolerate "host:port"
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.tenant = tenant
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _request(self, method: str, path: str, body: Optional[object] = None,
                 timeout: Optional[float] = None) -> Dict[str, object]:
        status, raw, _ = self._raw(method, path, body, timeout)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = {"raw": raw.decode("utf-8", "replace")}
        if status >= 400:
            raise ServeClientError(status, payload)
        return payload

    def _raw(self, method: str, path: str, body: Optional[object] = None,
             timeout: Optional[float] = None):
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            headers = {"X-Tenant": self.tenant, "Connection": "close"}
            data = None
            if body is not None:
                data = json.dumps(body, sort_keys=True,
                                  allow_nan=False).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, raw, dict(response.getheaders())
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # the run surface, served
    # ------------------------------------------------------------------ #

    def healthz(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        status, raw, _ = self._raw("GET", "/metrics")
        if status >= 400:
            raise ServeClientError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def run_document(self, scenario: object,
                     priority: int = 0) -> Dict[str, object]:
        """``POST /v1/run``: the raw ``repro.api.result/v1`` document."""
        options = {"priority": priority} if priority else {}
        request = build_request("run", [scenario], options)
        return self._request("POST", "/v1/run", request)

    def run(self, scenario: object, priority: int = 0):
        """``POST /v1/run``, parsed: the served :class:`repro.api.RunResult`
        (dataclass-equal — and document-byte-equal — to a local run)."""
        return result_from_document(self.run_document(scenario, priority))

    def submit_sweep(self, scenarios: Sequence[object], *,
                     priority: int = 0, fidelity: Optional[str] = None,
                     wait: bool = False) -> Dict[str, object]:
        options: Dict[str, object] = {}
        if priority:
            options["priority"] = priority
        if fidelity is not None:
            options["fidelity"] = fidelity
        request = build_request("sweep", scenarios, options)
        path = "/v1/sweep" + ("?wait=1" if wait else "")
        return self._request("POST", path, request)

    def submit_plan(self, scenario: object, *, priority: int = 0,
                    budget: Optional[int] = None, top_k: Optional[int] = None,
                    fidelity: Optional[str] = None,
                    wait: bool = False) -> Dict[str, object]:
        options: Dict[str, object] = {}
        if priority:
            options["priority"] = priority
        if budget is not None:
            options["budget"] = budget
        if top_k is not None:
            options["top_k"] = top_k
        if fidelity is not None:
            options["fidelity"] = fidelity
        request = build_request("plan", [scenario], options)
        path = "/v1/plan" + ("?wait=1" if wait else "")
        return self._request("POST", path, request)

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 600.0) -> Dict[str, object]:
        """Block until a job is terminal; returns its status document.

        Long-polls ``GET /v1/jobs/<id>?wait=1``: the daemon answers as the
        job finishes, or with the job still running once its own
        ``request_timeout`` has passed, and then this asks again."""
        deadline = time.monotonic() + timeout
        path = f"/v1/jobs/{job_id}?wait=1"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                doc = self.job(job_id)
                if doc.get("state") in ("done", "failed"):
                    return doc
                raise ServeClientError(
                    504, {"error": {"message": f"job {job_id} still "
                                               f"{doc.get('state')} after "
                                               f"{timeout:.0f}s"}})
            try:
                doc = self._request("GET", path, timeout=remaining)
            except socket.timeout:
                continue
            if doc.get("state") in ("done", "failed"):
                return doc

    def sweep(self, scenarios: Sequence[object], *, priority: int = 0,
              fidelity: Optional[str] = None, timeout: float = 600.0):
        """Submit, wait, and parse: the served
        :class:`repro.exec.SweepOutcome` for a batch."""
        submitted = self.submit_sweep(scenarios, priority=priority,
                                      fidelity=fidelity)
        doc = self.wait(str(submitted["id"]), timeout=timeout)
        if doc.get("state") != "done":
            raise ServeClientError(500, doc)
        return result_from_document(doc["result"])  # type: ignore[arg-type]

    def events(self, job_id: str, follow: bool = True,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Stream the job's flight-recorder events (parsed, in order)."""
        suffix = "" if follow else "?follow=0"
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events{suffix}",
                         headers={"X-Tenant": self.tenant,
                                  "Connection": "close"})
            response = conn.getresponse()
            if response.status >= 400:
                raise ServeClientError(
                    response.status,
                    response.read().decode("utf-8", "replace"))
            pending = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                pending += chunk
                lines = pending.split(b"\n")
                pending = lines.pop()
                for line in lines:
                    if line.strip():
                        try:
                            yield json.loads(line.decode("utf-8"))
                        except (UnicodeDecodeError, json.JSONDecodeError):
                            continue
        finally:
            conn.close()

    def job_events(self, job_id: str) -> List[Dict[str, object]]:
        """Every event of a finished job (no tailing)."""
        return list(self.events(job_id, follow=False))


__all__ = ["ServeClient", "ServeClientError"]
