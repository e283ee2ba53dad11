"""The daemon's HTTP reader under malformed and oversized requests.

Each hostile request gets its 4xx answer, and the same daemon then serves
the next, well-formed request.  Raw sockets, because the typed client
cannot send a broken request.
"""

import json
import socket
import urllib.parse

import pytest

from repro.serve import ServeConfig, start_in_process
from repro.serve.server import MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_HEADERS


@pytest.fixture(scope="module")
def address(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-limits")
    handle = start_in_process(ServeConfig(port=0, cache_dir=str(root / "cache")))
    url = urllib.parse.urlsplit(handle.url)
    yield url.hostname, url.port
    handle.stop()


def exchange(address, request: bytes):
    """Send raw bytes; return (status, parsed JSON body)."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def post_run(length: str, body: bytes = b"") -> bytes:
    return (
        f"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("request_bytes,status", [
    (post_run("-5"), 400),
    (post_run("12abc"), 400),
    (post_run("0x10"), 400),
    (post_run("1_000"), 400),
    (post_run(str(MAX_BODY_BYTES + 1)), 413),
    (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (MAX_HEAD_BYTES + 100)
     + b"\r\n\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\n"
     + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
     + b"\r\n", 431),
], ids=["negative", "non-numeric", "hex", "underscore", "body-over-cap",
        "head-over-cap", "too-many-headers"])
def test_bad_request_is_answered_then_daemon_serves_on(
    address, request_bytes, status
):
    answered, payload = exchange(address, request_bytes)
    assert answered == status
    assert payload["error"]["status"] == status
    ok, health = exchange(address, HEALTHZ)
    assert ok == 200 and health["ok"] is True


def test_limits_admit_ordinary_requests(address):
    headers = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
    ok, _ = exchange(address, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
    assert ok == 200
    # a body under the cap is read in full: here it is not JSON, so 400
    status, payload = exchange(address, post_run("70000", b"x" * 70000))
    assert status == 400 and "error" in payload
