"""A seeded fuzz of the daemon's HTTP reader and request validation.

About 300 hostile requests go to one in-process daemon over raw sockets:
mutated request lines, header blocks and ``Content-Length`` values, and
bodies that are not JSON or break the ``repro.api.request/v1`` schema.
Every answer must be a 4xx with a JSON error (never a 5xx, never a
connection closed without a status line), and the daemon must still
answer ``/healthz`` afterwards.

Bodies that the schema accepts are left out: a schema-valid scenario is
simulated, and one that fails inside the simulator is a job failure
(500), not a reader fault.  Each generated body is checked against the
schema locally first and skipped if it passes.
"""

import json
import random
import socket
import urllib.parse

import pytest

from repro.api import Scenario
from repro.api.schema import REQUEST_SCHEMA, build_request, validate_request
from repro.serve import ServeConfig, start_in_process
from repro.serve.server import MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_HEADERS

SEED = 1717
CASES = 300

ROUTES = ("/v1/run", "/v1/sweep", "/v1/plan")
METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS",
           "post", "P0ST", "", "G\x00T", "POST\t", "\xe9\xff")
#: values that replace a field of a valid document
JUNK = (None, "", "x", "warp-drive", -1, 0, 1.5, -0.0, 10 ** 30, True,
        [], [1, 2], {}, {"a": 1}, "é☃", "1e309")


def base_scenario():
    return Scenario.from_group(
        "ib", 2, 1, tensor=1, pipeline=1, data=0, global_batch_size=0,
        num_microbatches=2, trace_enabled=False, fidelity="auto",
    ).canonical()


#: a valid 2x2 machine scenario whose inline machine the machine cases break
MACHINE = {"gpus_per_node": 2,
           "clusters": [{"nodes": 1, "nic": "roce"},
                        {"nodes": 1, "nic": "infiniband"}],
           "nics": {"roce": {"gbps": 200}}}


def machine_scenario():
    return Scenario.from_group(
        "mixed", 2, 1, gpus_per_node=2, tensor=1, pipeline=1, data=0,
        global_batch_size=0, num_microbatches=2, trace_enabled=False,
        fidelity="auto", machine=MACHINE,
    ).canonical()


def accepted(doc):
    """Whether the daemon would accept ``doc`` on any of its routes (a
    bare mapping is tried as the scenario of a run request)."""
    try:
        if isinstance(doc, dict) and "schema" not in doc:
            doc = build_request("run", [doc])
        validate_request(doc)
    except Exception:  # noqa: BLE001 - refused, or a validator fault: send it
        return False
    return True


def mutate_text(rng, text, alphabet=" /:?%&=.\x00\x7f\xe9HTP0123456789abcXYZ"):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        at = rng.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(at, len(chars) - 1)]
        elif op == 1:
            chars.insert(at, rng.choice(alphabet))
        elif chars:
            chars[min(at, len(chars) - 1)] = rng.choice(alphabet)
    return "".join(chars)


def mutate_document(rng, doc):
    """One structural mutation somewhere in a request document."""
    doc = json.loads(json.dumps(doc))
    scenario = doc["scenarios"][0]
    op = rng.randrange(8)
    if op == 0:
        doc["schema"] = rng.choice(JUNK + ("repro.api.request/v2",))
    elif op == 1:
        del doc[rng.choice(sorted(doc))]
    elif op == 2:
        doc[rng.choice(("extra", "Schema", "kinds"))] = rng.choice(JUNK)
    elif op == 3:
        doc["kind"] = rng.choice(JUNK + ("sweep", "plan", "RUN"))
    elif op == 4:
        doc["scenarios"] = rng.choice(
            (JUNK[rng.randrange(len(JUNK))], [], [scenario, scenario], [1]))
    elif op == 5:
        key = rng.choice(sorted(scenario))
        if rng.random() < 0.3:
            del scenario[key]
        else:
            scenario[key] = rng.choice(JUNK)
    elif op == 6:
        scenario[rng.choice(("extra", "Env", "nodes2"))] = rng.choice(JUNK)
    else:
        options = doc.setdefault("options", {})
        if rng.random() < 0.3:
            doc["options"] = rng.choice(JUNK)
        else:
            key = rng.choice(("priority", "budget", "top_k", "fidelity", "jobs"))
            options[key] = rng.choice(JUNK)
    return doc


def invalid_body(rng, kind):
    """A body the daemon must refuse on every route, or ``None``."""
    base = build_request(kind, [base_scenario()])
    op = rng.randrange(6)
    if op == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
    if op == 1:
        text = json.dumps(base)
        return text[:rng.randrange(len(text))].encode()
    if op == 2:
        return json.dumps(rng.choice(JUNK)).encode()
    if op == 3 and kind == "run":
        doc = dict(base_scenario())
        key = rng.choice(sorted(doc))
        doc[key] = rng.choice(JUNK)
    else:
        doc = mutate_document(rng, base)
    if accepted(doc):
        return None
    return json.dumps(doc).encode()


def build_case(rng):
    """One hostile request as raw bytes, or ``None`` if it came out valid."""
    kind = rng.choice(("run", "sweep", "plan"))
    line = f"POST /v1/{kind} HTTP/1.1"
    headers = ["Host: fuzz", "Content-Type: application/json",
               f"X-Tenant: fuzz{rng.randrange(3)}"]
    length = None
    body = invalid_body(rng, kind)
    if body is None:
        return None
    target = rng.randrange(4)
    if target == 0:  # the request line
        if rng.random() < 0.5:
            line = mutate_text(rng, line)
        else:
            path = rng.choice(ROUTES + (
                "/v1/jobs/", "/v1/jobs/x", "/v1/jobs/x/events",
                "/v1/jobs/../healthz", "/" + "a" * rng.randint(1, 2000),
                "/v1/run?wait=%zz&&=", "*", ""))
            line = " ".join(
                [rng.choice(METHODS), path, rng.choice(
                    ("HTTP/1.1", "HTTP/1.0", "HTTP/9", "", "HTTP/1.1 x"))])
    elif target == 1:  # the header block
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(5)
            if op == 0:
                headers.append(mutate_text(rng, "X-Junk: value"))
            elif op == 1:
                headers.append("no colon here " + "z" * rng.randint(0, 40))
            elif op == 2:
                headers.append(":" * rng.randint(1, 5))
            elif op == 3:
                headers.extend(f"X-H{i}: v" for i in range(
                    rng.choice((MAX_HEADERS // 2, MAX_HEADERS + 1))))
            else:
                headers.append("X-Big: " + "b" * rng.choice(
                    (100, MAX_HEAD_BYTES // 2, MAX_HEAD_BYTES + 1)))
    elif target == 2:  # Content-Length
        length = rng.choice((
            "-1", "abc", "1e3", "0x10", " ", "", "+5", "5 5", "٣",
            "99999999999999999999", str(MAX_BODY_BYTES + 1),
            str(max(0, len(body) - rng.randint(1, 8))),
            str(len(body) + rng.randint(1, 64)),
        ))
        if rng.random() < 0.3:
            headers.append(f"Content-Length: {len(body)}")  # duplicate
    if length is None:
        length = str(len(body))
    headers.append(f"Content-Length: {length}")
    head = "\r\n".join([line] + headers) + "\r\n\r\n"
    return head.encode("latin-1", "replace") + body


def invalid_machine_body(rng, kind):
    """A request whose only fault is in its inline machine, or ``None``."""
    scenario = machine_scenario()
    machine = scenario["machine"]
    op = rng.randrange(8)
    if op == 0:
        scenario["machine"] = rng.choice(JUNK)
    elif op == 1:
        machine["clusters"] = rng.choice((JUNK[rng.randrange(len(JUNK))], [1], []))
    elif op == 2:
        cluster = machine["clusters"][rng.randrange(2)]
        cluster[rng.choice(("nodes", "nic", "racks"))] = rng.choice(JUNK)
    elif op == 3:
        machine["nics"] = rng.choice(JUNK + ([1], {"warp": {}}))
    elif op == 4:
        nic = machine["nics"][rng.choice(sorted(machine["nics"]))]
        nic[rng.choice(sorted(nic) + ["gbps", "latency_us", "extra"])] = rng.choice(JUNK)
    elif op == 5:
        machine["gpu"][rng.choice(("peak_flops", "memory_bytes", "mfu", "name"))] = (
            rng.choice(JUNK))
    elif op == 6:
        machine[rng.choice(("gpus_per_node", "inter_cluster_rdma", "racks"))] = (
            rng.choice(JUNK))
    else:
        scenario["nodes"] = rng.choice((1, 3, 10 ** 9))  # shape mismatch
    doc = build_request(kind, [scenario])
    return None if accepted(doc) else json.dumps(doc).encode()


def exchange(address, request):
    """Send ``request``, close the write side, and read the whole answer."""
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the daemon answered before reading everything
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


@pytest.fixture(scope="module")
def address(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-fuzz")
    handle = start_in_process(ServeConfig(port=0, cache_dir=str(root / "cache")))
    url = urllib.parse.urlsplit(handle.url)
    yield url.hostname, url.port
    handle.stop()


def test_hostile_requests_get_a_4xx_and_the_daemon_serves_on(address):
    rng = random.Random(SEED)
    answered = {}
    sent = 0
    for index in range(CASES):
        request = build_case(rng)
        if request is None:
            continue
        sent += 1
        raw = exchange(address, request)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 "), (
            f"case {index}: no status line for {request[:200]!r}")
        status = int(head.split(b" ", 2)[1])
        assert 400 <= status < 500, (
            f"case {index}: {status} {body[:300]!r} for {request[:300]!r}")
        assert json.loads(body)["error"]["status"] == status
        answered[status] = answered.get(status, 0) + 1
    # the generator exercised the reader, not just the schema
    assert sent >= CASES * 0.8
    assert {400, 404, 405, 431} <= set(answered)
    raw = exchange(address, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 200 ")
    assert json.loads(raw.partition(b"\r\n\r\n")[2])["ok"] is True


def test_schema_valid_requests_are_not_fuzz_cases():
    # the local filter must recognise a valid request, or the fuzz would
    # silently send only what it meant to skip
    for kind in ("run", "sweep", "plan"):
        assert accepted(build_request(kind, [base_scenario()]))
    assert accepted(base_scenario())
    assert not accepted({"schema": REQUEST_SCHEMA})


def test_hostile_machines_get_a_400(address):
    # every malformed inline machine is a schema error, never a 500
    rng = random.Random(SEED + 1)
    sent = 0
    for index in range(60):
        kind = rng.choice(("run", "sweep", "plan"))
        body = invalid_machine_body(rng, kind)
        if body is None:
            continue
        sent += 1
        head = (f"POST /v1/{kind} HTTP/1.1\r\nHost: fuzz\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        raw = exchange(address, head.encode() + body)
        status = int(raw.split(b" ", 2)[1])
        assert status == 400, (index, raw[:300], body[:300])
    assert sent >= 45
    assert accepted(build_request("run", [machine_scenario()]))
