"""Protocol v2, launcher, and fleet-robustness tests for repro.distrib.

Complements ``test_distrib.py`` (which pins the basic work-queue
behavior and the byte-determinism contract) with the version-2 surface:
malformed-input handling, version refusal, compression negotiation,
pipelining depths, clean SIGTERM departure, spec deduplication, and the
launcher layer.
"""

import io
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.distrib import (
    CommandLauncher,
    ProtocolError,
    SshLauncher,
    SweepServer,
    parse_worker_spec,
)
from repro.distrib.launcher import LocalLauncher, _Supervised, worker_env
from repro.distrib.worker import serve as worker_serve
from repro.distrib.protocol import (
    MAX_FRAME,
    PROTO_VERSION,
    connect,
    recv_message,
    send_message,
)
from repro.executor import ResultCache, WorkQueueBackend, execute
from repro.runspec import RunSpec, canonical_json

ROOT = Path(__file__).resolve().parent.parent

RUNNER = "tests.test_distrib_v2:double_runner"
SLOW = "tests.test_distrib_v2:slow_runner"
COUNTING = "tests.test_distrib_v2:counting_runner"


def double_runner(spec):
    return {"label": spec.label, "n": spec.params["n"] * 2}


def slow_runner(spec):
    time.sleep(spec.params.get("delay", 0.2))
    return {"n": spec.params["n"]}


def counting_runner(spec):
    # one marker file per *execution* — dedup tests count them
    marker_dir = Path(spec.params["marker_dir"])
    marker_dir.mkdir(exist_ok=True)
    stamp = f"{spec.params['n']}-{time.monotonic_ns()}"
    (marker_dir / stamp).write_text("ran")
    return {"n": spec.params["n"]}


def probe_specs(n=4):
    return [RunSpec(runner=RUNNER, label=f"p{i}", params={"n": i})
            for i in range(n)]


def wq(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("pythonpath", [ROOT])
    kw.setdefault("startup_timeout", 30.0)
    return WorkQueueBackend(**kw)


def frame(message, compress=False):
    buf = io.BytesIO()
    send_message(buf, message, compress=compress)
    return buf.getvalue()


# --------------------------------------------------- malformed frames ----
def test_plain_frame_round_trips():
    msg = {"op": "task", "id": 3, "spec": {"x": [1, 2, 3]}}
    assert recv_message(io.BytesIO(frame(msg))) == msg


def test_compressed_frame_round_trips():
    msg = {"op": "result", "payload": {"rows": list(range(200))}}
    data = frame(msg, compress=True)
    assert data[:1] == b"z"
    assert recv_message(io.BytesIO(data)) == msg


def test_compression_shrinks_real_payloads():
    msg = {"payload": {"rows": [{"tps": 812.5, "label": "sys"}] * 100}}
    assert len(frame(msg, compress=True)) < len(frame(msg)) / 3


def test_eof_is_none():
    assert recv_message(io.BytesIO(b"")) is None


def test_truncated_plain_frame():
    with pytest.raises(ProtocolError, match="truncated"):
        recv_message(io.BytesIO(b'{"op": "task"'))  # EOF, no newline


def test_oversized_line():
    blob = b'{"junk": "' + b"x" * 4096 + b'"}\n'
    with pytest.raises(ProtocolError, match="oversized"):
        recv_message(io.BytesIO(blob), max_frame=1024)


def test_non_json_garbage():
    with pytest.raises(ProtocolError, match="not JSON"):
        recv_message(io.BytesIO(b"GET / HTTP/1.1\r\n"))


def test_bad_compressed_header():
    with pytest.raises(ProtocolError, match="header"):
        recv_message(io.BytesIO(b"zoinks\n"))


def test_truncated_compressed_frame():
    good = frame({"op": "x"}, compress=True)
    with pytest.raises(ProtocolError, match="truncated"):
        recv_message(io.BytesIO(good[:-2]))


def test_undecompressable_blob():
    with pytest.raises(ProtocolError, match="bad compressed"):
        recv_message(io.BytesIO(b"z4\n\xde\xad\xbe\xef"))


def test_compressed_frame_declared_too_large():
    with pytest.raises(ProtocolError, match="oversized"):
        recv_message(io.BytesIO(b"z%d\nxxxx" % (MAX_FRAME + 1)))


def test_zip_bomb_is_rejected():
    blob = zlib.compress(b'{"a": "' + b"y" * 100_000 + b'"}', 9)
    with pytest.raises(ProtocolError, match="inflates past"):
        recv_message(io.BytesIO(b"z%d\n" % len(blob) + blob),
                     max_frame=1024)


# ------------------------------------------- negotiation, server-side ----
def _handshake(address, hello):
    sock = connect(address, timeout=10)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    send_message(wfile, hello)
    welcome = recv_message(rfile)
    return sock, rfile, wfile, welcome


def _server(n=2, **kw):
    specs = probe_specs(n)
    server = SweepServer([(i, s.to_dict()) for i, s in enumerate(specs)],
                         **kw)
    return server, server.start("127.0.0.1:0")


def test_negotiation_v2_with_compression():
    server, addr = _server()
    try:
        sock, rfile, _w, welcome = _handshake(
            addr, {"op": "hello", "worker": "t", "proto": 2,
                   "compress": True})
        assert welcome["proto"] == 2
        assert welcome["compress"] is True
        assert welcome["depth"] >= 1
        sock.close()
    finally:
        server.close()


def test_mismatched_protocol_version_is_refused():
    """A hello of another version gets an error frame naming both
    versions and loses its connection; the server then still finishes
    every task for a worker of its own version."""
    server, addr = _server(3)
    try:
        # a v1 hello has no proto/compress fields at all
        for hello, theirs in (({"op": "hello", "worker": "old"}, 1),
                              ({"op": "hello", "worker": "new",
                                "proto": PROTO_VERSION + 1},
                               PROTO_VERSION + 1)):
            sock, rfile, _w, reply = _handshake(addr, hello)
            assert reply["op"] == "error"
            assert f"protocol {theirs}" in reply["error"]
            assert f"protocol {PROTO_VERSION}" in reply["error"]
            assert recv_message(rfile) is None  # connection dropped
            sock.close()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.worker",
             "--connect", addr, "--name", "current"],
            env=worker_env([ROOT]))
        got = sorted(d.index for d in server.results(
            procs=[proc], startup_timeout=30))
        assert got == [0, 1, 2]
    finally:
        server.close()


@pytest.mark.parametrize("reply", [
    {"op": "error",
     "error": f"worker w speaks protocol {PROTO_VERSION}; "
              f"this server speaks protocol {PROTO_VERSION + 1}"},
    {"op": "welcome", "proto": 1, "compress": False, "depth": 1},
], ids=["refused", "old-welcome"])
def test_worker_refuses_a_server_of_another_version(reply):
    """The worker side of the version check: a refusal, or a welcome of
    another version, raises instead of draining tasks."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_one_hello():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile, conn.makefile("wb") as wf:
            recv_message(rfile)
            send_message(wf, reply)

    server = threading.Thread(target=answer_one_hello, daemon=True)
    server.start()
    try:
        with pytest.raises(ProtocolError, match="protocol"):
            worker_serve(f"127.0.0.1:{listener.getsockname()[1]}",
                         name="w", connect_timeout=10)
    finally:
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()


def test_server_can_refuse_compression():
    server, addr = _server(compress=False)
    try:
        sock, _r, _w, welcome = _handshake(
            addr, {"op": "hello", "worker": "t", "proto": 2,
                   "compress": True})
        assert welcome["compress"] is False
        sock.close()
    finally:
        server.close()


def test_garbage_connection_does_not_sink_the_server():
    """A peer speaking garbage loses its connection; tasks still finish."""
    server, addr = _server(3)
    try:
        sock = connect(addr, timeout=10)
        sock.sendall(b"\x00\xffnot a frame at all\n")
        time.sleep(0.1)

        sock2, r2, w2, welcome = _handshake(
            addr, {"op": "hello", "worker": "rude", "proto": 2})
        send_message(w2, {"op": "what-even-is-this"})
        time.sleep(0.1)

        # after both bad peers, a real worker drains everything
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.distrib.worker",
             "--connect", addr, "--name", "good"],
            env=worker_env([ROOT]))
        got = sorted(d.index for d in server.results(
            procs=[proc], startup_timeout=30))
        assert got == [0, 1, 2]
        sock.close()
        sock2.close()
    finally:
        server.close()


# ---------------------------------------------------- end-to-end paths ----
def _payload_bytes(results):
    return [canonical_json(r) for r in results]


def test_depth_one_and_compression_paths_are_byte_identical(tmp_path):
    specs = probe_specs(6)
    baseline = execute(specs, jobs=1, cache=tmp_path / "base")

    variants = {
        "depth1": wq(depth=1),
        "depth8-compressed": wq(depth=8, compress=True),
        "uncompressed": wq(compress=False),
    }
    for name, backend in variants.items():
        got = execute(specs, backend=backend,
                      cache=tmp_path / f"c-{name}")
        assert _payload_bytes(got) == _payload_bytes(baseline), name


def test_protocol_cache_read_through(tmp_path):
    """Workers with no filesystem view of the cache still get warm hits."""
    specs = probe_specs(5)
    cache = ResultCache(tmp_path / "shared")
    execute(specs, jobs=1, cache=cache)  # warm it

    backend = wq(spawn=LocalLauncher(count=2, pythonpath=[ROOT],
                                     cache_mode="proto"))
    tasks = [(i, s) for i, s in enumerate(specs)]
    dones = list(backend.run(tasks, cache=cache))
    assert sorted(d.index for d in dones) == list(range(5))
    assert all(d.cached for d in dones), "proto read-through missed"


def test_sigterm_mid_run_is_a_clean_departure(tmp_path):
    """SIGTERM'd worker finishes its task, hands back the rest, exits 0.

    ``max_resubmits=0`` is the teeth: if the departure were treated as
    a crash, the requeue would blow the resubmission cap and the sweep
    would report failures instead of completing.
    """
    specs = [RunSpec(runner=SLOW, label=f"s{i}",
                     params={"n": i, "delay": 0.25})
             for i in range(8)]
    server = SweepServer([(i, s.to_dict()) for i, s in enumerate(specs)],
                         max_resubmits=0, depth=4)
    addr = server.start("127.0.0.1:0")
    env = worker_env([ROOT])
    procs = [subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--connect", addr, "--name", f"w{i}"], env=env)
        for i in range(2)]
    got = []
    try:
        for done in server.results(procs=procs, startup_timeout=30):
            got.append(done)
            if len(got) == 1:
                procs[0].send_signal(signal.SIGTERM)
    finally:
        server.close()
        for p in procs:
            if p.poll() is None:
                p.terminate()
    assert sorted(d.index for d in got) == list(range(8))
    assert all(d.error is None for d in got)
    assert procs[0].wait(timeout=10) == 0, "clean departure exits 0"


# -------------------------------------------------------------- dedup ----
def test_duplicate_specs_computed_once(tmp_path):
    spec = RunSpec(runner=COUNTING, label="dup",
                   params={"n": 7, "marker_dir": str(tmp_path / "m")})
    other = RunSpec(runner=COUNTING, label="other",
                    params={"n": 9, "marker_dir": str(tmp_path / "m")})
    results = execute([spec, other, spec, spec], jobs=1,
                      cache=tmp_path / "cache")
    assert [r["n"] for r in results] == [7, 9, 7, 7]
    markers = list((tmp_path / "m").iterdir())
    assert len(markers) == 2, "each unique spec simulates exactly once"


def test_duplicate_specs_dedup_on_workqueue_too(tmp_path):
    spec = RunSpec(runner=COUNTING, label="dup",
                   params={"n": 3, "marker_dir": str(tmp_path / "m")})
    results = execute([spec] * 6, backend=wq(),
                      cache=tmp_path / "cache")
    assert [r["n"] for r in results] == [3] * 6
    assert len(list((tmp_path / "m").iterdir())) == 1


# ----------------------------------------------------------- launchers ----
def test_parse_worker_spec_count_and_hosts():
    assert parse_worker_spec("4") == 4
    fleet = parse_worker_spec("host1:4,host2:8")
    assert isinstance(fleet, SshLauncher)
    assert fleet.count == 12
    assert fleet.hosts == [("host1", 4), ("host2", 8)]
    solo = parse_worker_spec("gpu-box")
    assert isinstance(solo, SshLauncher)
    assert solo.count == 1


def test_parse_worker_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_worker_spec(":4")
    with pytest.raises(ValueError):
        parse_worker_spec("")


def test_ssh_launcher_remote_command_shape():
    fleet = SshLauncher("db-host:2", python="python3.11",
                        remote_cwd="/srv/repro",
                        remote_pythonpath="src",
                        connect_host="submitter.local")
    cmd = fleet._remote_command("submitter.local:4567", "db-host-0")
    assert cmd.startswith("cd /srv/repro &&")
    assert "PYTHONPATH=src" in cmd
    assert "--connect submitter.local:4567" in cmd
    assert "--cache-mode proto" in cmd
    assert fleet._rewrite("0.0.0.0:4567") == "submitter.local:4567"
    assert fleet._rewrite("unix:/tmp/x.sock") == "unix:/tmp/x.sock"


def test_command_launcher_runs_the_sweep(tmp_path):
    backend = wq(spawn=CommandLauncher(
        "{python} -m repro.distrib.worker --connect {address} "
        "--name {name}", count=2, pythonpath=[ROOT]))
    specs = probe_specs(5)
    got = execute(specs, backend=backend, cache=tmp_path / "c")
    want = execute(specs, jobs=1, cache=tmp_path / "base")
    assert _payload_bytes(got) == _payload_bytes(want)


def test_supervised_handle_restarts_with_backoff():
    calls = []

    def spawn():
        calls.append(time.monotonic())
        return subprocess.Popen(["sh", "-c", "exit 3"])

    handle = _Supervised(spawn, label="t", max_restarts=2, backoff=0.01)
    rc = handle.wait(timeout=30)
    assert rc == 3
    assert len(calls) == 3  # initial + two restarts
    assert handle.poll() == 3


def test_supervised_handle_stops_on_terminate():
    def spawn():
        return subprocess.Popen(["sh", "-c", "sleep 30"])

    handle = _Supervised(spawn, label="t", max_restarts=5, backoff=0.01)
    time.sleep(0.2)
    assert handle.poll() is None
    handle.terminate()
    handle.wait(timeout=10)
    assert handle.poll() is not None
