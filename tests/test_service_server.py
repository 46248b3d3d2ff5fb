"""The asyncio server: protocol surface, backpressure, admission.

Everything runs against a real loopback listener on a kernel-assigned
port; clients are raw stream readers/writers so the tests pin the wire
format, not the driver's conveniences.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.observability import MetricsRegistry
from repro.service import (
    DecisionEngine,
    DecisionServer,
    ServerConfig,
    encode,
)
from repro.service.server import CLOSE_GRACE_S

PROFILE = {
    "op": "profile",
    "tenant": "t0",
    "function": "f",
    "compile_times": [1.0, 5.0],
    "exec_times": [10.0, 1.0],
}


def _run(coro):
    return asyncio.run(coro)


async def _start(engine=None, **config_kwargs) -> DecisionServer:
    server = DecisionServer(
        engine or DecisionEngine(), ServerConfig(**config_kwargs)
    )
    await server.start()
    return server


async def _ask(reader, writer, message):
    writer.write(encode(message))
    await writer.drain()
    line = await reader.readline()
    return json.loads(line.decode())


async def _shutdown(server, reader=None, writer=None):
    if writer is not None:
        response = await _ask(reader, writer, {"op": "shutdown"})
        assert response == {"ok": True, "op": "shutdown"}
    else:
        server.stop()
    await server.serve_until_stopped()


def test_ping_stats_shutdown():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        assert await _ask(reader, writer, {"op": "ping"}) == {
            "ok": True,
            "op": "pong",
        }
        await _ask(reader, writer, PROFILE)
        decision = await _ask(
            reader, writer, {"op": "call", "tenant": "t0", "function": "f"}
        )
        assert decision["ok"] and decision["op"] == "decision"
        assert decision["action"] == "compile" and decision["level"] == 0
        stats = await _ask(reader, writer, {"op": "stats"})
        assert stats["summary"]["decisions"] == 1
        assert stats["rejected"] == 0
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_malformed_lines_get_error_responses_not_disconnects():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b"garbage\n")
        await writer.drain()
        response = json.loads((await reader.readline()).decode())
        assert response["ok"] is False and "JSON" in response["error"]
        # connection is still usable afterwards
        assert (await _ask(reader, writer, {"op": "ping"}))["ok"]
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_engine_value_errors_become_error_responses():
    async def scenario():
        server = await _start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        response = await _ask(
            reader,
            writer,
            {"op": "call", "tenant": "t0", "function": "ghost", "seq": 9},
        )
        assert response["ok"] is False
        assert "unregistered function" in response["error"]
        assert response["seq"] == 9
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_admission_control_rejects_above_the_limit():
    async def scenario():
        metrics = MetricsRegistry()
        engine = DecisionEngine(metrics=metrics)
        server = await _start(
            engine, queue_limit=64, admission_limit=2, batch_max=64
        )
        # Freeze the decision worker so the queue genuinely backs up.
        server._worker.cancel()
        try:
            await server._worker
        except asyncio.CancelledError:
            pass
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for seq in range(5):
            writer.write(
                encode(
                    {
                        "op": "call",
                        "tenant": "t0",
                        "function": "f",
                        "seq": seq,
                    }
                )
            )
        await writer.drain()
        # Queue takes 2; the rest are refused immediately with a
        # retryable error while the accepted ones sit queued.
        rejected = []
        for _ in range(3):
            rejected.append(json.loads((await reader.readline()).decode()))
        for response in rejected:
            assert response["ok"] is False
            assert response["error"] == "overloaded"
            assert response["retry"] is True
        assert server.rejected == 3
        assert metrics.counter("service.rejected").value == 3
        # Thaw the worker; the queued two drain and answer.
        server._worker = asyncio.ensure_future(server._decision_worker())
        answered = []
        for _ in range(2):
            answered.append(json.loads((await reader.readline()).decode()))
        assert [a["seq"] for a in answered] == [0, 1]
        assert all(not a["ok"] for a in answered)  # 'f' never profiled
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_backpressure_bounds_the_queue_without_dropping():
    async def scenario():
        engine = DecisionEngine()
        # admission limit far above the queue bound: the only flow
        # control in play is the blocking put (backpressure).
        server = await _start(
            engine, queue_limit=4, admission_limit=4096, batch_max=2
        )
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await _ask(reader, writer, PROFILE)
        total = 200

        async def pump():
            for seq in range(total):
                writer.write(
                    encode(
                        {
                            "op": "call",
                            "tenant": "t0",
                            "function": "f",
                            "seq": seq,
                        }
                    )
                )
                await writer.drain()

        async def collect():
            out = []
            for _ in range(total):
                out.append(json.loads((await reader.readline()).decode()))
            return out

        _, responses = await asyncio.gather(pump(), collect())
        # tiny queue, no rejections, nothing dropped, order preserved
        assert server.rejected == 0
        assert [r["seq"] for r in responses] == list(range(total))
        assert all(r["ok"] for r in responses)
        assert engine.decisions == total
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_batching_is_bounded_and_observed():
    async def scenario():
        metrics = MetricsRegistry()
        engine = DecisionEngine(metrics=metrics)
        server = await _start(engine, batch_max=8)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await _ask(reader, writer, PROFILE)
        for seq in range(50):
            writer.write(
                encode(
                    {
                        "op": "call",
                        "tenant": "t0",
                        "function": "f",
                        "seq": seq,
                    }
                )
            )
        await writer.drain()
        for _ in range(50):
            await reader.readline()
        assert 1 <= server.max_batch_seen <= 8
        snap = metrics.snapshot()
        assert snap["service.batch_size"]["count"] >= 1
        assert snap["service.latency_ms"]["count"] == 51  # profile + calls
        await _shutdown(server, reader, writer)

    _run(scenario())


def test_shutdown_closes_idle_connections_cleanly():
    """A shutdown on one connection ends every other open connection
    with EOF; no handler is left to be cancelled mid-read when the event
    loop closes (which would reach the loop's exception handler)."""
    handler_calls = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: handler_calls.append(context)
        )
        server = await _start()
        idle_reader, idle_writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        assert await _ask(idle_reader, idle_writer, {"op": "ping"}) == {
            "ok": True,
            "op": "pong",
        }
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        await _shutdown(server, reader, writer)
        assert await asyncio.wait_for(idle_reader.read(), 5) == b""
        idle_writer.close()
        writer.close()

    _run(scenario())
    assert handler_calls == []


def test_shutdown_aborts_a_peer_that_stopped_reading():
    """A client that floods pings and never reads its pongs cannot hold
    shutdown open: its unsent replies never flush, so once the close
    grace runs out its connection is aborted and the drain finishes."""
    handler_calls = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: handler_calls.append(context)
        )
        server = await _start()
        flood = socket.socket()
        flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        flood.connect(("127.0.0.1", server.port))
        flood.setblocking(False)
        _, flood_writer = await asyncio.open_connection(sock=flood)
        flood_writer.write(encode({"op": "ping"}) * 200_000)
        # Wait until the server is holding pongs it cannot send.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 20
        while not any(
            writer.transport.get_write_buffer_size()
            for writer in server._connections
        ):
            assert loop.time() < deadline, "the server never stalled"
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        shutdown = asyncio.ensure_future(_shutdown(server, reader, writer))
        done, _ = await asyncio.wait({shutdown}, timeout=CLOSE_GRACE_S + 5)
        # Hanging up the flood frees a server stuck on it, so a failure
        # here ends the test instead of hanging it.
        flood_writer.transport.abort()
        await shutdown
        assert done, "shutdown hung on a peer that stopped reading"
        assert server._connections == {}
        writer.close()

    _run(scenario())
    assert handler_calls == []


def test_config_validation():
    with pytest.raises(ValueError, match="batch_max"):
        DecisionServer(DecisionEngine(), ServerConfig(batch_max=0))
    with pytest.raises(ValueError, match="queue_limit"):
        DecisionServer(DecisionEngine(), ServerConfig(queue_limit=0))
