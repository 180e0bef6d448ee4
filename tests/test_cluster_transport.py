"""Transport-layer tests: authentication, reliability, backoff.

These run real asyncio TCP on 127.0.0.1 with ephemeral ports.  The
tests are written as synchronous functions driving ``asyncio.run`` so
they need no async test plugin.
"""

import asyncio
import math
import random

import pytest

import repro.cluster.codec as codec_module
import repro.cluster.transport as transport_module
from repro.cluster.chaos import ChaosConfig, ChaosProxy
from repro.cluster.codec import (
    KIND_DATA,
    DataFrame,
    FrameReader,
    HelloFrame,
    decode_frame_bytes,
    encode_frame,
    encode_payload_bytes,
)
from repro.cluster.transport import Transport, backoff_delay
from repro.core.messages import EchoMessage, SimpleMessage
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.cluster


class TestBackoffDelay:
    def test_growth_is_exponential_until_the_cap(self):
        rng = random.Random(0)
        # With jitter in [0.5, 1.0], attempt a is bounded by the raw curve.
        for attempt in range(12):
            raw = min(2.0, 0.05 * 2**attempt)
            for _ in range(20):
                delay = backoff_delay(attempt, rng)
                assert 0.5 * raw <= delay <= raw

    def test_custom_base_and_cap(self):
        rng = random.Random(1)
        for _ in range(50):
            assert backoff_delay(30, rng, base=0.01, cap=0.3) <= 0.3

    def test_huge_attempt_does_not_overflow(self):
        assert backoff_delay(10_000, random.Random(2)) <= 2.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            backoff_delay(-1, random.Random(0))


def envelope(sender: int, recipient: int, tag: int) -> Envelope:
    return Envelope(
        sender=sender,
        recipient=recipient,
        payload=SimpleMessage(phaseno=tag, value=tag % 2),
    )


async def drain(transport: Transport, count: int, timeout: float = 10.0):
    """Pull at least ``count`` delivered ``(instance, envelope, ts)``
    tuples, taking the inbox's whole backlog at each wake-up."""
    received = []
    async def _pull():
        while len(received) < count:
            await transport.inbound.wait()
            received.extend(transport.inbound.take())
    await asyncio.wait_for(_pull(), timeout=timeout)
    return received


def envelopes(items):
    """Just the envelopes of delivered queue items."""
    return [item[1] for item in items]


class TestTransportPair:
    def test_ordered_authenticated_delivery(self):
        async def scenario():
            a = Transport(0, 2, seed=0)
            b = Transport(1, 2, seed=1)
            addr_a = await a.serve()
            addr_b = await b.serve()
            peers = {0: addr_a, 1: addr_b}
            a.connect(peers)
            b.connect(peers)
            try:
                for tag in range(40):
                    a.send(envelope(0, 1, tag))
                received = await drain(b, 40)
            finally:
                await a.close()
                await b.close()
            return received

        received = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(40)
        )
        assert all(env.sender == 0 for env in envelopes(received))
        assert all(env.recipient == 1 for env in envelopes(received))
        assert all(instance == 0 for instance, _env, _ts in received)

    def test_send_refuses_foreign_identity(self):
        async def scenario():
            a = Transport(0, 3, seed=0)
            await a.serve()
            a.connect({1: ("127.0.0.1", 1)})
            try:
                with pytest.raises(ConfigurationError, match="cannot send as"):
                    a.send(envelope(2, 1, 0))
            finally:
                await a.close()

        asyncio.run(scenario())

    def test_wire_claimed_sender_is_overridden_by_handshake(self):
        """A peer lying about its envelope sender is re-stamped.

        The connection handshakes as pid 1, then emits a data frame whose
        envelope claims sender 2; the receiver must attribute it to 1
        (Section 3.1 transport authentication).
        """

        async def scenario():
            b = Transport(0, 3, seed=0)
            host, port = await b.serve()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(HelloFrame(pid=1, n=3)))
                spoofed = envelope(2, 0, 7)
                writer.write(encode_frame(DataFrame(link_seq=0, envelope=spoofed)))
                await writer.drain()
                (delivered,) = await drain(b, 1, timeout=5)
                writer.close()
                return delivered
            finally:
                await b.close()

        _instance, delivered, _enqueued = asyncio.run(scenario())
        assert delivered.sender == 1
        assert delivered.payload.phaseno == 7

    def test_mismatched_cluster_size_is_rejected(self):
        async def scenario():
            b = Transport(0, 3, seed=0)
            host, port = await b.serve()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(HelloFrame(pid=1, n=99)))
                writer.write(
                    encode_frame(DataFrame(link_seq=0, envelope=envelope(1, 0, 1)))
                )
                await writer.drain()
                # The server drops the connection instead of delivering.
                eof = await asyncio.wait_for(reader.read(), timeout=5)
                assert eof == b""
                assert not b.inbound.items
            finally:
                await b.close()

        asyncio.run(scenario())


class TestReliabilityUnderChaos:
    def test_exactly_once_in_order_despite_drops_and_resets(self):
        """Go-back-n recovers from a lossy, resetting proxy path."""

        async def scenario():
            registry = MetricsRegistry()
            receiver = Transport(1, 2, registry=registry, seed=1)
            addr = await receiver.serve()
            proxy = ChaosProxy(
                addr,
                ChaosConfig(drop_rate=0.2, reset_every=11, seed=5),
                registry=registry,
            )
            proxy_addr = await proxy.serve()
            sender = Transport(
                0,
                2,
                registry=registry,
                seed=0,
                backoff_base=0.01,
                backoff_cap=0.05,
                retransmit_interval=0.05,
                # Per-frame writes: this test targets single-frame loss
                # recovery; batching under chaos is covered separately.
                batch_bytes=0,
            )
            await sender.serve()
            sender.connect({1: proxy_addr})
            try:
                for tag in range(60):
                    sender.send(envelope(0, 1, tag))
                received = await drain(receiver, 60, timeout=30)
                # Quiesce briefly: retransmissions of already-acked
                # frames must not surface as extra deliveries.
                await asyncio.sleep(0.2)
                extras = len(receiver.inbound.items)
                return received, extras, registry.snapshot()
            finally:
                await sender.close()
                await receiver.close()
                await proxy.close()

        received, extras, snapshot = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(60)
        )
        assert extras == 0
        assert snapshot.counters.get("cluster.chaos.dropped", 0) > 0
        assert snapshot.counters.get("cluster.transport.retransmits", 0) > 0

    def test_batched_frames_recover_from_drops(self):
        """A dropped multi-entry frame is one gap; go-back-n refills it."""

        async def scenario():
            registry = MetricsRegistry()
            receiver = Transport(1, 2, registry=registry, seed=1)
            addr = await receiver.serve()
            proxy = ChaosProxy(
                addr,
                ChaosConfig(drop_rate=0.3, seed=9),
                registry=registry,
            )
            proxy_addr = await proxy.serve()
            sender = Transport(
                0,
                2,
                registry=registry,
                seed=0,
                backoff_base=0.01,
                backoff_cap=0.05,
                retransmit_interval=0.05,
            )
            await sender.serve()
            sender.connect({1: proxy_addr})
            try:
                # Bursts with pauses: several distinct batch writes,
                # each a potential drop for the proxy.
                for burst in range(12):
                    for item in range(10):
                        sender.send(envelope(0, 1, burst * 10 + item))
                    await asyncio.sleep(0.01)
                received = await drain(receiver, 120, timeout=30)
                return received, registry.snapshot()
            finally:
                await sender.close()
                await receiver.close()
                await proxy.close()

        received, snapshot = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(120)
        )
        assert snapshot.counters.get("cluster.transport.batches", 0) > 0

    def test_connect_retries_until_server_appears(self):
        """Backoff keeps dialing a dead address until it comes alive."""

        async def scenario():
            registry = MetricsRegistry()
            late = Transport(1, 2, seed=1)
            sender = Transport(
                0, 2, registry=registry, seed=0,
                backoff_base=0.01, backoff_cap=0.05,
            )
            await sender.serve()
            # Reserve a port, then release it so the first dials fail.
            probe = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            host, port = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            sender.connect({1: (host, port)})
            sender.send(envelope(0, 1, 1))
            await asyncio.sleep(0.1)  # let a few dials fail
            await late.serve(host=host, port=port)
            try:
                (delivered,) = await drain(late, 1)
                return delivered, registry.snapshot()
            finally:
                await sender.close()
                await late.close()

        (_instance, delivered, _enqueued), snapshot = asyncio.run(scenario())
        assert delivered.payload.phaseno == 1
        assert snapshot.counters.get("cluster.transport.connect_failures", 0) > 0


class TestInstanceTagging:
    def test_instances_travel_the_wire_and_demultiplex(self):
        """Envelopes sent for different instances arrive tagged."""

        async def scenario():
            a = Transport(0, 2, seed=0)
            b = Transport(1, 2, seed=1)
            peers = {0: await a.serve(), 1: await b.serve()}
            a.connect(peers)
            b.connect(peers)
            try:
                for tag in range(30):
                    a.send(envelope(0, 1, tag), instance=tag % 3)
                return await drain(b, 30)
            finally:
                await a.close()
                await b.close()

        received = asyncio.run(scenario())
        assert [instance for instance, _env, _ts in received] == [
            tag % 3 for tag in range(30)
        ]
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(30)
        )


class TestBatching:
    def test_queued_frames_coalesce_into_batches(self):
        """A backlog flushed at once rides in multi-entry frames, in
        order, and every envelope sent is received once."""

        async def scenario():
            registry = MetricsRegistry()
            a = Transport(0, 2, registry=registry, seed=0)
            b = Transport(1, 2, registry=registry, seed=1)
            addr_b = await b.serve()
            await a.serve()
            try:
                # Queue a burst BEFORE the link can connect, so the
                # speak loop finds a deep backlog on its first pass.
                a.connect({1: addr_b})
                for tag in range(200):
                    a.send(envelope(0, 1, tag), instance=tag % 5)
                received = await drain(b, 200, timeout=30)
                return received, registry.snapshot()
            finally:
                await a.close()
                await b.close()

        received, snapshot = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(200)
        )
        assert snapshot.counters.get("cluster.transport.batches", 0) > 0
        assert snapshot.counters.get("cluster.transport.batched_frames", 0) > 1
        assert snapshot.gauges.get("cluster.transport.max_batch", 0) > 1
        assert snapshot.counters["cluster.transport.sent"] == 200
        assert snapshot.counters["cluster.transport.received"] == 200

    def test_batching_disabled_still_delivers(self):
        async def scenario():
            registry = MetricsRegistry()
            a = Transport(0, 2, registry=registry, seed=0, batch_bytes=0)
            b = Transport(1, 2, seed=1)
            addr_b = await b.serve()
            await a.serve()
            try:
                a.connect({1: addr_b})
                for tag in range(50):
                    a.send(envelope(0, 1, tag))
                received = await drain(b, 50, timeout=30)
                return received, registry.snapshot()
            finally:
                await a.close()
                await b.close()

        received, snapshot = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(50)
        )
        assert snapshot.counters.get("cluster.transport.batches", 0) == 0

    def test_batch_respects_byte_cap(self):
        """A tiny cap keeps every batch at (or near) one frame."""

        async def scenario():
            registry = MetricsRegistry()
            a = Transport(0, 2, registry=registry, seed=0, batch_bytes=1)
            b = Transport(1, 2, seed=1)
            addr_b = await b.serve()
            await a.serve()
            try:
                a.connect({1: addr_b})
                for tag in range(50):
                    a.send(envelope(0, 1, tag))
                received = await drain(b, 50, timeout=30)
                return received, registry.snapshot()
            finally:
                await a.close()
                await b.close()

        received, snapshot = asyncio.run(scenario())
        assert len(received) == 50
        # A 1-byte cap is crossed by the very first frame, so no batch
        # ever coalesces a second one.
        assert snapshot.counters.get("cluster.transport.batches", 0) == 0


async def mesh(n: int, **kwargs) -> list[Transport]:
    """n fully connected transports on ephemeral loopback ports."""
    transports = [Transport(pid, n, seed=pid, **kwargs) for pid in range(n)]
    peers = {t.pid: await t.serve() for t in transports}
    for transport in transports:
        transport.connect(peers)
    return transports


async def close_all(transports) -> None:
    for transport in transports:
        await transport.close()


class TestEncodeOncePerBroadcast:
    """Transport.send encodes a payload once per *object*: shared by
    the sends of one broadcast, never across different messages."""

    def counted_encoder(self, monkeypatch) -> list:
        encoded = []

        def counting(payload):
            encoded.append(payload)
            return encode_payload_bytes(payload)

        monkeypatch.setattr(transport_module, "encode_payload_bytes", counting)
        return encoded

    def test_broadcast_encodes_its_payload_once(self, monkeypatch):
        encoded = self.counted_encoder(monkeypatch)

        async def scenario():
            transports = await mesh(5)
            try:
                received = []
                for phase in range(3):
                    message = EchoMessage(origin=0, value=1, phaseno=phase)
                    for recipient in range(1, 5):
                        transports[0].send(
                            Envelope(0, recipient, message), instance=phase
                        )
                for recipient in range(1, 5):
                    received.append(await drain(transports[recipient], 3))
                return received
            finally:
                await close_all(transports)

        received = asyncio.run(scenario())
        # Three broadcasts of n−1 = 4 sends each: three encodes.
        assert [message.phaseno for message in encoded] == [0, 1, 2]
        for items in received:
            assert [env.payload.phaseno for env in envelopes(items)] == [0, 1, 2]
            assert [instance for instance, _env, _ts in items] == [0, 1, 2]

    def test_equivocating_sender_delivers_each_recipient_its_own_payload(
        self, monkeypatch
    ):
        """One step pushing a different payload to every recipient —
        the equivocating Byzantine's move — must never be served another
        recipient's bytes from the memo, including when the payloads
        compare equal or one object comes round again."""
        encoded = self.counted_encoder(monkeypatch)
        zero = EchoMessage(origin=0, value=0, phaseno=1)
        one = EchoMessage(origin=0, value=1, phaseno=1)
        twin = EchoMessage(origin=0, value=0, phaseno=1)  # == zero
        assert twin == zero and twin is not zero
        step = [(1, zero), (2, one), (3, zero), (1, twin), (2, zero), (3, one)]

        async def scenario():
            transports = await mesh(4)
            try:
                for recipient, message in step:
                    transports[0].send(Envelope(0, recipient, message))
                return [await drain(transports[r], 2) for r in (1, 2, 3)]
            finally:
                await close_all(transports)

        received = asyncio.run(scenario())
        for recipient, items in zip((1, 2, 3), received):
            assert [env.payload for env in envelopes(items)] == [
                message for to, message in step if to == recipient
            ]
        # No two consecutive sends shared an object, so none shared bytes.
        assert len(encoded) == len(step)
        assert all(
            sent is message for sent, (_to, message) in zip(encoded, step)
        )


def data_bytes(units) -> bytes:
    """The data frames among raw ``(kind, bytes)`` wire units, back to
    back."""
    return b"".join(raw for kind, raw in units if kind == KIND_DATA)


def envelope_count(units) -> int:
    """Envelopes in the data frames among raw wire units."""
    frames = decode_frame_bytes(data_bytes(units))
    return sum(len(frame.entries) for frame in frames)


class TestBytesWrittenOnce:
    def test_a_backlog_is_one_raw_unit_of_one_data_frame(self):
        """What a transport writes for a backlog is one data frame, one
        unit to a raw reader (the chaos proxy's view), carrying every
        queued envelope in order under one link_seq."""
        COUNT = 40

        async def scenario():
            units = []
            done = asyncio.Event()

            async def peer(reader, writer):
                frames = FrameReader(raw=True)
                while envelope_count(units) < COUNT:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    frames.feed(chunk)
                    units.extend(frames.frames())
                done.set()
                writer.close()

            server = await asyncio.start_server(peer, "127.0.0.1", 0)
            sender = Transport(0, 2, seed=0)
            await sender.serve()
            try:
                sender.connect({1: server.sockets[0].getsockname()[:2]})
                for tag in range(COUNT):
                    sender.send(envelope(0, 1, tag), instance=tag % 3)
                await asyncio.wait_for(done.wait(), timeout=10)
                return units
            finally:
                await sender.close()
                server.close()
                await server.wait_closed()

        units = asyncio.run(scenario())
        ((kind, raw),) = [unit for unit in units if unit[0] == KIND_DATA]
        (frame,) = decode_frame_bytes(raw)
        assert frame.link_seq == 0
        assert [(instance, payload.phaseno) for instance, payload, _ in
                frame.entries] == [(tag % 3, tag) for tag in range(COUNT)]
        assert encode_frame(frame) == raw

    def test_retransmission_resends_the_first_transmission_bytes(self):
        """A connection reset before any ack: on reconnect the sender
        writes, frame for frame, the bytes it wrote the first time (no
        re-encode), and the receiver delivers each exactly once."""
        COUNT, LATER = 30, 5

        async def scenario():
            registry = MetricsRegistry()
            receiver = Transport(1, 2, registry=registry, seed=1)
            addr = await receiver.serve()
            connections: list[list] = []

            async def relay(reader, writer):
                # Forwards frames to the receiver and records them.  The
                # first connection withholds the acks and resets once
                # every queued frame went through.
                first = not connections
                units: list = []
                connections.append(units)
                up_reader, up_writer = await asyncio.open_connection(*addr)

                async def acks():
                    while chunk := await up_reader.read(65536):
                        writer.write(chunk)
                        await writer.drain()

                ack_task = None if first else asyncio.create_task(acks())
                frames = FrameReader(raw=True)
                try:
                    while not (first and envelope_count(units) >= COUNT):
                        chunk = await reader.read(65536)
                        if not chunk:
                            break
                        frames.feed(chunk)
                        for kind, raw in frames.frames():
                            units.append((kind, raw))
                            up_writer.write(raw)
                        await up_writer.drain()
                finally:
                    if ack_task is not None:
                        ack_task.cancel()
                    up_writer.close()
                    writer.close()

            proxy = await asyncio.start_server(relay, "127.0.0.1", 0)
            sender = Transport(
                0, 2, registry=registry, seed=0,
                backoff_base=0.01, backoff_cap=0.05,
            )
            await sender.serve()
            try:
                sender.connect({1: proxy.sockets[0].getsockname()[:2]})
                for tag in range(COUNT):
                    sender.send(envelope(0, 1, tag))
                received = await drain(receiver, COUNT)
                for _ in range(500):
                    if len(connections) > 1:
                        break
                    await asyncio.sleep(0.01)
                for tag in range(COUNT, COUNT + LATER):
                    sender.send(envelope(0, 1, tag))
                received += await drain(receiver, LATER)
                await asyncio.sleep(0.1)
                extras = len(receiver.inbound.items)
                return connections, received, extras, registry.snapshot()
            finally:
                await sender.close()
                await receiver.close()
                proxy.close()
                await proxy.wait_closed()

        connections, received, extras, snapshot = asyncio.run(scenario())
        first = data_bytes(connections[0])
        assert envelope_count(connections[0]) == COUNT
        assert data_bytes(connections[1])[: len(first)] == first
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(COUNT + LATER)
        )
        assert extras == 0
        assert snapshot.counters.get("cluster.transport.retransmits") == COUNT
        assert snapshot.counters.get("cluster.transport.duplicates") == COUNT


class TestInternTableBound:
    def test_hostile_stream_bloats_only_its_own_bounded_table(
        self, monkeypatch
    ):
        """A peer streaming 10× the intern bound of distinct payloads
        leaves its connection's table at or under the bound, and another
        connection's table exactly as it was."""
        BOUND = 16
        monkeypatch.setattr(codec_module, "INTERN_TABLE_SIZE", BOUND)
        readers = []

        class RecordedReader(FrameReader):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                readers.append(self)

        monkeypatch.setattr(transport_module, "FrameReader", RecordedReader)
        honest = [EchoMessage(origin=2, value=1, phaseno=p) for p in range(3)]
        honest_keys = {encode_payload_bytes(message) for message in honest}

        async def scenario():
            transports = await mesh(3)
            victim = transports[0]
            try:
                for message in honest * 4:
                    transports[2].send(Envelope(2, 0, message))
                await drain(victim, len(honest) * 4)
                (honest_reader,) = [
                    r for r in readers if set(r._interned) == honest_keys
                ]
                for tag in range(10 * BOUND):
                    transports[1].send(envelope(1, 0, tag))
                flood = await drain(victim, 10 * BOUND)
                return honest_reader, flood
            finally:
                await close_all(transports)

        honest_reader, flood = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(flood)] == list(
            range(10 * BOUND)
        )
        assert set(honest_reader._interned) == honest_keys
        hostile = [r for r in readers if len(r._interned) > len(honest)]
        assert len(hostile) == 1
        assert all(len(reader._interned) <= BOUND for reader in readers)


class TestTransportValidation:
    def test_pid_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Transport(5, 3)

    def test_negative_batch_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            Transport(0, 2, batch_bytes=-1)

    def test_send_without_link_rejected(self):
        async def scenario():
            a = Transport(0, 3, seed=0)
            with pytest.raises(ConfigurationError, match="no link"):
                a.send(envelope(0, 2, 0))
            await a.close()

        asyncio.run(scenario())


class TestCloseDuringHandlerWindDown:
    def test_close_cancelling_a_finishing_handler_is_silent(self):
        """Regression: ``close()`` catching an accepted connection that
        is already winding down (peer gone, the close in progress) must
        report nothing to the loop's exception handler — a handler that
        ends cancelled there makes asyncio (≤ 3.11) log a traceback."""
        reported = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            server = Transport(1, 2, seed=1)
            addr = await server.serve()
            _, writer = await asyncio.open_connection(*addr)
            while not server._inbound_connections:
                await asyncio.sleep(0)
            (accepted,) = server._inbound_connections
            writer.close()  # EOF: the accepted connection starts closing
            while not accepted.wire.is_closing():
                await asyncio.sleep(0)
            assert not accepted.lost.done()  # caught mid-wind-down
            await server.close()
            await asyncio.sleep(0)
            return server._inbound_connections

        assert asyncio.run(scenario()) == set()
        assert reported == []


class TestAckClock:
    def test_a_one_tick_burst_is_one_write_and_arms_nothing_per_send(self):
        """A burst sent in one tick to a connected peer leaves as a
        single write at the end of the tick, creating no task and no
        timer per send; a second burst sent while that write is still
        unacked waits for the ack and then leaves as one write too."""
        BURST = 50
        HOOKS = ("call_later", "call_at", "create_task")

        async def scenario():
            a, b = await mesh(2)
            loop = asyncio.get_running_loop()
            link = a._links[1]
            try:
                a.send(envelope(0, 1, 0))
                await drain(b, 1)
                while link.unacked:  # the warm-up frame's ack
                    await asyncio.sleep(0)
                created, writes = [], []
                for name in HOOKS:
                    def counted(*args, _real=getattr(loop, name), **kwargs):
                        created.append(args)
                        return _real(*args, **kwargs)
                    setattr(loop, name, counted)
                real_write = link.wire.write

                def recorded_write(data):
                    writes.append(data)
                    real_write(data)

                link.wire.write = recorded_write
                try:
                    for tag in range(1, BURST + 1):
                        a.send(envelope(0, 1, tag))
                    await asyncio.sleep(0)  # the end-of-tick flush ran
                    first_writes = len(writes)
                    armed = len(created)
                    # Window open: the next burst waits for its ack.
                    for tag in range(BURST + 1, 2 * BURST + 1):
                        a.send(envelope(0, 1, tag))
                    waiting = (len(link.pending), link._flush_due)
                finally:
                    for name in HOOKS:
                        delattr(loop, name)
                received = await drain(b, 2 * BURST)
                return first_writes, armed, waiting, writes, received
            finally:
                await close_all([a, b])

        first_writes, armed, waiting, writes, received = asyncio.run(
            scenario()
        )
        assert first_writes == 1
        assert armed <= 1  # at most the window's retransmit backstop
        assert waiting == (BURST, False)
        assert len(writes) == 2
        for write, first in zip(writes, (1, BURST + 1)):
            (frame,) = decode_frame_bytes(write)
            assert [payload.phaseno for _, payload, _ in frame.entries] == (
                list(range(first, first + BURST))
            )
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(1, 2 * BURST + 1)
        )


class _ScriptedDrops:
    """Stands in for a ChaosProxy's RNG: exactly the listed data units
    (0-based, in arrival order) draw a drop."""

    def __init__(self, drops) -> None:
        self.drops = set(drops)
        self.unit = -1

    def random(self) -> float:
        self.unit += 1
        return 0.0 if self.unit in self.drops else 1.0


def resend_runs(writes) -> list[list]:
    """The retransmissions among a link's writes: maximal runs of
    consecutive writes that carry already-written sequence numbers,
    each picking up where the previous one stopped."""
    runs: list[list] = []
    seen: set = set()
    last = None  # (sequence numbers, was a resend) of the previous write
    for write in writes:
        seqs = [frame.link_seq for frame in decode_frame_bytes(write)]
        resend = seqs[0] in seen
        if resend:
            if last is not None and last[1] and seqs[0] == last[0][-1] + 1:
                runs[-1].append(write)
            else:
                runs.append([write])
        seen.update(seqs)
        last = (seqs, resend)
    return runs


class TestDropRecovery:
    def test_a_dropped_batch_is_resent_in_batches_and_delivered_once(self):
        """One scripted drop through the chaos proxy on a link that always
        has traffic in flight: the link recovers exactly once and in
        order, and every retransmission of a window costs at most
        ceil(window bytes / batch_bytes) + 1 wire writes — resending
        frame by frame is what stalled a 2%-lossy link."""
        TOTAL, IN_FLIGHT, BATCH = 300, 40, 400
        writes = []

        async def scenario():
            registry = MetricsRegistry()
            receiver = Transport(1, 2, registry=registry, seed=1)
            proxy = ChaosProxy(
                await receiver.serve(),
                ChaosConfig(drop_rate=0.5),
                registry=registry,
            )
            proxy.rng = _ScriptedDrops({2})  # the third data frame
            proxy_addr = await proxy.serve()
            sender = Transport(
                0, 2, registry=registry, seed=0,
                retransmit_interval=0.05, batch_bytes=BATCH,
            )
            await sender.serve()
            sender.connect({1: proxy_addr})
            link = sender._links[1]
            received, sent = [], 0
            try:
                for _ in range(500):
                    if link.wire is not None:
                        break
                    await asyncio.sleep(0.01)
                real_write = link.wire.write

                def recorded_write(data):
                    writes.append(data)
                    real_write(data)

                link.wire.write = recorded_write
                # Continuous traffic: IN_FLIGHT envelopes outstanding at
                # all times, topped up as deliveries land.
                while len(received) < TOTAL:
                    while sent < min(TOTAL, len(received) + IN_FLIGHT):
                        sender.send(envelope(0, 1, sent))
                        sent += 1
                    received += await drain(receiver, 1, timeout=30)
                return received, registry.snapshot()
            finally:
                await sender.close()
                await receiver.close()
                await proxy.close()

        received, snapshot = asyncio.run(scenario())
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(TOTAL)
        )
        assert snapshot.counters.get("cluster.chaos.dropped") == 1
        runs = resend_runs(writes)
        assert runs, "the drop was never retransmitted"
        resent = [
            sum(
                len(frame.entries)
                for write in run
                for frame in decode_frame_bytes(write)
            )
            for run in runs
        ]
        for run, count in zip(runs, resent):
            window_bytes = sum(len(write) for write in run)
            assert len(run) <= math.ceil(window_bytes / BATCH) + 1, (
                f"{count} envelopes resent in {len(run)} writes"
            )
        # The resent window really was many envelopes, coalesced.
        assert max(count - len(run) for run, count in zip(runs, resent)) > 0

    def test_window_survives_a_reconnect_outage(self):
        """A mute peer swallows the window without acking and drops the
        connection; sends made while redials fail only queue.  Once the
        real peer appears on that address, go-back-n resends the window
        and everything arrives exactly once, in order."""
        WINDOW = 4

        async def scenario():
            registry = MetricsRegistry()
            # Reserve a port for the peer so the mute impostor and the
            # real receiver can serve the same address in turn.
            probe = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            host, port = probe.sockets[0].getsockname()[:2]
            probe.close()
            await probe.wait_closed()
            seen = asyncio.Event()

            async def mute_peer(reader, writer):
                # Read (and drop) hello + WINDOW data frames, ack
                # nothing, then close the connection.
                frames = FrameReader()
                count = 0
                while count < 1 + WINDOW:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    frames.feed(chunk)
                    count += sum(1 for _ in frames.frames())
                seen.set()
                writer.close()

            mute = await asyncio.start_server(mute_peer, host=host, port=port)
            sender = Transport(
                0, 2, registry=registry, seed=0, batch_bytes=0,
                retransmit_interval=0.05, backoff_base=0.2, backoff_cap=0.5,
            )
            await sender.serve()
            sender.connect({1: (host, port)})
            receiver = Transport(1, 2, seed=1)
            try:
                for tag in range(WINDOW):
                    sender.send(envelope(0, 1, tag))
                await asyncio.wait_for(seen.wait(), timeout=10)
                # Tear the mute peer down so redials fail and the link
                # sits in its reconnect window.
                mute.close()
                await mute.wait_closed()
                link = sender._links[1]
                await until(lambda: link.wire is None, "the disconnect")
                unacked = len(link.unacked)
                sender.send(envelope(0, 1, WINDOW))
                sender.send(envelope(0, 1, WINDOW + 1))
                await receiver.serve(host=host, port=port)
                received = await drain(receiver, WINDOW + 2, timeout=30)
                await asyncio.sleep(0.1)
                extras = len(receiver.inbound.items)
                return unacked, received, extras, registry.snapshot()
            finally:
                await sender.close()
                await receiver.close()

        unacked, received, extras, snapshot = asyncio.run(scenario())
        assert unacked == WINDOW
        assert [env.payload.phaseno for env in envelopes(received)] == list(
            range(WINDOW + 2)
        )
        assert extras == 0
        assert snapshot.counters["cluster.transport.retransmits"] >= WINDOW


class _CountedConnection(transport_module._Connection):
    """A connection that records itself and counts its reads."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0
        self.made.append(self)

    def buffer_updated(self, nbytes: int) -> None:
        self.reads += 1
        super().buffer_updated(nbytes)


async def raw_peer(addr, pid: int, n: int):
    """A hand-driven dialer that has sent its handshake."""
    reader, writer = await asyncio.open_connection(*addr)
    writer.write(encode_frame(HelloFrame(pid=pid, n=n)))
    await writer.drain()
    return reader, writer


async def until(condition, what: str) -> None:
    """Yield to the loop until ``condition()`` holds (bounded)."""
    for _ in range(2000):
        if condition():
            return
        await asyncio.sleep(0.001)
    raise AssertionError(f"timed out waiting for {what}")


class TestReadBuffer:
    """Every connection of a transport reads into one buffer it owns."""

    @pytest.fixture
    def made(self, monkeypatch):
        monkeypatch.setattr(_CountedConnection, "made", [])
        monkeypatch.setattr(
            transport_module, "_Connection", _CountedConnection
        )
        return _CountedConnection.made

    def test_connection_is_a_buffered_protocol(self):
        connection = transport_module._Connection
        assert issubclass(connection, asyncio.BufferedProtocol)
        assert not hasattr(connection, "data_received")

    def test_dialed_and_accepted_connections_share_one_buffer(self, made):
        async def scenario():
            a, b = await mesh(2)
            try:
                a.send(envelope(0, 1, 0))
                b.send(envelope(1, 0, 1))
                await drain(a, 1)
                await drain(b, 1)
                return {
                    t.pid: (
                        [
                            c for c in made
                            if c.on_frames.__self__ is t._links[1 - t.pid]
                        ],
                        list(t._inbound_connections),
                    )
                    for t in (a, b)
                }
            finally:
                await close_all([a, b])

        by_pid = asyncio.run(scenario())
        buffers = []
        for pid, ((dialed,), (accepted,)) in by_pid.items():
            buffer = dialed.get_buffer(-1)
            assert accepted.get_buffer(-1) is buffer
            assert len(buffer) == transport_module.READ_BUFFER_SIZE
            buffers.append(buffer)
        assert buffers[0] is not buffers[1]

    def test_interleaved_reads_on_two_connections_both_decode(self, made):
        """Two peers' frames arrive a few bytes at a time, their reads
        alternating through the one buffer: both decode intact."""
        def frame(sender: int) -> bytes:
            return encode_frame(
                DataFrame.of(
                    0,
                    sender,
                    0,
                    tuple(
                        (sender, SimpleMessage(phaseno=tag, value=1), None)
                        for tag in range(4)
                    ),
                )
            )

        async def scenario():
            b = Transport(0, 3, seed=0)
            addr = await b.serve()
            try:
                peers = [await raw_peer(addr, pid, 3) for pid in (1, 2)]
                await until(lambda: len(made) == 2, "both connections")
                blobs = [frame(1), frame(2)]
                for start in range(0, len(blobs[0]), 7):
                    for (_reader, writer), blob in zip(peers, blobs):
                        reads = sum(c.reads for c in made)
                        writer.write(blob[start : start + 7])
                        await until(
                            lambda: sum(c.reads for c in made) > reads,
                            "the read",
                        )
                received = await drain(b, 8)
                for _reader, writer in peers:
                    writer.close()
                return received
            finally:
                await b.close()

        received = asyncio.run(scenario())
        for sender in (1, 2):
            assert [
                (instance, env.payload.phaseno)
                for instance, env, _ts in received
                if env.sender == sender
            ] == [(sender, tag) for tag in range(4)]

    def test_a_frame_larger_than_the_buffer_arrives_over_several_reads(
        self, made
    ):
        big = "x" * 200_000

        async def scenario():
            a, b = await mesh(2)
            try:
                a.send(Envelope(0, 1, big))
                (delivered,) = await drain(b, 1)
                (accepted,) = b._inbound_connections
                return delivered, accepted.reads
            finally:
                await close_all([a, b])

        (_instance, delivered, _ts), reads = asyncio.run(scenario())
        assert delivered.payload == big
        assert reads >= math.ceil(200_000 / transport_module.READ_BUFFER_SIZE)

    def test_a_codec_error_aborts_only_its_connection(self, made):
        async def scenario():
            b = Transport(0, 3, seed=0)
            addr = await b.serve()
            try:
                (bad_reader, bad), (_reader, good) = [
                    await raw_peer(addr, pid, 3) for pid in (1, 2)
                ]
                good.write(encode_frame(DataFrame(0, envelope(2, 0, 0))))
                received = await drain(b, 1)
                bad.write(b"ZZ" + bytes(30))  # bad magic
                eof = await asyncio.wait_for(bad_reader.read(), timeout=5)
                good.write(encode_frame(DataFrame(1, envelope(2, 0, 1))))
                received += await drain(b, 1)
                good.close()
                bad.close()
                return eof, received
            finally:
                await b.close()

        eof, received = asyncio.run(scenario())
        assert eof == b""
        assert [env.payload.phaseno for env in envelopes(received)] == [0, 1]
        assert all(env.sender == 2 for env in envelopes(received))
