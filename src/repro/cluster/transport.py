"""Asyncio connection mesh: the paper's message system over real TCP.

Section 2.1 assumes messages are "delivered reliably but arbitrarily
slowly"; Section 3.1 adds that "the message system must provide a way for
correct processes to verify the identity of the sender of each message".
:class:`Transport` provides exactly that contract on top of loopback (or
LAN) TCP:

* **Sender authentication.**  Every directed peer link opens with a
  :class:`~repro.cluster.codec.HelloFrame` naming the dialer's pid; the
  acceptor attributes every later data frame on that connection to the
  handshaken pid, *ignoring* whatever sender the wire envelope claims —
  the same stamping discipline the simulator's
  :class:`~repro.net.system.MessageSystem` applies.  A Byzantine process
  can lie inside its payloads but cannot impersonate another transport.
* **Reliability.**  Links are lossy in practice (the chaos proxy drops
  frames; reconnects lose whatever sat in kernel buffers), so each link
  runs a small go-back-n layer: data frames carry a per-link sequence
  number, the receiver delivers only in order and sends one cumulative
  ack per read chunk that carried data, and the sender keeps frames
  until acked — resending the whole window on reconnect and whenever
  it has been open for ``retransmit_interval`` without ack progress.
  Duplicates are discarded by sequence, so every envelope is delivered
  to the application exactly once.
* **Ack clock.**  No task or timer per frame: with an empty window a
  tick's sends leave at the end of the tick (one ``call_soon``), with
  frames in flight they leave when an ack advances the window — all
  queued envelopes together, so a busy link writes once per round trip.
* **One read buffer.**  Connections read with ``recv_into`` a buffer
  the transport owns, :data:`READ_BUFFER_SIZE` bytes shared by all of
  its connections (reads run one callback at a time, and the frame
  reader copies the bytes before the callback returns), instead of
  asyncio allocating a fresh 256 KiB ``bytes`` per read.
* **Reconnect.**  A broken connection is retried forever with capped
  exponential backoff plus jitter; the protocol layer never sees the
  outage, only latency — which is precisely the paper's "arbitrarily
  slow" envelope.

Two additions serve sustained multi-instance traffic:

* **One frame per write.**  A flush puts every envelope queued on the
  link into one :class:`~repro.cluster.codec.DataFrame` — one entry
  each, one ``link_seq`` for the lot — and writes it, starting another
  frame only where one reaches ``batch_bytes``.  So k concurrent
  consensus instances cost one syscall per flush instead of k, and
  the go-back-n window holds writes, not envelopes.
* **Encode once.**  Every phase of the protocols is a fan-out of one
  message to all n processes, so :meth:`Transport.send` encodes a
  payload once per message object and every recipient's frame splices
  the same bytes; a frame's bytes are built once, when its link
  assigns the sequence number, and those bytes are what the write and
  any retransmission send.

There is no flow control: as in the paper's message system (§2.1),
per-peer queues are unbounded and :meth:`Transport.send` never refuses
a message.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Any, Optional

from repro.cluster.codec import (
    ENTRY_HEADER_SIZE,
    WIRE_ENCODING,
    AckFrame,
    ByeFrame,
    CodecError,
    DataFrame,
    FrameReader,
    HelloFrame,
    encode_frame,
    encode_payload_bytes,
)
from repro.errors import ConfigurationError
from repro.net.message import Envelope
from repro.obs.metrics import MetricsRegistry

#: Default soft cap on one data frame.  A flush stops adding entries to
#: a frame once they reach this many bytes, so one write stays well
#: under the codec's MAX_BODY while still absorbing bursts from dozens
#: of concurrent instances.
DEFAULT_BATCH_BYTES = 32 * 1024

#: Size of a transport's one read buffer: the most one read takes.  A
#: busy link's flush is a few KiB; a larger frame takes several reads.
READ_BUFFER_SIZE = 64 * 1024

#: Enqueue-timestamp placeholder for untraced inbound tuples.  A shared
#: constant, not a fresh ``loop.time()`` float, so the untraced receive
#: path allocates exactly what it always did (one tuple per delivery).
NO_ENQUEUE_TS = 0.0

#: Default send/recv span sampling: stamp (and span) one envelope in
#: this many per link, the first always.  Decide segments and chaos
#: windows are exact regardless; ``1`` records every message.
DEFAULT_TRACE_SAMPLE = 64

#: Initial value of the payload-encode memo: no payload is this object
#: (``None`` is a legal payload).
_NO_PAYLOAD = object()


def backoff_delay(
    attempt: int,
    rng: random.Random,
    base: float = 0.05,
    cap: float = 2.0,
) -> float:
    """Capped exponential backoff with jitter for reconnect attempt N.

    The uncapped curve is ``base * 2**attempt``; the jitter multiplies by
    a uniform draw in [0.5, 1.0] so a partitioned cluster's nodes do not
    reconnect in lockstep.  Always strictly positive.
    """
    if attempt < 0:
        raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
    raw = min(cap, base * (2.0 ** min(attempt, 30)))
    return raw * (0.5 + 0.5 * rng.random())


class Inbox:
    """Delivered ``(instance, envelope, enqueued_at)`` tuples, oldest
    first, awaiting the node's one consumer task, which takes the whole
    backlog in one swap (:meth:`take`), not one queue operation each."""

    def __init__(self) -> None:
        self.items: list = []
        self._waiter: Optional[asyncio.Future] = None

    def put(self, item: tuple) -> None:
        """Append one delivery and wake the waiter, if there is one."""
        self.items.append(item)
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def wait(self) -> None:
        """Return once at least one delivery is waiting."""
        while not self.items:
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None

    def take(self) -> list:
        """Every waiting delivery, oldest first; leaves the inbox empty."""
        items, self.items = self.items, []
        return items


class _Connection(asyncio.BufferedProtocol):
    """One TCP connection of the mesh, driven by read callbacks (no task
    and no future per read): each read lands in ``transport``'s buffer,
    shared by all its connections, and ``on_frames(connection, frames)``
    gets the complete frames it finished; ``lost`` resolves once the
    connection has ended, and ``live`` holds it while it is open."""

    def __init__(self, on_frames, transport, live: Optional[set] = None) -> None:
        self.on_frames = on_frames
        self.buffer = transport._read_buffer
        self.registry = transport.registry
        self.live = live
        self.frames = FrameReader()
        self.wire: Optional[asyncio.Transport] = None
        #: The handshaken pid of an accepted connection's dialer.
        self.peer: Optional[int] = None
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, wire) -> None:
        self.wire = wire
        if self.live is not None:
            self.live.add(self)

    def connection_lost(self, exc) -> None:
        if self.live is not None:
            self.live.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        try:
            # feed copies the bytes out, so the next read may reuse the
            # buffer, on this connection or any other.
            self.frames.feed(self.buffer[:nbytes])
            self.on_frames(self, self.frames.frames())
        except CodecError:  # a peer that breaks the wire protocol
            self.registry.inc("cluster.transport.codec_errors")
            self.wire.abort()

    async def shut(self) -> None:
        """Close now, dropping unsent bytes, and wait until closed."""
        self.wire.abort()
        await self.lost


class _PeerLink:
    """One directed link: this node's frames to a single remote peer.

    Owns the outbound queue, the go-back-n unacked window, and the
    connect/reconnect loop.  The reverse direction is the remote peer's
    own link; one TCP connection carries data one way and acks the other.
    Writes are ack-clocked (see the module docstring), so the link's
    task only dials, waits for the connection to end, and redials.
    """

    def __init__(self, transport: "Transport", peer: int, addr: tuple) -> None:
        self.transport = transport
        self.peer = peer
        self.addr = addr
        #: ``(instance, envelope, payload bytes)`` not yet written.
        self.pending: deque = deque()
        #: The go-back-n window: ``(link_seq, bytes, envelope count)``
        #: per frame written and not yet acked, oldest first.
        self.unacked: deque = deque()
        #: Envelopes in the window (the sum of its envelope counts).
        self.in_flight = 0
        self.next_seq = 0
        #: The live connection.  ``None`` for the whole reconnect window
        #: (backoff + redial); sends meanwhile only queue, and the
        #: unacked window goes again once the link is back.
        self.wire: Optional[asyncio.Transport] = None
        #: Span-sampling countdown: envelopes until the next causal stamp
        #: (0 = stamp the next one, so a link's first envelope always
        #: carries the trace extension).
        self._stamp_count = 0
        self.connected_once = False
        self._flush_due = False
        #: Loop time the window last moved: opened, acked or resent.
        self._progress_at = 0.0
        self._backstop: Optional[asyncio.TimerHandle] = None
        self._loop = transport._loop
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    def start(self) -> None:
        self._task = self._loop.create_task(
            self._run(), name=f"link-{self.transport.pid}->{self.peer}"
        )

    def send(self, instance: int, envelope: Envelope, payload: bytes) -> None:
        self.pending.append((instance, envelope, payload))
        if not self.unacked and not self._flush_due and self.wire is not None:
            # No ack is coming to clock this out: write at the end of
            # the tick, with whatever else the tick queues.
            self._flush_due = True
            self._loop.call_soon(self._flush)

    @property
    def backlog(self) -> int:
        """Envelopes not yet acknowledged by the peer (queued + in flight)."""
        return len(self.pending) + self.in_flight

    async def close(self) -> None:
        self._closed = True
        if self._backstop is not None:
            self._backstop.cancel()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------ #
    # Connection loop
    # ------------------------------------------------------------------ #

    async def _run(self) -> None:
        transport = self.transport
        attempt = 0
        while not self._closed:
            try:
                wire, connection = await self._loop.create_connection(
                    lambda: _Connection(self._on_acks, transport),
                    *self.addr,
                )
            except OSError:
                transport.registry.inc("cluster.transport.connect_failures")
                attempt += 1
            else:
                if self.connected_once:
                    transport.registry.inc("cluster.transport.reconnects")
                    if transport.tracer is not None:
                        transport.tracer.writer.record(
                            "reconnect", pid=transport.pid, peer=self.peer
                        )
                self.connected_once = True
                attempt = 0
                wire.write(
                    encode_frame(HelloFrame(pid=transport.pid, n=transport.n))
                )
                self.wire = wire
                try:
                    # Go-back-n recovery: everything unacked goes again,
                    # in order, then whatever queued during the outage.
                    if self.unacked:
                        self._resend()
                    self._flush()
                    await connection.lost
                finally:
                    self.wire = None
                    await connection.shut()
            if not self._closed:
                # Failed dials back off exponentially; a redial does not.
                await asyncio.sleep(
                    backoff_delay(
                        max(attempt - 1, 0),
                        transport.rng,
                        transport.backoff_base,
                        transport.backoff_cap,
                    )
                )

    def _on_acks(self, connection: _Connection, frames) -> None:
        """The peer's cumulative acks: one that advances the window is
        the clock tick that writes whatever queued meanwhile."""
        acked = None
        for frame in frames:
            if isinstance(frame, AckFrame):
                acked = frame.acked
            elif isinstance(frame, ByeFrame):
                connection.wire.close()
                return
        unacked = self.unacked
        if acked is None or not unacked or unacked[0][0] > acked:
            return
        while unacked and unacked[0][0] <= acked:
            self.in_flight -= unacked.popleft()[2]
        self._progress_at = self._loop.time()
        self._flush()

    def _flush(self) -> None:
        """Put every queued envelope into data frames and write them:
        one frame, unless the queue outgrows ``batch_bytes``."""
        self._flush_due = False
        wire = self.wire
        pending = self.pending
        if wire is None or not pending:
            return
        transport = self.transport
        unacked = self.unacked
        if not unacked:
            self._arm_backstop()
        registry = transport.registry
        tracer = transport.tracer
        sample = transport.trace_sample
        cap = transport.batch_bytes
        stamp_count = self._stamp_count  # hoisted over the flush
        seq = self.next_seq
        sent = len(pending)
        fresh = []
        while pending:
            entries, payloads, size = [], [], 0
            while True:
                instance, envelope, payload = pending.popleft()
                # Causal stamp: the wire extension and the local "send"
                # span share one span id + HLC tick, so the receiver's
                # parent pointer resolves to this event.  Sampled
                # 1-in-`trace_sample` per link (first envelope always)
                # — per-message stamping and span emission is the bulk
                # of tracing's hot-path tax, and the exact artefacts
                # (decide segments, chaos windows) never ride on
                # send/recv spans.
                ext = None
                if tracer is not None:
                    stamp_count -= 1
                    if stamp_count <= 0:
                        stamp_count = sample
                        ext = tracer.stamp(instance)
                entries.append((instance, envelope.payload, ext))
                payloads.append(payload)
                size += ENTRY_HEADER_SIZE + len(payload)
                # Only stamped (sampled) envelopes get a send span —
                # unstamped ones stay event-free.
                if ext is not None:
                    tracer.writer.record_fields(
                        "send",
                        {
                            "pid": transport.pid,
                            "peer": self.peer,
                            "instance": instance,
                            "payload": envelope.payload,
                            "trace": ext[0],
                            "span": ext[1],
                            "hlc": [ext[2], ext[3]],
                            "link_seq": seq,
                        },
                    )
                if not pending or size >= cap:
                    break
            frame = DataFrame.of(seq, transport.pid, self.peer, tuple(entries))
            count = len(entries)
            written = (seq, encode_frame(frame, payloads), count)
            unacked.append(written)
            fresh.append(written)
            self.in_flight += count
            seq += 1
            if count > 1:
                registry.inc("cluster.transport.batches")
                registry.inc("cluster.transport.batched_frames", count)
                registry.gauge_max("cluster.transport.max_batch", count)
        self.next_seq = seq
        self._stamp_count = stamp_count
        registry.inc("cluster.transport.sent", sent)
        registry.gauge_max("cluster.transport.queue_depth", self.in_flight)
        self._write(wire, fresh)

    def _resend(self) -> None:
        """Go-back-n: write the whole window again, from the bytes that
        were written the first time."""
        self.transport.registry.inc(
            "cluster.transport.retransmits", self.in_flight
        )
        self._arm_backstop()
        self._write(self.wire, self.unacked)

    def _write(self, wire, frames) -> None:
        """Write window frames in order, one write per run of frames
        reaching ``batch_bytes`` and one for the rest.  A flush closes
        its frames at that cap, so it writes each frame alone; a resent
        window of small frames goes out in a few writes."""
        cap = self.transport.batch_bytes
        run, size = [], 0
        for _seq, data, _count in frames:
            run.append(data)
            size += len(data)
            if size >= cap:
                if wire.is_closing():
                    return
                wire.write(b"".join(run))
                run, size = [], 0
        if run and not wire.is_closing():
            wire.write(b"".join(run))

    def _arm_backstop(self) -> None:
        """Restart the no-progress clock, and the timer if it stopped."""
        self._progress_at = self._loop.time()
        if self._backstop is None:
            self._backstop = self._loop.call_later(
                self.transport.retransmit_interval, self._check_progress
            )

    def _check_progress(self) -> None:
        """Resend the window once it has been open ``retransmit_interval``
        seconds without an ack advancing it; otherwise wait out the rest.
        An empty window or a lost connection stops the timer (reconnect
        resends on its own)."""
        self._backstop = None
        wire = self.wire
        if not self.unacked or wire is None or wire.is_closing():
            return
        wait = self._progress_at + self.transport.retransmit_interval
        if self._loop.time() < wait:
            self._backstop = self._loop.call_at(wait, self._check_progress)
            return
        self._resend()
        self._flush()


class Transport:
    """The node-side connection manager: one mesh endpoint.

    Built inside the running event loop: its links' timers and its
    enqueue stamps read that loop's clock.

    Args:
        pid: this node's process id (the identity its handshakes claim).
        n: cluster size; handshakes from peers of a different-shaped
            cluster are rejected.
        registry: the :class:`~repro.obs.metrics.MetricsRegistry`
            receiving send/recv/reconnect/queue-depth metrics (the
            mesh's; a fresh private one when omitted).
        tracer: optional :class:`~repro.obs.spans.SpanTracer` enabling
            causal tracing: outgoing envelopes are stamped with the
            trace extension, stamped ones emit send/recv events with
            span ids and HLC timestamps through the tracer's writer
            (which also records reconnects), and inbound deliveries
            carry their enqueue time for the node's queue-wait
            accounting.  ``None`` (the default) keeps the untraced hot
            path allocation-free.
        seed: seed for the backoff-jitter RNG (deterministic tests).
        backoff_base / backoff_cap: reconnect backoff curve parameters.
        retransmit_interval: seconds a link's window may stay open
            without an ack advancing it before the whole window is
            resent (in writes of about ``batch_bytes``).
        batch_bytes: soft cap on one data frame; a flush adds queued
            envelopes to a frame until their encoded size reaches this
            (``0`` puts every envelope in a frame of its own).
        trace_sample: with a tracer, stamp-and-span one outgoing
            envelope in this many per link (``1`` = every message).  Sampling
            only thins send/recv spans; every delivery still carries
            its enqueue instant, so segment decomposition stays exact.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        registry: Optional[MetricsRegistry] = None,
        tracer: Any = None,
        seed: Optional[int] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retransmit_interval: float = 0.5,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
    ) -> None:
        if not 0 <= pid < n:
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        if batch_bytes < 0:
            raise ConfigurationError(
                f"batch_bytes must be >= 0, got {batch_bytes}"
            )
        if trace_sample < 1:
            raise ConfigurationError(
                f"trace_sample must be >= 1, got {trace_sample}"
            )
        self.pid = pid
        self.n = n
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retransmit_interval = retransmit_interval
        self.batch_bytes = batch_bytes
        self.trace_sample = trace_sample
        #: The running loop: every timer and timestamp of this endpoint
        #: and its links reads it (DESIGN.md §10).
        self._loop = asyncio.get_running_loop()
        #: Delivered ``(instance, envelope)`` pairs, sender-authenticated,
        #: exactly once, in per-link order.  The node actor consumes this
        #: inbox and demultiplexes on the instance id.
        self.inbound = Inbox()
        self._links: dict[int, _PeerLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: Go-back-n receive cursor per peer pid; persists across that
        #: peer's reconnects, which is what makes dedup work.
        self._rx_expected: dict[int, int] = {}
        self._inbound_connections: set[_Connection] = set()
        #: Where every connection of this transport, dialed or accepted,
        #: reads (see :class:`_Connection`).
        self._read_buffer = memoryview(bytearray(READ_BUFFER_SIZE))
        #: One-entry payload-encode memo, keyed on *identity*: the n−1
        #: remote sends of one broadcast carry the same message object
        #: and share one encoding.  Holding the reference keeps its id
        #: from being reused; an equivocating sender's per-recipient
        #: payloads are distinct objects and miss.
        self._memo_payload: Any = _NO_PAYLOAD
        self._memo_bytes = b""
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Bind the accept socket; returns the (host, port) peers dial."""
        self._server = await self._loop.create_server(
            lambda: _Connection(
                self._on_inbound, self, self._inbound_connections
            ),
            host=host,
            port=port,
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect(self, peers: dict[int, tuple]) -> None:
        """Open one outbound link per remote peer (self excluded)."""
        for peer, addr in sorted(peers.items()):
            if peer == self.pid or peer in self._links:
                continue
            link = _PeerLink(self, peer, addr)
            self._links[peer] = link
            link.start()

    async def close(self) -> None:
        """Tear the mesh endpoint down (idempotent).

        Records the final per-link backlog as the
        ``cluster.transport.final_backlog`` gauge first: after a
        *graceful* shutdown (every node quiesced, all acks exchanged)
        it must be 0 — a non-zero value is a leaked queue entry or an
        unacknowledged frame, the bug class reconnect/retransmit code
        breeds.
        """
        if self._closed:
            return
        self._closed = True
        self.registry.gauge_max(
            "cluster.transport.final_backlog", self.backlog()
        )
        for link in self._links.values():
            await link.close()
        if self._server is not None:
            self._server.close()
            for connection in list(self._inbound_connections):
                await connection.shut()
            await self._server.wait_closed()

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, envelope: Envelope, instance: int = 0) -> None:
        """Queue one envelope for its recipient's link (non-blocking).

        The envelope's ``sender`` must be this node — the transport
        refuses to originate traffic on behalf of another identity.
        ``instance`` tags the frame for the receiver's demultiplexer.
        The payload is encoded here, not when the link gets round to
        writing it: the wire carries the message as of the atomic step
        that sent it.
        """
        if envelope.sender != self.pid:
            raise ConfigurationError(
                f"transport {self.pid} cannot send as {envelope.sender}"
            )
        link = self._links.get(envelope.recipient)
        if link is None:
            raise ConfigurationError(
                f"no link from {self.pid} to peer {envelope.recipient}"
            )
        payload = envelope.payload
        if payload is not self._memo_payload:
            self._memo_bytes = encode_payload_bytes(payload)
            self._memo_payload = payload
        link.send(instance, envelope, self._memo_bytes)

    def backlog(self) -> int:
        """Total envelopes queued or unacknowledged across all links."""
        return sum(link.backlog for link in self._links.values())

    # ------------------------------------------------------------------ #
    # Accepting
    # ------------------------------------------------------------------ #

    def _on_inbound(self, connection: _Connection, frames) -> None:
        """A peer link's data: deliver in order, then send one cumulative
        ack per read chunk that carried data, however many frames it
        held — the sender's clock ticks once per round trip."""
        # One enqueue timestamp per chunk, not per frame: every envelope
        # in the chunk *arrived* at the same instant, so sharing the read
        # is both cheaper and the more accurate queue-wait boundary
        # (decode time is the node's, not the network's).
        enqueued_at = (
            self._loop.time() if self.tracer is not None else NO_ENQUEUE_TS
        )
        peer = connection.peer
        delivered = 0
        carried_data = False
        for frame in frames:
            if peer is None:
                peer = connection.peer = self._handshake(frame)
            elif isinstance(frame, DataFrame):
                delivered += self._receive_data(peer, frame, enqueued_at)
                carried_data = True
            elif isinstance(frame, ByeFrame):
                connection.wire.close()
                return
            # Acks never arrive on accepted connections; ignore.
        if carried_data:
            self.registry.inc("cluster.transport.received", delivered)
            acked = self._rx_expected.get(peer, 0) - 1
            connection.wire.write(encode_frame(AckFrame(acked=acked)))

    def _handshake(self, frame) -> int:
        """Validate the connection's first frame; returns the peer pid."""
        if not isinstance(frame, HelloFrame):
            raise CodecError(
                f"connection opened with {type(frame).__name__}, "
                "expected HelloFrame"
            )
        if frame.encoding != WIRE_ENCODING:
            raise CodecError(
                f"peer encodes bodies as {frame.encoding!r}, this node "
                f"speaks {WIRE_ENCODING!r}"
            )
        if frame.n != self.n:
            raise CodecError(
                f"peer believes the cluster has n={frame.n} nodes, "
                f"this node was configured with n={self.n}"
            )
        if not 0 <= frame.pid < self.n or frame.pid == self.pid:
            raise CodecError(f"handshake claims invalid pid {frame.pid}")
        return frame.pid

    def _receive_data(
        self, peer: int, frame: DataFrame, enqueued_at: float
    ) -> int:
        """Deliver every envelope of one in-order frame (returns how
        many), or count them as duplicates or a gap (returns 0)."""
        expected = self._rx_expected.get(peer, 0)
        entries = frame.entries
        if frame.link_seq == expected:
            self._rx_expected[peer] = expected + 1
            pid = self.pid
            put = self.inbound.put
            tracer = self.tracer
            for instance, payload, trace in entries:
                # Transport-level authentication: the sender is the
                # *handshaken* peer id, whatever the wire said.  The
                # enqueue is the "node-enqueue" segment boundary (see
                # NO_ENQUEUE_TS for untraced deliveries).
                put((instance, Envelope(peer, pid, payload), enqueued_at))
                if tracer is not None and trace is not None:
                    # Only stamped envelopes merge the sender's HLC and
                    # emit a recv span (send-span sampling's other half).
                    fields = {
                        "pid": pid,
                        "peer": peer,
                        "instance": instance,
                        "payload": payload,
                    }
                    tracer.extend_causal(fields, instance, trace)
                    tracer.writer.record_fields("recv", fields)
            return len(entries)
        if frame.link_seq < expected:
            self.registry.inc("cluster.transport.duplicates", len(entries))
        else:
            # A gap: some earlier frame was dropped in flight.  Go-back-n
            # discards everything until the retransmission arrives.
            self.registry.inc("cluster.transport.gaps", len(entries))
        return 0

