"""Frame-aware TCP chaos proxy: adversarial delivery for live clusters.

The simulator expresses the paper's adversary through schedulers
(fair-views delays, withholding by predicate).  On a real network
the same power lives in the transport path, so the cluster driver can
interpose one :class:`ChaosProxy` in front of each node: every inbound
connection to that node flows through the proxy, which parses the wire
framing (:mod:`repro.cluster.codec`) and applies a seeded schedule of

* **delay** — each data frame (one transport write, however many
  envelopes it carries) waits a uniform draw from
  ``[delay_min, delay_max]`` before forwarding.  Delays are applied
  in-line, so per-link FIFO order is preserved (a slow link, not a
  reordering one — TCP semantics).
* **drop** — each data frame is discarded, all its envelopes at once,
  with probability ``drop_rate``.  That is one gap for the transport's
  go-back-n layer, which retransmits, so drops cost latency, never
  safety: exactly the paper's reliable-but-slow message system.
* **reset** — after every ``reset_every`` forwarded data frames the
  proxy kills the connection, exercising the transport's
  reconnect/backoff/retransmit machinery.

Only data frames are delayed or dropped.  Hello and bye frames pass
through undelayed, and acks flow back raw in the node→client direction —
losing them would also be survivable, but keeping them clean makes drop
metrics attribute cleanly to protocol traffic.

All randomness comes from one ``random.Random(seed)`` per proxy, so a
chaos schedule is reproducible run to run (modulo wall-clock timing).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster.codec import KIND_DATA, FrameReader
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class ChaosConfig:
    """One proxy's misbehaviour schedule.

    Attributes:
        delay_min / delay_max: per-frame forwarding delay bounds
            (seconds).
        drop_rate: probability of discarding a data frame.
        reset_every: kill the connection after this many forwarded data
            frames (None = never).
        reset_grace: seconds the reverse (ack) direction keeps flowing
            after a reset triggers, before the connection dies.  An
            instant bidirectional kill synchronised with the data stream
            could censor acks forever, permanently stalling go-back-n —
            an adversary stronger than the paper's reliable-but-slow
            message system allows.
        seed: RNG seed for delay draws and drop decisions.
    """

    delay_min: float = 0.0
    delay_max: float = 0.0
    drop_rate: float = 0.0
    reset_every: Optional[int] = None
    reset_grace: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ConfigurationError(
                f"need 0 <= delay_min <= delay_max, got "
                f"[{self.delay_min}, {self.delay_max}]"
            )
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigurationError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.reset_every is not None and self.reset_every < 1:
            raise ConfigurationError(
                f"reset_every must be >= 1, got {self.reset_every}"
            )
        if self.reset_grace < 0:
            raise ConfigurationError(
                f"reset_grace must be >= 0, got {self.reset_grace}"
            )

    @property
    def active(self) -> bool:
        """True if this config perturbs anything at all."""
        return bool(
            self.delay_max > 0
            or self.drop_rate > 0
            or self.reset_every is not None
        )


class ChaosProxy:
    """A man-in-the-middle listener fronting one node's accept socket.

    Args:
        target: ``(host, port)`` of the real node server.
        config: the misbehaviour schedule.
        registry: the metrics registry
            (``cluster.chaos.delayed/dropped/resets``) — the mesh's; a
            fresh private one when omitted.
        label: identifier stamped on trace events (usually the fronted
            node's pid).
        tracer: optional :class:`repro.obs.spans.SpanTracer` — the
            fronted node's; when set, chaos events go to its writer
            carrying an ``hlc`` timestamp, so the report analyzer can
            place them on the cluster-wide causal timeline alongside
            node spans.

    Chaos events are recorded through ``trace``, the tracer's writer
    (``None`` untraced).
    """

    def __init__(
        self,
        target: tuple,
        config: ChaosConfig,
        registry: Optional[MetricsRegistry] = None,
        label: Any = None,
        tracer: Any = None,
    ) -> None:
        self.target = target
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.label = label
        self.tracer = tracer
        self.trace = tracer.writer if tracer is not None else None
        self.rng = random.Random(config.seed)
        self._server: Optional[asyncio.AbstractServer] = None
        self._pumps: set[asyncio.Task] = set()
        self._closed = False

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Bind the proxy listener; returns the (host, port) peers dial."""
        self._server = await asyncio.start_server(
            self._accept, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop listening and cancel every in-flight pump (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._pumps):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # ------------------------------------------------------------------ #
    # Forwarding
    # ------------------------------------------------------------------ #

    async def _accept(self, client_reader, client_writer) -> None:
        task = asyncio.current_task()
        self._pumps.add(task)
        upstream_writer = None
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *self.target
            )
            back = asyncio.get_running_loop().create_task(
                self._pump_raw(upstream_reader, client_writer)
            )
            self._pumps.add(back)
            try:
                await self._pump_frames(client_reader, upstream_writer)
            finally:
                back.cancel()
                try:
                    await back
                except (asyncio.CancelledError, Exception):
                    pass
                self._pumps.discard(back)
        except (OSError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._pumps.discard(task)
            for writer in (client_writer, upstream_writer):
                if writer is None:
                    continue
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError, asyncio.CancelledError):
                    pass  # never end cancelled: asyncio would log it

    async def _pump_frames(self, reader, writer) -> None:
        """Client→node direction: frame-aware, with the chaos policy."""
        config = self.config
        frames = FrameReader(raw=True)
        forwarded_data = 0
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            frames.feed(chunk)
            for kind, frame_bytes in frames.frames():
                if kind == KIND_DATA:
                    if self.rng.random() < config.drop_rate:
                        self.registry.inc("cluster.chaos.dropped")
                        self._trace_event("chaos-drop")
                        continue
                    if config.delay_max > 0:
                        pause = self.rng.uniform(
                            config.delay_min, config.delay_max
                        )
                        await asyncio.sleep(pause)
                        self.registry.inc("cluster.chaos.delayed")
                        self._trace_event(
                            "chaos-delay", delay_ms=round(pause * 1000.0, 3)
                        )
                    forwarded_data += 1
                writer.write(frame_bytes)
                await writer.drain()
                if (
                    kind == KIND_DATA
                    and config.reset_every is not None
                    and forwarded_data % config.reset_every == 0
                ):
                    self.registry.inc("cluster.chaos.resets")
                    self._trace_event("chaos-reset")
                    # Let the ack direction drain before the kill (see
                    # ChaosConfig.reset_grace).
                    await asyncio.sleep(config.reset_grace)
                    return  # closing the pump resets the connection

    async def _pump_raw(self, reader, writer) -> None:
        """Node→client direction (acks): byte passthrough, no policy."""
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            writer.write(chunk)
            await writer.drain()

    # ------------------------------------------------------------------ #
    # Observability plumbing
    # ------------------------------------------------------------------ #

    def _trace_event(self, event: str, **fields: Any) -> None:
        if self.trace is None:
            return
        if self.tracer is not None:
            fields["hlc"] = list(self.tracer.hlc.tick())
        self.trace.record(event, node=self.label, **fields)
