"""Timing wrappers around the program's public entry points.

The traced run of a workload installs these wrappers, runs, and removes
them again; nothing under ``src/`` changes.  Each wrapper records one
span per call — name, start, end, parent, and an identifier shared by
the spans of one request (SMR slot / consensus instance in the cluster,
run or plan number in the simulator) — and keeps exact per-name totals:

    calls, total time, self time (total minus the time child spans cover)

Every wrapped entry point is synchronous, so one span stack is correct
even on the event loop: a wrapper can only be re-entered by a callee,
never by another task.  The totals are exact over the whole traced
window; the span list is capped (``span_cap``) because a simulator
workload takes ~10⁶ steps and three spans each would not fit in memory.
"""

from __future__ import annotations

import json
import selectors
import sys
from time import perf_counter_ns

from repro.check.oracles import OracleSuite
from repro.cluster import chaos as chaos_module
from repro.cluster import codec as codec_module
from repro.cluster.codec import DataFrame, FrameReader
from repro.cluster.node import ClusterNode
from repro.cluster.smr import KVStateMachine, SMRCluster, SMRNode
from repro.cluster.transport import Transport
from repro.faults.plans import FaultPlan
from repro.net.schedulers import Scheduler
from repro.net.system import MessageSystem
from repro.procs.base import Process
from repro.sim.kernel import Simulation

#: Span-name prefix → layer, first match wins.  The layers are the
#: repository's own packages; ``check`` also carries the fault-plan and
#: crash/Byzantine wrappers the fuzzer drives (ISSUE groups them).
LAYER_PREFIXES = (
    ("sim.kernel.", "sim.kernel"),
    ("net.", "net"),
    ("core.", "core"),
    ("check.", "check"),
    ("faults.", "check"),
    ("codec.", "codec"),
    ("transport.", "transport"),
    ("node.", "node"),
    ("smr.", "smr"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES))


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to."""
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    raise KeyError(span_name)


class Tracer:
    """In-memory span store plus exact per-name totals."""

    def __init__(self, span_cap: int = 100_000) -> None:
        #: name → [calls, total_ns, self_ns]
        self.cells: dict[str, list] = {}
        self.names: list[str] = []
        #: (span id, parent id or -1, name index, start_ns, end_ns, ident)
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        #: Identifier for spans whose call carries none (simulator run /
        #: fuzz plan number, set by the workload).
        self.ident = None
        self.next_id = 0
        self._stack: list[list] = []

    def cell(self, name: str) -> list:
        """The ``[calls, total_ns, self_ns]`` cell of one span name."""
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = [0, 0, 0]
            self.names.append(name)
        return cell

    def calls(self, name: str) -> int:
        return self.cells.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.cells.get(name, (0, 0, 0))[1]

    def mean_ns(self, name: str) -> float:
        """Mean span duration in ns (0 when the entry point never ran)."""
        calls, total, _ = self.cells.get(name, (0, 0, 0))
        return total / calls if calls else 0.0

    def self_ns_by_layer(self) -> dict[str, int]:
        """Self time summed per layer; the values tile the traced busy
        time covered by any span without overlap."""
        out = dict.fromkeys(LAYERS, 0)
        for name, (_, _, self_ns) in self.cells.items():
            out[layer_of(name)] += self_ns
        return out

    def wrap(self, name: str, fn, ident_of=None):
        """``fn`` timed as span ``name``.  ``ident_of(args, kwargs,
        result)`` extracts the request identifier; without it the
        tracer's current :attr:`ident` is recorded."""
        cell = self.cell(name)
        index = self.names.index(name)
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        clock = perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                cell[0] += 1
                cell[1] += took
                cell[2] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if len(spans) < cap:
                    spans.append(
                        (
                            span_id,
                            parent[1] if parent is not None else -1,
                            index,
                            start,
                            end,
                            ident_of(args, kwargs, result)
                            if ident_of is not None
                            else tracer.ident,
                        )
                    )

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function timed per ``next()``: each resumption is
        one span, so code the consumer runs between items (and any await)
        is never charged to the generator."""

        def resume(iterator):
            return next(iterator, _DONE)

        timed_resume = self.wrap(name, resume)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                item = timed_resume(iterator)
                if item is _DONE:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str, extra: dict) -> None:
        """Dump names, totals and the retained spans as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                {
                    **extra,
                    "span_fields": [
                        "id", "parent", "name", "start_ns", "end_ns", "ident",
                    ],
                    "names": self.names,
                    "totals": {
                        name: {
                            "calls": cell[0],
                            "total_ns": cell[1],
                            "self_ns": cell[2],
                        }
                        for name, cell in self.cells.items()
                    },
                    "spans_recorded": len(self.spans),
                    "spans_total": self.next_id,
                    "spans": self.spans,
                },
                handle,
            )


_DONE = object()


class TimingSelector(selectors.DefaultSelector):
    """Selector that accounts the event loop's idle time.

    A ``select`` with a non-zero timeout is the loop waiting for work;
    one with timeout 0 is a poll between ready callbacks and counts as
    busy.  Handed to ``asyncio.SelectorEventLoop`` by the traced run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.idle_ns = 0

    def select(self, timeout=None):
        if timeout is not None and timeout <= 0:
            return super().select(timeout)
        start = perf_counter_ns()
        try:
            return super().select(timeout)
        finally:
            self.idle_ns += perf_counter_ns() - start


class ChaosDelayLog:
    """Stand-in for the trace writer a ``ChaosProxy`` accepts: keeps the
    injected delays so their mean can be checked against the stated
    range.  The proxy only calls ``record(event, **fields)``."""

    def __init__(self) -> None:
        self.delays_ms: list[float] = []

    def record(self, event: str, **fields) -> None:
        if event == "chaos-delay":
            self.delays_ms.append(fields["delay_ms"])


class CodecCounts:
    """Frames and bytes seen by the codec wrappers, by frame class."""

    def __init__(self) -> None:
        self.encoded: dict[str, list] = {}  # class name → [frames, bytes]
        #: Frames out of decoding readers, a batch counted by its content.
        self.decoded_frames = 0

    def note_encode(self, frame, data: bytes) -> None:
        entry = self.encoded.setdefault(type(frame).__name__, [0, 0])
        entry[0] += 1
        entry[1] += len(data)

    def frames(self, kind: str) -> int:
        return self.encoded.get(kind, (0, 0))[0]

    def bytes(self, kind: str) -> int:
        return self.encoded.get(kind, (0, 0))[1]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _step_span_name(cls) -> str:
    """``repro.core.malicious.MaliciousConsensus`` → ``core.malicious.step``."""
    module = cls.__module__
    if module.startswith("repro."):
        module = module[len("repro."):]
    if module.split(".")[0] not in ("core", "faults"):
        # Baselines, broadcast and lower-bound strawmen are protocol cores
        # too; none of them runs in a benchmark workload today.
        module = "core." + module
    return module + ".step"


class Installed:
    """The patches currently in place; :meth:`remove` undoes them all.

    Construction installs only the chaos delay log — a passive observer
    that has to be in place before the cluster builds its proxies.
    :meth:`install_wrappers` adds the timing wrappers when the traced
    window opens.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.codec = CodecCounts()
        self.chaos = ChaosDelayLog()
        self._undo: list[tuple] = []
        # The proxy's constructor takes an optional trace writer; hand it
        # one that keeps the injected delays (SMRCluster passes None
        # unless a trace directory is configured, which the suite never
        # does).
        chaos_log = self.chaos
        original_init = chaos_module.ChaosProxy.__dict__["__init__"]

        def proxy_init(proxy, *args, **kwargs):
            original_init(proxy, *args, **kwargs)
            if proxy.trace is None:
                proxy.trace = chaos_log

        self._patch(chaos_module.ChaosProxy, "__init__", proxy_init)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, cls, attr: str, name: str, ident_of=None) -> None:
        self._patch(
            cls, attr, self.tracer.wrap(name, cls.__dict__[attr], ident_of)
        )

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install_wrappers(self) -> None:
        """Wrap the entry points of every layer."""
        tracer = self.tracer
        wrap = self._wrap

        # --- simulator side --------------------------------------------
        wrap(Simulation, "__init__", "sim.kernel.init")
        wrap(Simulation, "run", "sim.kernel.run")
        wrap(MessageSystem, "send", "net.system.send")
        for cls in set(_subclasses(Scheduler)):
            if "choose" in cls.__dict__:
                wrap(cls, "choose", "net.schedulers.choose")
        for cls in set(_subclasses(Process)):
            if "step" in cls.__dict__ and cls.__module__.startswith("repro."):
                wrap(cls, "step", _step_span_name(cls))
        wrap(OracleSuite, "attach", "check.oracles.attach")
        wrap(OracleSuite, "on_step", "check.oracles.on_step")
        wrap(
            OracleSuite,
            "note_invariant_exception",
            "check.oracles.note_invariant_exception",
        )
        wrap(FaultPlan, "build_processes", "faults.plans.build_processes")
        wrap(FaultPlan, "build_scheduler", "faults.plans.build_scheduler")

        # --- cluster side ----------------------------------------------
        counts = self.codec
        original_encode = codec_module.encode_frame

        def counting_encode(frame, *args, **kwargs):
            data = original_encode(frame, *args, **kwargs)
            counts.note_encode(frame, data)
            return data

        traced_encode = tracer.wrap(
            "codec.encode",
            counting_encode,
            lambda args, kwargs, result: (
                args[0].instance if isinstance(args[0], DataFrame) else None
            ),
        )
        # ``from codec import encode_frame`` copied the function into
        # every importing module's namespace; patch each copy.
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro.")
                and module.__dict__.get("encode_frame") is original_encode
            ):
                self._patch(module, "encode_frame", traced_encode)

        wrap(FrameReader, "feed", "codec.decode")
        original_frames = FrameReader.__dict__["frames"]
        decode_frames = tracer.wrap_generator("codec.decode", original_frames)
        split_frames = tracer.wrap_generator(
            "codec.split_raw", original_frames
        )

        def frames(reader):
            # Raw readers (the chaos proxy) only split on headers;
            # decoding readers (the transports) also parse bodies.
            if reader._raw:
                yield from split_frames(reader)
            else:
                for frame in decode_frames(reader):
                    counts.decoded_frames += len(getattr(frame, "frames", "1"))
                    yield frame

        self._patch(FrameReader, "frames", frames)

        def second_arg(args, kwargs, result):
            return args[1] if len(args) > 1 else None

        wrap(
            Transport,
            "send",
            "transport.send",
            lambda args, kwargs, result: (
                args[2] if len(args) > 2 else kwargs.get("instance", 0)
            ),
        )
        wrap(ClusterNode, "start_instance", "node.start_instance", second_arg)
        wrap(
            SMRCluster,
            "submit",
            "smr.submit",
            lambda args, kwargs, result: (
                result[0] if result is not None else None
            ),
        )
        wrap(KVStateMachine, "apply", "smr.apply", second_arg)
        wrap(SMRNode, "take_snapshot", "smr.snapshot", second_arg)
