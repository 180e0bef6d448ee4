"""Transport-level envelopes.

The paper distinguishes between what a process *says* (the payload, which a
malicious process may forge arbitrarily) and *who said it* (the transport
sender, which the message system authenticates — Section 3.1: "the message
system must provide a way for correct processes to verify the identity of
the sender of each message").

:class:`Envelope` models exactly that split.  The ``sender`` field is set
by :class:`repro.net.system.MessageSystem` from the identity of the process
performing the ``send`` and can therefore never be forged, while
``payload`` is whatever object the sending process chose — protocols must
treat it as untrusted when Byzantine processes are in play.

An envelope is a tuple record: one allocation per message on the
simulator's send path, immutable (assigning a field raises
``AttributeError``), and equal and hashed by its four fields.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from typing import Any, Optional

_envelope_counter = count()
_tuple_new = tuple.__new__


class Envelope(namedtuple("Envelope", "sender recipient payload seq")):
    """One message in flight: authenticated sender, recipient, payload.

    Attributes:
        sender: process id of the (authenticated) transport sender.
        recipient: process id the envelope was addressed to.
        payload: protocol-defined message body; untrusted content.
        seq: globally unique sequence number, assigned at send time.
            Used only for tracing and deterministic tie-breaking — the
            message system itself is unordered.
    """

    __slots__ = ()

    def __new__(
        cls, sender: int, recipient: int, payload: Any, seq: Optional[int] = None
    ) -> "Envelope":
        if seq is None:
            seq = next(_envelope_counter)
        return _tuple_new(cls, (sender, recipient, payload, seq))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Envelope(#{self.seq} {self.sender}->{self.recipient} "
            f"{self.payload!r})"
        )


def reset_envelope_sequence() -> None:
    """Reset the global envelope sequence counter (test isolation helper).

    Sequence numbers only need to be unique within one simulation; tests
    that assert on specific ``seq`` values call this first.
    """
    global _envelope_counter
    _envelope_counter = count()
