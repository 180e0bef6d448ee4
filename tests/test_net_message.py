"""The two per-message records: :class:`Envelope` and :class:`Send`.

Both are tuple records.  They must stay immutable — the oracles read
``envelope.sender`` after the step that received it, so a process must
not be able to rewrite it — compare and hash by value, and survive a
pickle round trip, since campaign workers pickle their results.
"""

import pickle

import pytest

from repro.net.message import Envelope, reset_envelope_sequence
from repro.net.system import MessageSystem
from repro.procs.base import Send


def _records():
    return [Envelope(0, 1, ("echo", 1), seq=7), Send(2, ("initial", 0))]


class TestImmutable:
    @pytest.mark.parametrize("record", _records(), ids=["Envelope", "Send"])
    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 99)

    @pytest.mark.parametrize("record", _records(), ids=["Envelope", "Send"])
    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1


class TestValueSemantics:
    def test_envelope_equal_fields_equal_hash(self):
        a = Envelope(0, 1, "m", seq=3)
        b = Envelope(0, 1, "m", seq=3)
        assert a == b and hash(a) == hash(b)

    def test_envelope_differs_by_seq(self):
        assert Envelope(0, 1, "m", seq=3) != Envelope(0, 1, "m", seq=4)

    def test_send_equal_fields_equal_hash(self):
        assert Send(1, "m") == Send(recipient=1, payload="m")
        assert hash(Send(1, "m")) == hash(Send(1, "m"))
        assert Send(1, "m") != Send(2, "m")

    @pytest.mark.parametrize("record", _records(), ids=["Envelope", "Send"])
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is type(record)


class TestConstruction:
    def test_positional_keyword_and_explicit_seq(self):
        positional = Envelope(0, 1, "m", 5)
        keyword = Envelope(sender=0, recipient=1, payload="m", seq=5)
        assert positional == keyword
        assert Envelope(0, 1, "m", seq=0).seq == 0

    def test_seq_is_drawn_when_omitted(self):
        first = Envelope(0, 1, "m")
        second = Envelope(sender=0, recipient=1, payload="m")
        assert second.seq == first.seq + 1

    def test_reset_restarts_the_send_stamp(self):
        system = MessageSystem(2)
        system.send(0, 1, "a")
        system.send(0, 1, "b")
        reset_envelope_sequence()
        assert system.send(1, 0, "c").seq == 0
        assert system.send(1, 0, "d").seq == 1
