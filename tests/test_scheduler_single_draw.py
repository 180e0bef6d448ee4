"""One ``RandomScheduler.choose`` call against the reference's, draw for draw.

``test_scheduler_equivalence.py`` compares whole runs; here a single pick
on a hand-made system must return the same ``(pid, envelope)`` as
:class:`~tests.reference_schedulers.ReferenceRandomScheduler` and leave the RNG
in the same state — over dead pids holding mail, live pids with nothing
to receive, and every shape of ``alive`` the signature accepts.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.schedulers import RandomScheduler
from repro.net.system import AliveView, MessageSystem
from tests.reference_schedulers import ReferenceRandomScheduler


def _system(buffer_sizes):
    system = MessageSystem(len(buffer_sizes))
    for recipient, size in enumerate(buffer_sizes):
        for index in range(size):
            system.send(index % system.n, recipient, (recipient, index))
    return system


def _contents(system):
    return [
        [(env.sender, env.payload) for env in buffer]
        for buffer in system.snapshot().values()
    ]


def _alive_as(kind, order):
    """``order`` (distinct pids) in the container named ``kind``."""
    if kind == "view":
        return AliveView(order)
    if kind == "list":
        return list(order)
    if kind == "set":
        return set(order)
    return (pid for pid in order)


@st.composite
def single_draws(draw):
    n = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    live = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return sizes, draw(st.permutations(live))


@settings(max_examples=300, deadline=None)
@given(
    single_draws(),
    st.sampled_from(["view", "list", "set", "generator"]),
    st.sampled_from([0.0, 0.3]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_same_pick_and_same_rng_state(case, kind, phi, weighted, seed):
    sizes, order = case
    picks = []
    for scheduler_class in (RandomScheduler, ReferenceRandomScheduler):
        system = _system(sizes)
        rng = random.Random(seed)
        scheduler = scheduler_class(phi_probability=phi, weight_by_buffer=weighted)
        # Two picks, so the first one's buffer mutation is compared too.
        for _ in range(2):
            decision = scheduler.choose(system, _alive_as(kind, order), rng)
            if decision is not None and decision[1] is not None:
                decision = decision[0], decision[1].sender, decision[1].payload
            picks.append(decision)
        picks.append((rng.getstate(), _contents(system)))
    assert picks[:3] == picks[3:]


class _TopOfRange(random.Random):
    """First ``random()`` is 1.0: what ``random() * total`` may round up to."""

    def __init__(self, seed):
        super().__init__(seed)
        self.first = True

    def random(self):
        if self.first:
            self.first = False
            return 1.0
        return super().random()


def test_draw_landing_on_the_total_goes_to_the_last_candidate():
    # pid 2 is the last live pid with mail: 3 is live but empty, 4 holds
    # mail but is dead.
    sizes, live = [2, 0, 3, 0, 4], [0, 1, 2, 3]
    picks = []
    for scheduler_class in (RandomScheduler, ReferenceRandomScheduler):
        system = _system(sizes)
        rng = _TopOfRange(5)
        pid, envelope = scheduler_class().choose(system, AliveView(live), rng)
        picks.append((pid, envelope.payload, rng.getstate()))
    assert picks[0] == picks[1]
    assert picks[0][0] == 2
