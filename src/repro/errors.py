"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Invariant violations get their own subclass
because they indicate that a *proved property of the paper's protocols* was
observed to fail at runtime — either a bug in the implementation or a
deliberately out-of-bounds experiment (e.g. the lower-bound scenarios, which
run protocols with more faults than their resilience supports).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A simulation or protocol was configured with inconsistent parameters.

    Examples: a resilience parameter ``k`` outside the protocol's proven
    bound (unless explicitly allowed), more faulty processes than ``k``,
    or a scheduler wired to a different process count than the system.
    """


class InvariantViolation(ReproError):
    """A property the paper proves always holds was observed to fail.

    The protocols raise this eagerly (e.g. witnesses observed for both
    values in the same phase of the fail-stop protocol) so that any
    implementation bug surfaces as a loud failure rather than a silently
    wrong decision.
    """


class DecisionOverwriteError(InvariantViolation):
    """An attempt was made to change a decision register after it was set.

    The paper's model states: "Once ``d_p`` is assigned a value ``v``, it
    can not be changed."  The write-once register enforces this.
    """


class AgreementViolation(InvariantViolation):
    """Two correct processes decided different values.

    Raised by run-result validation helpers.  The lower-bound scenarios in
    :mod:`repro.lowerbounds` intentionally construct runs that trigger this
    (with resilience bounds exceeded) and report it instead of raising.
    """


class SimulationLimitError(ReproError):
    """A simulation exceeded its step budget without reaching its goal."""
