"""repro — a reproduction of Bracha & Toueg, *Resilient Consensus
Protocols* (PODC 1983).

The package implements, from scratch:

* the paper's asynchronous system model — authenticated reliable message
  buffers, atomic receive/compute/send steps, scheduler-resolved
  nondeterminism (:mod:`repro.net`, :mod:`repro.sim`, :mod:`repro.procs`);
* the ⌊(n−1)/2⌋-resilient fail-stop protocol of Figure 1, the
  ⌊(n−1)/3⌋-resilient malicious protocol of Figure 2 (with its exit
  device), and the Section 4.1 simple-majority variant
  (:mod:`repro.core`);
* fault injection: crash plans and Byzantine strategies including the
  Section 4 balancing adversary (:mod:`repro.faults`);
* the Ben-Or baseline the paper compares against
  (:mod:`repro.baselines`), and Bracha reliable broadcast as the
  follow-on extension (:mod:`repro.broadcast`);
* the Section 4 Markov-chain performance analysis, exact and closed
  form (:mod:`repro.analysis`; it and :mod:`repro.sim.lockstep` are
  all that loads numpy and scipy, so neither is re-exported here);
* executable forms of the Theorem 1/Theorem 3 impossibility
  constructions and a bounded exhaustive schedule explorer for Lemma 2
  (:mod:`repro.lowerbounds`);
* an experiment harness regenerating every quantitative claim of the
  paper (:mod:`repro.harness`, driven by ``benchmarks/``);
* a networked runtime executing the same protocol state machines over
  real loopback TCP — authenticated go-back-n transport, chaos proxy,
  live safety oracles (:mod:`repro.cluster`, not re-exported here
  either, so ``import repro`` loads neither asyncio nor sockets).

Quickstart::

    from repro import FailStopConsensus, Simulation

    n, k = 7, 3
    inputs = [0, 1, 0, 1, 1, 0, 1]
    processes = [FailStopConsensus(pid, n, k, inputs[pid]) for pid in range(n)]
    result = Simulation(processes, seed=42).run()
    assert result.agreement_holds
    print(result.consensus_value, result.summary())
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    InvariantViolation,
    DecisionOverwriteError,
    AgreementViolation,
    SimulationLimitError,
)
from repro.sim import Simulation, RunResult, HaltReason
from repro.net import (
    MessageSystem,
    RandomScheduler,
    FifoScheduler,
    ScriptedScheduler,
    BalancingDelayScheduler,
)
from repro.procs import Process, Send, DecisionRegister
from repro.core import (
    FailStopConsensus,
    MaliciousConsensus,
    SimpleMajorityConsensus,
    max_failstop_resilience,
    max_malicious_resilience,
)
from repro.baselines import BenOrConsensus
from repro.broadcast import ReliableBroadcastProcess
from repro.faults import (
    CrashableProcess,
    SilentByzantine,
    BalancingEchoByzantine,
    EquivocatingEchoByzantine,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "InvariantViolation",
    "DecisionOverwriteError",
    "AgreementViolation",
    "SimulationLimitError",
    "Simulation",
    "RunResult",
    "HaltReason",
    "MessageSystem",
    "RandomScheduler",
    "FifoScheduler",
    "ScriptedScheduler",
    "BalancingDelayScheduler",
    "Process",
    "Send",
    "DecisionRegister",
    "FailStopConsensus",
    "MaliciousConsensus",
    "SimpleMajorityConsensus",
    "max_failstop_resilience",
    "max_malicious_resilience",
    "BenOrConsensus",
    "ReliableBroadcastProcess",
    "CrashableProcess",
    "SilentByzantine",
    "BalancingEchoByzantine",
    "EquivocatingEchoByzantine",
    "__version__",
]
