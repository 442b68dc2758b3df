"""Fault tolerance for the experiment pipeline.

Two halves, used together by :mod:`repro.experiments.parallel` and
:mod:`repro.experiments.manifest`:

* :mod:`repro.reliability.policy` — :class:`RetryPolicy`: how many times
  a work unit is attempted, how long each attempt may run, and the
  deterministic exponential-backoff-with-jitter schedule between
  attempts.
* :mod:`repro.reliability.faults` — a deterministic, seedable
  fault-injection harness driven by the process settings' fault spec
  (``CNVLUTIN_FAULTS``; see :mod:`repro.settings`).  Production code
  calls :meth:`FaultInjector.fire` at named *sites* (``unit:fig9/nin``,
  ``cache:read``, ``pool:worker``); with no
  spec configured those calls are no-ops, and under a spec they raise,
  crash, delay, or corrupt on chosen trial indices so the chaos test
  suite can prove the pipeline converges anyway.  A spec naming a site
  the program never fires is rejected when parsed.

A third half-sibling, :mod:`repro.reliability.integrity`, defends
against faults that *don't* crash anything: ABFT checksums over the
forward pass's conv GEMMs and FC matvecs (:mod:`repro.nn.sparse`)
under the process settings' integrity policy (``CNVLUTIN_INTEGRITY``),
the detection side of the serving tier's silent-data-corruption loop
(detect → quarantine → republish → respawn).
"""

from repro.reliability.faults import (
    FaultAction,
    FaultInjector,
    FaultRule,
    InjectedFault,
    parse_faults,
)
from repro.reliability.integrity import IntegrityError
from repro.reliability.policy import RespawnPolicy, RetryPolicy

__all__ = [
    "RetryPolicy",
    "RespawnPolicy",
    "FaultAction",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "IntegrityError",
    "parse_faults",
]
