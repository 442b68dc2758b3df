"""Deterministic, seedable fault injection for the experiment pipeline.

The pipeline calls :meth:`FaultInjector.fire` at named *sites*; which
calls actually misbehave is controlled by the process settings' fault
spec (``CNVLUTIN_FAULTS``, validated by :mod:`repro.settings`), so the
chaos suite (and a CI job) can prove the retry/resume machinery
converges without touching production code paths.

Spec grammar (rules separated by ``;``)::

    CNVLUTIN_FAULTS = rule (";" rule)*
    rule            = site "=" action ("~" probability)? ("@" trials)?
    site            = "unit:" experiment "/" target   (both non-empty)
                    | "cache:read" | "cache:write" | "pool:worker"
                    | "serve:batch" | "shard:forward" | "shard:serve"
                    | "mem:weights" | "mem:activations"
    action          = "raise" | "crash" | "corrupt" | "delay:" seconds
    trials          = index ("," index)* | "*"

Examples::

    unit:fig9/nin=raise@0          first attempt of fig9 on nin raises
    pool:worker=crash@0            first chain any worker picks up dies
    cache:read=corrupt@1,3         2nd and 4th cache reads see a
                                   truncated object on disk
    unit:fig1/alex=delay:30@0      first attempt hangs for 30 s
    cache:read=raise~0.5@*         every read raises with probability .5
    shard:forward=raise@0          router's first forward to a shard
                                   fails, driving failover to a replica
    shard:serve=crash@5            the shard process serving the 6th
                                   sharded request hard-exits mid-run
    mem:weights=corrupt@3          the 4th sharded request flips one bit
                                   of the shared weight arena (a
                                   silent-data-corruption event every
                                   attached shard then computes on)
    mem:activations=corrupt@8      the 9th kernel call perturbs one
                                   element of its output before the
                                   ABFT checksum comparison sees it

Semantics:

* ``raise`` raises :class:`InjectedFault` at the site.
* ``crash`` hard-kills the current process via ``os._exit`` — the
  parent observes a ``BrokenProcessPool``, exactly like a segfaulting or
  OOM-killed worker.
* ``delay:<seconds>`` sleeps, which is how unit timeouts are exercised.
* ``corrupt`` is returned to the call site, which applies the damage
  itself: the artifact cache truncates the object file before reading
  it; ``mem:weights`` flips an exponent bit in the shared weight arena
  (:func:`repro.serve.shard._corrupt_arena`); ``mem:activations``
  perturbs one element of a kernel's output matrix in place
  (:mod:`repro.nn.sparse`) — each driving the real detect → quarantine
  → republish → respawn path end to end.
* ``@trials`` selects which *hits* of the site misbehave.  For ``unit:``
  sites the trial index is the unit's attempt number (so ``@0`` means
  "fail the first attempt, succeed on retry").  For ``cache:*`` and
  ``pool:worker`` sites it is a global hit counter; when
  ``CNVLUTIN_FAULT_STATE`` names a directory the counter is shared
  across processes through atomically-created marker files (required
  for multi-process runs — without it each worker counts from zero).
* ``~probability`` makes a rule fire with the given probability, decided
  deterministically from ``CNVLUTIN_FAULT_SEED`` and the (site, trial)
  coordinates — the same seed always injects the same faults.
* A site outside the grammar (a typo such as ``cache:reed``) is a parse
  error, not a rule that silently never fires.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import settings
from repro.reliability.policy import hash_fraction

__all__ = [
    "InjectedFault",
    "FaultAction",
    "FaultRule",
    "FaultInjector",
    "parse_faults",
]

_ACTIONS = ("raise", "crash", "corrupt", "delay")

#: The fixed sites the program fires (besides ``unit:<experiment>/<target>``).
SITES = (
    "cache:read",
    "cache:write",
    "pool:worker",
    "serve:batch",
    "shard:forward",
    "shard:serve",
    "mem:weights",
    "mem:activations",
)


class InjectedFault(RuntimeError):
    """The exception ``raise`` rules throw at their site."""


@dataclass(frozen=True)
class FaultAction:
    """What a rule does when it fires."""

    kind: str  # "raise" | "crash" | "corrupt" | "delay"
    seconds: float = 0.0  # delay only
    probability: float = 1.0


@dataclass(frozen=True)
class FaultRule:
    """One ``site=action@trials`` clause."""

    site: str
    action: FaultAction
    trials: frozenset[int] | None = frozenset({0})  # None = every trial

    def applies(self, trial: int) -> bool:
        return self.trials is None or trial in self.trials


def _parse_action(text: str, rule: str) -> FaultAction:
    probability = 1.0
    if "~" in text:
        text, _, prob_text = text.partition("~")
        try:
            probability = float(prob_text)
        except ValueError:
            raise ValueError(f"bad probability {prob_text!r} in fault rule {rule!r}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of [0,1] in fault rule {rule!r}")
    if text.startswith("delay:"):
        try:
            seconds = float(text[len("delay:"):])
        except ValueError:
            raise ValueError(f"bad delay in fault rule {rule!r}")
        if seconds < 0:
            raise ValueError(f"negative delay in fault rule {rule!r}")
        return FaultAction("delay", seconds=seconds, probability=probability)
    if text not in _ACTIONS or text == "delay":
        raise ValueError(
            f"unknown action {text!r} in fault rule {rule!r}; "
            f"choose from {_ACTIONS} (delay needs delay:<seconds>)"
        )
    return FaultAction(text, probability=probability)


def _parse_trials(text: str, rule: str) -> frozenset[int] | None:
    if text == "*":
        return None
    try:
        indices = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad trial list {text!r} in fault rule {rule!r}")
    if any(index < 0 for index in indices):
        raise ValueError(f"negative trial index in fault rule {rule!r}")
    return indices


def _check_site(site: str, rule: str) -> None:
    experiment, slash, target = site.removeprefix("unit:").partition("/")
    if site in SITES or (site.startswith("unit:") and slash and experiment and target):
        return
    raise ValueError(
        f"unknown site {site!r} in fault rule {rule!r}; choose from "
        f"{SITES} or unit:<experiment>/<target>"
    )


def parse_faults(spec: str) -> list[FaultRule]:
    """Parse a ``CNVLUTIN_FAULTS`` spec; raises ValueError on bad grammar."""
    rules: list[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"fault rule {clause!r} is missing '=action'")
        site, _, rest = clause.partition("=")
        site = site.strip()
        if not site:
            raise ValueError(f"fault rule {clause!r} has an empty site")
        _check_site(site, clause)
        rest = rest.strip()
        trials: frozenset[int] | None = frozenset({0})
        if "@" in rest:
            rest, _, trial_text = rest.partition("@")
            trials = _parse_trials(trial_text.strip(), clause)
        action = _parse_action(rest.strip(), clause)
        rules.append(FaultRule(site=site, action=action, trials=trials))
    return rules


@dataclass
class FaultInjector:
    """Evaluates fault rules at call sites; a no-op when no rules exist.

    Trial counting: each site with at least one rule gets its own
    monotonically increasing hit counter.  With ``state_dir`` set the
    counter is shared across processes (each hit atomically claims the
    next ``<site>.<n>`` marker file via ``O_CREAT|O_EXCL``); otherwise it
    is process-local.  Sites whose caller knows the trial index already
    (unit attempts) pass it explicitly and skip the counter.
    """

    rules: list[FaultRule] = field(default_factory=list)
    state_dir: Path | None = None
    seed: int = 0
    _local_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_settings(cls) -> "FaultInjector":
        """An injector for the process settings' fault knobs."""
        config = settings.current()
        return cls(parse_faults(config.faults), config.fault_state, config.fault_seed)

    @property
    def enabled(self) -> bool:
        return bool(self.rules)

    def _site_rules(self, site: str) -> list[FaultRule]:
        return [rule for rule in self.rules if rule.site == site]

    def _claim_trial(self, site: str) -> int:
        """The 0-based index of this hit of ``site``."""
        if self.state_dir is None:
            trial = self._local_counts.get(site, 0)
            self._local_counts[site] = trial + 1
            return trial
        slug = site.replace("/", "_").replace(":", "_")
        self.state_dir.mkdir(parents=True, exist_ok=True)
        trial = 0
        while True:
            marker = self.state_dir / f"{slug}.{trial}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                trial += 1
                continue
            os.close(fd)
            return trial

    def fire(self, site: str, trial: int | None = None) -> str | None:
        """Evaluate ``site``; misbehave if a rule matches.

        Returns the action kind that fired for actions the *call site*
        must apply (``corrupt``), ``None`` otherwise.  ``raise`` raises
        :class:`InjectedFault`, ``crash`` exits the process, ``delay``
        sleeps then returns ``"delay"``.
        """
        if not self.rules:
            return None
        matching = self._site_rules(site)
        if not matching:
            return None
        if trial is None:
            trial = self._claim_trial(site)
        for rule in matching:
            if not rule.applies(trial):
                continue
            action = rule.action
            if action.probability < 1.0:
                if hash_fraction(self.seed, site, trial) >= action.probability:
                    continue
            from repro import obs

            obs.counter_add("faults.injected")
            obs.counter_add(f"faults.injected.{site}")
            if action.kind == "raise":
                raise InjectedFault(f"injected fault at {site} (trial {trial})")
            if action.kind == "crash":
                os._exit(23)
            if action.kind == "delay":
                time.sleep(action.seconds)
                return "delay"
            return action.kind  # "corrupt": the call site applies it
        return None
