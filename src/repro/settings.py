"""Process settings: the eight ``CNVLUTIN_*`` environment knobs.

The only module that reads ``os.environ``.  :class:`Settings` holds one
validated field per knob (README, "Environment knobs", tabulates them),
and every consumer reads those fields through :func:`current`.

* Junk passed explicitly (``Settings(...)``, a CLI flag, a
  ``ShardTierConfig``) raises ``ValueError``: it is a caller bug.
* Junk in the environment warns and keeps the default, so a typo never
  fails a forward pass.  A bad ``CNVLUTIN_FAULTS`` raises instead,
  naming the variable: a chaos run must not silently lose its faults.
  The two paths accept anything; empty means the default.
* A process parses its environment once, on the first :func:`current`,
  unless an entry point :func:`install`\\ s a value before any compute
  (``repro-serve`` its flags, a shard the value its spec carries).
  Nothing re-reads it per call; a test that changes it calls
  :func:`reload`.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

__all__ = ["Settings", "ENV", "current", "install", "reload"]

DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[2] / ".cache"
_ON, _OFF = ("1", "true", "on", "yes"), ("", "0", "false", "off", "no")


def _path_or(default):
    return lambda value: Path(value) if value else default


def _non_negative(value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not 0.0 <= number < math.inf:
        raise ValueError("expected a finite number >= 0")
    return number


def _integrity(value) -> str:
    text = str(value).strip().lower()
    try:
        if text in ("off", "always") or (
            text.startswith("sample:") and 0.0 <= float(text[7:]) <= 1.0
        ):
            return text
    except ValueError:
        pass
    raise ValueError("expected off|always|sample:p with p in [0, 1]")


def _faults(value) -> str:
    from repro.reliability.faults import parse_faults  # imports this module

    parse_faults(str(value))
    return str(value).strip()


def _seed(value) -> int:
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise ValueError("expected an integer")


def _flag(value) -> bool:
    text = str(value).strip().lower()
    if text not in _ON + _OFF:
        raise ValueError("expected 1|true|on|yes or 0|false|off|no")
    return text in _ON


#: field -> (variable, parser).  A parser takes the variable's text or a
#: typed value and returns the field's value; junk raises ValueError.
_KNOBS = {
    "cache_dir": ("CNVLUTIN_CACHE_DIR", _path_or(DEFAULT_CACHE_DIR)),
    "engine_cache_mb": ("CNVLUTIN_ENGINE_CACHE_MB", _non_negative),
    "integrity": ("CNVLUTIN_INTEGRITY", _integrity),
    "integrity_recheck_s": ("CNVLUTIN_INTEGRITY_RECHECK_S", _non_negative),
    "faults": ("CNVLUTIN_FAULTS", _faults),
    "fault_state": ("CNVLUTIN_FAULT_STATE", _path_or(None)),
    "fault_seed": ("CNVLUTIN_FAULT_SEED", _seed),
    "trace": ("CNVLUTIN_TRACE", _flag),
}
ENV = {name: env for name, (env, _) in _KNOBS.items()}


@dataclass(frozen=True)
class Settings:
    """One process's knobs, validated on construction."""

    cache_dir: Path = DEFAULT_CACHE_DIR  # artifact cache root
    engine_cache_mb: float = 512.0  # each forward engine's LRU budget
    integrity: str = "off"  # ABFT policy: off | always | sample:p
    integrity_recheck_s: float = 5.0  # shard arena CRC staleness bound
    faults: str = ""  # grammar in repro.reliability.faults
    fault_state: Path | None = None  # shares trial counters across processes
    fault_seed: int = 0  # seeds the ~probability fault decisions
    trace: bool = False  # record spans from process start

    def __post_init__(self) -> None:
        for name, (_, parse) in _KNOBS.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, parse(value))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}, got {value!r}") from None

    @cached_property
    def integrity_policy(self) -> tuple[str, float]:
        """``integrity`` as ``(mode, p)``, the form each kernel call reads."""
        mode, _, p = self.integrity.partition(":")
        return (mode, float(p) if p else float(mode == "always"))

    @classmethod
    def from_env(cls, environ=None) -> "Settings":
        """Parse ``environ`` (default: the process environment)."""
        environ = os.environ if environ is None else environ
        defaults = {item.name: item.default for item in fields(cls)}
        values = {}
        for name, (env, parse) in _KNOBS.items():
            raw = environ.get(env)
            if raw is None:
                continue
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                if name == "faults":
                    raise ValueError(f"invalid {env}={raw!r}: {exc}") from None
                warnings.warn(
                    f"ignoring invalid {env}={raw!r} ({exc}); using the "
                    f"default {defaults[name]!r}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return cls(**values)


_current: Settings | None = None


def current() -> Settings:
    """The process settings: installed, or parsed on first use."""
    return _current if _current is not None else install(Settings.from_env())


def install(settings: Settings) -> Settings:
    """Make ``settings`` this process's settings."""
    global _current
    _current = settings
    return settings


def reload() -> None:
    """Forget the process settings; the next :func:`current` re-parses."""
    global _current
    _current = None
