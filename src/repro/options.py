"""Drive options: how a sysplex run is loaded, routed, and observed.

:class:`RunOptions` is the frozen bundle of workload-drive parameters
that used to travel as loose keyword arguments through
:func:`repro.runner.run_oltp` and :func:`repro.runner.build_loaded_sysplex`
(``mode=``, ``router_policy=``, ``tracing=``, ...).  Bundling them gives
the public API one typed, hashable, JSON-serializable object that

* :func:`repro.run` and the runner entry points accept directly,
* :class:`repro.runspec.RunSpec` embeds verbatim, so the drive options
  participate in the spec's content hash (and therefore in the result
  cache's identity rule).

Execution profiles
------------------

``profile`` is the one execution knob.  It selects how much the kernel
may merge events in a run:

* ``"sweep"`` (the default) — event-collapsed: an idle CPU engine,
  DASD path, subchannel or CF processor is claimed without a grant
  event, a CF command's round trip is merged into fewer events, and a
  process nobody waits on ends without a terminal event.  Statistically
  indistinguishable from the golden path (and still perfectly
  deterministic per spec hash), but *not* byte-identical to it at
  saturation.  Experiments, fuzzing and chaos runs use this.
* ``"verify"`` — the golden configuration, no event collapsing.
  Byte-identical to the historical results; use it to (re)generate
  golden fixtures or to double-check a sweep result.

Both profiles run on the kernel's one event calendar (heapq).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["RunOptions", "OPTION_FIELDS", "PROFILES"]

#: The two workload drive modes (see OltpGenerator): ``closed`` keeps a
#: fixed terminal population in think/submit loops; ``open`` offers an
#: arrival stream at a fixed rate regardless of completions.
_MODES = ("closed", "open")

#: Execution profiles and whether each collapses events.
PROFILES = {
    "sweep": True,
    "verify": False,
}


@dataclass(frozen=True)
class RunOptions:
    """How to drive one simulation run (everything but *what* to build).

    All fields are plain data so the bundle serializes losslessly into
    :meth:`RunSpec.to_dict <repro.runspec.RunSpec.to_dict>` and hashes
    into ``RunSpec.content_hash``.
    """

    #: ``"closed"`` (terminals with think time) or ``"open"`` (Poisson
    #: offered load).
    mode: str = "closed"
    #: Work routing policy: ``"local"``, ``"threshold"`` (the paper's
    #: stay-local-unless-overloaded), or ``"wlm"``.
    router_policy: str = "threshold"
    #: Attach the heartbeat/SFM monitor to every system.
    monitoring: bool = True
    #: Attach the transaction-level span tracer (overhead attribution).
    tracing: bool = False
    #: Closed-loop terminal count per system; ``None`` derives it from
    #: the config (``terminals_per_cpu * n_cpus``).
    terminals_per_system: Optional[int] = None
    #: Open-loop offered transactions/second per system.
    offered_tps_per_system: float = 200.0
    #: Execution profile: ``"sweep"`` (fast; the default) or ``"verify"``
    #: (golden, byte-identical to historical results).  See the module
    #: docstring.
    profile: str = "sweep"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown drive mode {self.mode!r} (expected one of {_MODES})"
            )
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r} "
                f"(expected one of {tuple(PROFILES)})"
            )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "router_policy": self.router_policy,
            "monitoring": self.monitoring,
            "tracing": self.tracing,
            "terminals_per_system": self.terminals_per_system,
            "offered_tps_per_system": self.offered_tps_per_system,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        data = dict(data)
        # Spec files written before 3.0 carry two retired keys.  Every
        # ``scheduler`` gave byte-identical runs, so any value is
        # dropped; a null ``collapse`` meant "the profile's choice", which
        # is now the only choice.  A set ``collapse`` asked for a run the
        # profile alone now names.
        data.pop("scheduler", None)
        collapse = data.pop("collapse", None)
        if collapse is not None:
            profile = "sweep" if collapse else "verify"
            raise ValueError(
                f"'collapse' is no longer an option; use "
                f"profile={profile!r} instead"
            )
        return cls(**data)

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (frozen-dataclass friendly)."""
        return replace(self, **changes)


#: Field names of :class:`RunOptions` — the keys
#: :meth:`RunSpec.replace <repro.runspec.RunSpec.replace>` routes into
#: the nested options bundle.
OPTION_FIELDS = frozenset(f.name for f in fields(RunOptions))
