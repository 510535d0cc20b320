"""High-level entry points: build a sysplex, drive a workload, measure.

These are the functions behind the :func:`repro.run` facade; each returns
:class:`repro.metrics.RunResult`.  Drive parameters travel as one
:class:`~repro.options.RunOptions` bundle::

    run_oltp(cfg, duration=1.0, options=RunOptions(tracing=True))

(The pre-1.1 loose keyword style — ``run_oltp(cfg, tracing=True)`` —
was deprecated in 1.1 and removed in 2.0.)

The options bundle also carries the one execution knob, the profile:
``RunOptions(profile="sweep")`` (the default) collapses events — fast
and statistically neutral; ``profile="verify"`` runs the golden
no-collapse path, byte-identical to historical results.  Both run on the
kernel's one event calendar.  See :mod:`repro.options`.

Point lifecycle
---------------
Every simulation point a runner drives has one lifecycle, owned by
:func:`loaded_sysplex`::

    build -> warmup -> measure -> collect -> close -> one gc.collect()

The cycle collector is paused from before the build until the point is
closed.  The event loop allocates millions of short-lived objects and a
finished sysplex is one large cyclic graph (processes, generator frames,
events, components that point at each other), so a collector left on
walks a heap it can free almost nothing of, mid-build and mid-run.
Instead :meth:`Sysplex.close` shuts every live process down at a defined
point (their ``with``/``finally`` exits run there, not inside the
collector) and drops the calendar; then one full collection frees the
point and the caller's GC setting is restored.  No simulation state is
touched, so results are unchanged.

:func:`build_loaded_sysplex` on its own (tests, notebooks, examples)
builds the point and leaves its teardown to the caller.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from .config import SysplexConfig
from .metrics import RunResult
from .options import PROFILES, RunOptions
from .sysplex import Sysplex
from .workloads.oltp import OltpGenerator
from .workloads.traces import DemandTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .runspec import RunSpec

__all__ = ["run_oltp", "run_spec", "build_loaded_sysplex", "loaded_sysplex",
           "LoadedSysplex"]


def build_loaded_sysplex(config: SysplexConfig,
                         options: Optional[RunOptions] = None,
                         trace: Optional[DemandTrace] = None,
                         ) -> Tuple[Sysplex, OltpGenerator]:
    """Construct a sysplex with an OLTP workload attached (not yet run).

    Returns ``(sysplex, generator)`` so callers can inject failures or
    add systems before/while running.  ``options`` bundles the drive
    parameters; ``trace`` optionally replays a recorded demand trace.
    With ``options.tracing`` the transaction-level span tracer is
    attached (see :mod:`repro.trace`), making per-category overhead
    attribution available from ``collect()``.  The options' execution
    profile picks the collapse mode (``"sweep"`` collapses events,
    ``"verify"`` is the golden path).
    """
    opts = options if options is not None else RunOptions()
    plex = Sysplex(config, monitoring=opts.monitoring,
                   router_policy=opts.router_policy, tracing=opts.tracing,
                   collapse=PROFILES[opts.profile])
    gen = OltpGenerator(
        plex.sim,
        config.oltp,
        n_pages=config.db.n_pages,
        n_systems=config.n_systems,
        rng=plex.streams.stream("oltp"),
        router=plex.router,
        trace=trace,
        tracer=plex.tracer,
    )
    if opts.mode == "closed":
        terminals = opts.terminals_per_system
        if terminals is None:
            terminals = config.oltp.terminals_per_cpu * config.cpu.n_cpus
        gen.start_closed_loop(terminals)
    else:  # "open" — RunOptions validates the mode at construction
        gen.start_open_loop(opts.offered_tps_per_system)
    # steady-state setup: pools start warm with the hot working set, as
    # they would be after hours of production running
    plex.prewarm(gen.sampler.hottest(config.db.buffer_pages))
    return plex, gen


class LoadedSysplex:
    """The point a :func:`loaded_sysplex` block drives: ``plex`` and its
    workload generator ``gen``.  Both are cleared when the block exits."""

    __slots__ = ("plex", "gen")

    def __init__(self) -> None:
        self.plex: Optional[Sysplex] = None
        self.gen: Optional[OltpGenerator] = None


@contextmanager
def loaded_sysplex(config: SysplexConfig,
                   options: Optional[RunOptions] = None,
                   trace: Optional[DemandTrace] = None,
                   ) -> Iterator[LoadedSysplex]:
    """Build one point and own its lifecycle (see the module docstring)::

        with loaded_sysplex(config, options) as point:
            return measure(point.plex, point.gen)

    GC is paused before the build.  On exit, normal or not, the sysplex
    is closed, the references are dropped, exactly one ``gc.collect()``
    runs and the caller's GC setting is restored.  The block should hand
    ``point.plex``/``point.gen`` to a function rather than bind them to
    its own names: a local that outlives the block keeps the point alive
    past its collection.  Counters read through a kept reference stay
    valid after the close.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    point = LoadedSysplex()
    try:
        # through the module global, so wrappers of the builder see it
        point.plex, point.gen = build_loaded_sysplex(config, options=options,
                                                     trace=trace)
        yield point
    finally:
        try:
            if point.plex is not None:
                point.plex.close()
        finally:
            point.plex = point.gen = None
            gc.collect()
            if was_enabled:
                gc.enable()


def run_oltp(config: SysplexConfig,
             duration: float = 1.0,
             warmup: float = 0.3,
             options: Optional[RunOptions] = None,
             label: Optional[str] = None,
             trace: Optional[DemandTrace] = None) -> RunResult:
    """Run one measured OLTP window and return its results.

    ``warmup`` simulated seconds are run and discarded (buffer pools fill,
    WLM utilization estimates settle), then ``duration`` seconds are
    measured.  With ``options.tracing`` the result's ``extras``
    additionally carries ``trace.*`` overhead-attribution keys (µs and %%
    of mean response per lifecycle category — see
    :mod:`repro.trace_analysis`).
    """
    opts = options if options is not None else RunOptions()
    if label is None:
        sharing = "DS" if config.data_sharing and config.n_cfs else "noDS"
        label = (
            f"{config.n_systems}x{config.cpu.n_cpus}cpu {sharing} {opts.mode}"
        )
    with loaded_sysplex(config, opts, trace) as point:
        return _measure(point.plex, warmup, duration, label)


def _measure(plex: Sysplex, warmup: float, duration: float,
             label: str) -> RunResult:
    # a separate frame, so no local of run_oltp holds the point past
    # the lifecycle's collection
    plex.sim.run(until=warmup)
    plex.reset_measurement()
    plex.sim.run(until=warmup + duration)
    return plex.collect(label)


def run_spec(spec: "RunSpec") -> RunResult:
    """Execute a declarative OLTP :class:`~repro.runspec.RunSpec`.

    This is the executor's default runner (the ``"oltp"`` alias): the
    spec's config, window, and options map 1:1 onto :func:`run_oltp`.
    """
    if spec.config is None:
        raise ValueError("an 'oltp' RunSpec needs a SysplexConfig")
    return run_oltp(
        spec.config,
        duration=spec.duration,
        warmup=spec.warmup,
        options=spec.options,
        label=spec.label,
    )
