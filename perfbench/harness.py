"""Measurement plumbing for the repository benchmark.

Everything here observes the simulator from the outside, through public
names only: phase boundaries wrapped around the runner, the kernel and
the sysplex; cyclic-GC pauses timed through ``gc.callbacks``; work
counters read from public component state; a sampling profiler that
attributes self time to ``repro.<layer>``; and a process-tree peak RSS
poller.  Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.runner
from repro.cf.cache import CacheStructure
from repro.simkernel.core import Simulator
from repro.sysplex import Sysplex

#: Simulation layers the profiler reports a self-time share for; samples
#: landing anywhere else are reported as ``other``.
SIM_LAYERS = ("simkernel", "cf", "subsystems", "hardware", "workloads", "mvs")


class BoundaryError(RuntimeError):
    """A phase boundary fired an unexpected number of times for a point:
    a refactor bypassed a wrapped call, so its timings would read zero."""


@dataclass
class PointRecord:
    """What the boundaries saw while one point ran."""

    calls: Counter = field(default_factory=Counter)
    build_s: float = 0.0
    build_gc_s: float = 0.0
    gc_s: float = 0.0
    collect_s: float = 0.0
    #: one entry per ``Simulator.run`` call, in order
    runs: List[float] = field(default_factory=list)
    #: how many runs had finished when ``reset_measurement`` fired
    runs_before_reset: Optional[int] = None
    #: measured-window work counters (whole run when there is no reset)
    counters: Dict[str, int] = field(default_factory=dict)
    #: kernel events of the whole point, warmup included
    total_events: int = 0
    cf_utilization: Optional[float] = None
    cpu_utilization: Optional[float] = None
    has_cf: bool = False
    _plex: Optional[Sysplex] = None
    _start: Dict[str, int] = field(default_factory=dict)

    @property
    def warmup_s(self) -> float:
        if self.runs_before_reset is None:
            return 0.0
        return sum(self.runs[:self.runs_before_reset])

    @property
    def measured_s(self) -> float:
        if self.runs_before_reset is None:
            return sum(self.runs)
        return sum(self.runs[self.runs_before_reset:])


def _ports(plex: Sysplex) -> list:
    ports = []
    for inst in plex.instances.values():
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            for attr in ("port", "sec_port"):
                port = getattr(xes, attr, None)
                if port is not None:
                    ports.append(port)
    return ports


def read_counters(plex: Sysplex) -> Dict[str, int]:
    """Deterministic work counters, read from public component state."""
    ports = _ports(plex)
    caches = [st for cf in plex.cfs for st in cf.structures.values()
              if isinstance(st, CacheStructure)]
    buffers = [inst.buffers for inst in plex.instances.values()]
    return {
        "events": plex.sim.events_processed,
        "committed": plex.metrics.counter("txn.completed").count,
        "cf_commands": sum(cf.commands_executed for cf in plex.cfs),
        "cf_sync_ops": sum(p.sync_ops for p in ports),
        "cf_fast_syncs": sum(p.fast_syncs for p in ports),
        "cf_failed_ops": sum(p.timeouts + p.retries for p in ports),
        "xi_signals": sum(st.xi_signals for st in caches),
        "buffer_local_hits": sum(b.local_hits for b in buffers),
        "buffer_cf_refreshes": sum(b.cf_refreshes for b in buffers),
        "buffer_dasd_reads": sum(b.dasd_reads for b in buffers),
        "coherency_misses": sum(b.coherency_misses for b in buffers),
        "lock_waits": plex.lock_space.waits,
        "deadlocks": plex.lock_space.deadlocks,
        "dasd_ios": sum(d.io_count for d in plex.farm.devices),
        "xcf_events": plex.xcf.events_delivered,
        "xcf_messages": plex.fabric.delivered,
    }


class Boundaries:
    """Wrap the phase boundaries of a point and time cyclic GC.

    Use as a context manager; between :meth:`begin` and :meth:`end` every
    wrapped call is charged to the open point.  A wrapped call outside a
    point is recorded as stray and fails the next :meth:`end`.
    """

    def __init__(self) -> None:
        self.current: Optional[PointRecord] = None
        self._phase = "other"
        self._gc_t0 = 0.0
        self._stray: Counter = Counter()
        self._restore: list = []

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Boundaries":
        build = repro.runner.build_loaded_sysplex
        wrapped_build = self._wrap_build(build)
        # every module that imported the builder by name gets the wrapper
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "build_loaded_sysplex", None) is build):
                self._patch(mod, "build_loaded_sysplex", wrapped_build)
        self._patch(Simulator, "run", self._wrap_run(Simulator.run))
        self._patch(Sysplex, "reset_measurement",
                    self._wrap_reset(Sysplex.reset_measurement))
        self._patch(Sysplex, "collect", self._wrap_collect(Sysplex.collect))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, new) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _rec(self, boundary: str) -> Optional[PointRecord]:
        rec = self.current
        if rec is None:
            self._stray[boundary] += 1
        else:
            rec.calls[boundary] += 1
        return rec

    # -- wrappers ----------------------------------------------------------
    def _wrap_build(self, original):
        def build_loaded_sysplex(*args, **kwargs):
            rec = self._rec("build")
            self._phase = "build"
            t0 = time.perf_counter()
            try:
                plex, gen = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._phase = "other"
            if rec is not None:
                rec.build_s += dt
                rec.has_cf = bool(plex.cfs)
                rec._plex = plex
            return plex, gen
        return build_loaded_sysplex

    def _wrap_run(self, original):
        def run(sim, *args, **kwargs):
            rec = self._rec("run")
            t0 = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                if rec is not None:
                    rec.runs.append(time.perf_counter() - t0)
        return run

    def _wrap_reset(self, original):
        def reset_measurement(plex, *args, **kwargs):
            rec = self._rec("reset")
            out = original(plex, *args, **kwargs)
            if rec is not None:
                rec.runs_before_reset = len(rec.runs)
                rec._start = read_counters(plex)
            return out
        return reset_measurement

    def _wrap_collect(self, original):
        def collect(plex, *args, **kwargs):
            rec = self._rec("collect")
            t0 = time.perf_counter()
            result = original(plex, *args, **kwargs)
            if rec is not None:
                rec.collect_s += time.perf_counter() - t0
                self._close_counters(rec, plex)
                rec.cf_utilization = result.cf_utilization
                rec.cpu_utilization = result.mean_utilization
                # the kernel's own count of the window must agree with
                # the counter snapshot taken at reset_measurement
                if result.sim_events != rec.counters["events"]:
                    raise BoundaryError(
                        f"RunResult.sim_events {result.sim_events} != "
                        f"counted {rec.counters['events']}")
            return result
        return collect

    def _close_counters(self, rec: PointRecord, plex: Sysplex) -> None:
        end = read_counters(plex)
        rec.total_events = end["events"]
        rec.counters = {k: v - rec._start.get(k, 0) for k, v in end.items()}
        rec._plex = None  # never keep a finished sysplex alive

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        rec = self.current
        if rec is not None:
            dt = time.perf_counter() - self._gc_t0
            rec.gc_s += dt
            if self._phase == "build":
                rec.build_gc_s += dt

    # -- points ------------------------------------------------------------
    def begin(self) -> PointRecord:
        if self.current is not None:
            raise BoundaryError("point opened inside another point")
        if self._stray:
            raise BoundaryError(f"boundary fired outside a point: "
                                f"{dict(self._stray)}")
        self.current = PointRecord()
        return self.current

    def end(self, expected: Dict[str, int]) -> PointRecord:
        """Close the open point and check each boundary fired exactly
        ``expected[boundary]`` times (0 when absent)."""
        rec, self.current = self.current, None
        if rec is None:
            raise BoundaryError("end() without begin()")
        if rec._plex is not None:  # runners that never call collect()
            self._close_counters(rec, rec._plex)
        seen = {b: rec.calls.get(b, 0)
                for b in ("build", "run", "reset", "collect")}
        want = {b: expected.get(b, 0) for b in seen}
        if seen != want:
            raise BoundaryError(f"boundary calls {seen}, expected {want}")
        return rec


# -- sampling profiler -------------------------------------------------------


def _layer_of(frame) -> str:
    """``repro.<layer>`` of the innermost repro frame on the stack."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("repro."):
            return name.split(".")[1]
        frame = frame.f_back
    return "other"


class Sampler:
    """Statistical profiler: every ``interval`` seconds of process CPU
    time a ``SIGPROF`` handler records the ``repro.<layer>`` of the
    innermost repro frame of the main thread (its self time, stdlib and
    C calls included).

    A side thread polling ``sys._current_frames()`` would be simpler but
    only gets the interpreter lock when the main thread drops it, which
    the simulator does mostly inside numpy calls — its samples pile up
    there.  The signal handler instead runs at the next bytecode
    boundary, wherever the main thread is.
    """

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.samples: Counter = Counter()
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        self.samples[_layer_of(frame)] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, float]:
        total = sum(self.samples.values()) or 1
        out = {layer: self.samples.get(layer, 0) / total
               for layer in SIM_LAYERS}
        out["other"] = 1.0 - sum(out.values())
        return out


# -- memory ------------------------------------------------------------------


def _proc_status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


class TreePeak:
    """Peak RSS of this process plus every descendant it spawns.

    Each child's own high-water mark (``VmHWM``) is polled while it
    lives; the result is this process's ``ru_maxrss`` plus the sum of
    the children's peaks — an upper bound on the tree's simultaneous
    peak, exact when the children run concurrently.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.child_peak_kb: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _poll(self) -> None:
        for pid in _descendants(os.getpid()):
            hwm = _proc_status_kb(pid, "VmHWM:")
            if hwm > self.child_peak_kb.get(pid, 0):
                self.child_peak_kb[pid] = hwm

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._poll()

    def __enter__(self) -> "TreePeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb(tree: Optional[TreePeak] = None) -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = sum(tree.child_peak_kb.values()) if tree else 0
    return (self_kb + children_kb) / 1024.0


# -- host speed --------------------------------------------------------------

#: Median time of one :func:`_host_probe` on the machine this benchmark was
#: written on (2-vCPU Xeon VM, CPython 3.11).  Host-time metrics are
#: reported in seconds of a host that runs the probe this fast.
REFERENCE_PROBE_S = 300e-6


def _host_probe() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class HostProbe:
    """Host-speed reference, timed all through the run it shares with the
    workload.

    Every ``interval`` seconds of wall time a ``SIGALRM`` handler in the
    main thread runs a fixed pure-Python loop and records its thread CPU
    time, which excludes waiting for a CPU.  On a host whose vCPU speed
    drifts, :meth:`factor` converts the run's host seconds into seconds
    on a host as fast as the reference.  The loop uses no ``repro`` code,
    so a change to the program cannot move it.
    """

    def __init__(self, interval: float = 0.025) -> None:
        self.interval = interval
        self.samples: List[float] = []
        self._previous = None

    def _on_tick(self, _signum, _frame) -> None:
        t0 = time.thread_time()
        _host_probe()
        self.samples.append(time.thread_time() - t0)

    def factor(self, end: int) -> float:
        """Reference speed over host speed, from the first ``end`` samples
        (1.0 before any sample)."""
        if not end:
            return 1.0
        return REFERENCE_PROBE_S / statistics.median(self.samples[:end])

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        _host_probe()  # the first timed probe must not pay for warm-up
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
