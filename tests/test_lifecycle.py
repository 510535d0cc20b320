"""Deterministic point teardown: kernel self-cycles, Simulator.close() and
the runner's one-lifecycle-per-point context manager."""

import gc
import math
import weakref
from pathlib import Path

import pytest

import repro.runner as runner
from repro import RunOptions
from repro.experiments.common import scaled_config
from repro.experiments.exp_chaos import chaos_spec, run_chaos_spec
from repro.simkernel import SimulationError, Simulator, resources
from repro.simkernel.core import Process
from repro.simkernel.resources import Request, Resource


class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


class _WeakRequest(Request):
    __slots__ = ("__weakref__",)


@pytest.fixture
def gc_off():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def sim_refs(monkeypatch):
    """Weak references to the Simulator of every point built through the
    runner's module-global builder."""
    refs = []
    build = runner.build_loaded_sysplex

    def recording_build(*args, **kwargs):
        plex, gen = build(*args, **kwargs)
        refs.append(weakref.ref(plex.sim))
        return plex, gen

    monkeypatch.setattr(runner, "build_loaded_sysplex", recording_build)
    return refs


# -- kernel self-cycles --------------------------------------------------------


def test_finished_process_is_freed_by_refcount(gc_off):
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        return "done"

    proc = _WeakProcess(sim, body())
    ref = weakref.ref(proc)
    sim.run()
    assert proc.value == "done"
    del proc
    assert ref() is None


def test_released_request_is_freed_by_refcount(gc_off, monkeypatch):
    monkeypatch.setattr(resources, "Request", _WeakRequest)
    sim = Simulator()
    res = Resource(sim, capacity=1)
    refs = []

    def holder():
        with res.request() as req:
            refs.append(weakref.ref(req))
            granted = yield req
            assert granted is req
            yield sim.timeout(1.0)

    def waiter():  # granted through the queue, not the fast path
        yield sim.timeout(0.5)
        with res.request() as req:
            refs.append(weakref.ref(req))
            yield req

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert len(refs) == 2
    assert [r() for r in refs] == [None, None]
    assert res.in_use == 0


# -- Simulator.close() ---------------------------------------------------------


def test_close_is_idempotent_and_empties_the_calendar():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    for _ in range(3):
        sim.process(ticker())
    sim.run(until=2.5)
    assert not math.isinf(sim.peek())
    sim.close()
    assert math.isinf(sim.peek())
    sim.close()  # idempotent
    assert math.isinf(sim.peek())
    assert sim.now == 2.5  # the clock stays readable
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_close_gives_back_a_unit_held_in_a_with_block():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(10.0)

    def waiter():
        with res.request() as req:
            yield req
            yield sim.timeout(10.0)

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=1.0)
    assert res.in_use == 1 and res.queue_length == 1
    sim.close()
    # the holder's exit granted the unit to the waiter, whose own exit
    # then handed it back
    assert res.in_use == 0
    assert not res.users


def test_close_runs_exits_in_creation_order():
    sim = Simulator()
    log = []

    def body(tag):
        try:
            yield sim.timeout(5.0)
        finally:
            log.append(tag)
            if tag == "a":  # an exit that starts a process
                sim.process(body("late"))

    def quick():
        yield sim.timeout(0.1)
        log.append("quick finished")

    for tag in ("a", "b"):
        sim.process(body(tag))
    sim.process(quick())
    sim.process(body("c"))
    sim.run(until=1.0)
    sim.close()
    # "late" never started, so closing it runs no code
    assert log == ["quick finished", "a", "b", "c"]
    assert not sim._live


def test_close_finishes_teardown_before_raising():
    sim = Simulator()
    closed = []

    def stubborn():
        try:
            yield sim.timeout(5.0)
        finally:
            raise ValueError("exit failed")

    def tidy():
        try:
            yield sim.timeout(5.0)
        finally:
            closed.append("tidy")

    sim.process(stubborn())
    sim.process(tidy())
    sim.run(until=1.0)
    with pytest.raises(ValueError, match="exit failed"):
        sim.close()
    assert closed == ["tidy"]
    assert math.isinf(sim.peek())


def test_sysplex_counters_stay_readable_after_close():
    plex, _gen = runner.build_loaded_sysplex(scaled_config(2, 1, seed=1))
    plex.sim.run(until=0.2)
    completed = plex.metrics.counter("txn.completed").count
    events = plex.sim.events_processed
    plex.close()
    plex.close()
    assert completed > 0
    assert plex.metrics.counter("txn.completed").count == completed
    assert plex.sim.events_processed == events
    assert sum(d.io_count for d in plex.farm.devices) > 0


# -- the runner lifecycle ------------------------------------------------------


def test_run_oltp_frees_its_simulator_without_the_collector(gc_off, sim_refs):
    result = runner.run_oltp(scaled_config(2, 1, seed=1), duration=0.2,
                             warmup=0.1)
    assert result.completed > 0
    assert len(sim_refs) == 1
    assert sim_refs[0]() is None
    assert not gc.isenabled()


def test_run_chaos_spec_frees_its_simulator_without_the_collector(
        gc_off, sim_refs):
    spec = chaos_spec(n_systems=2, seed=3, horizon=1.5, drain=0.5,
                      window=0.5)
    payload = run_chaos_spec(spec)
    assert payload["summary"]["completed"] > 0
    assert len(sim_refs) == 1
    assert sim_refs[0]() is None


@pytest.mark.parametrize("enabled", [True, False])
def test_loaded_sysplex_restores_the_callers_gc_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with runner.loaded_sysplex(scaled_config(1, 1, seed=1)) as point:
            assert not gc.isenabled()
            point.plex.sim.run(until=0.05)
        assert gc.isenabled() is enabled
        assert point.plex is None and point.gen is None

        with pytest.raises(RuntimeError, match="body failed"):
            with runner.loaded_sysplex(scaled_config(1, 1, seed=1),
                                       RunOptions(profile="verify")):
                raise RuntimeError("body failed")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_loaded_sysplex_closes_the_point(sim_refs):
    with runner.loaded_sysplex(scaled_config(1, 1, seed=1)) as point:
        sim = point.plex.sim
        sim.run(until=0.05)
    with pytest.raises(SimulationError):
        sim.run(until=0.1)
    assert math.isinf(sim.peek())


def test_experiment_runners_build_through_the_lifecycle():
    experiments = Path(runner.__file__).parent / "experiments"
    direct = [p.name for p in sorted(experiments.glob("*.py"))
              if "build_loaded_sysplex" in p.read_text()]
    assert direct == []
