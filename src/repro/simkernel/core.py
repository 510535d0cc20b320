"""Discrete-event simulation core.

A small, dependency-free kernel in the style of SimPy: a :class:`Simulator`
owns an event calendar and advances virtual time; model behaviour is
written as Python generator functions ("processes") that ``yield`` events
(timeouts, resource requests, other processes, conditions) and are resumed
when those events fire.

Time is a float in **seconds**; sub-microsecond resolution is fine because
events at equal times are ordered deterministically by (priority, sequence
number), so runs are exactly reproducible for a given seed.

The calendar itself is pluggable (see :class:`Scheduler`):

* :class:`HeapScheduler` — the classic binary heap.  O(log n) per
  operation, C-implemented, and the **golden** backend: every
  byte-identity guarantee in the repo is stated against its pop order.
* :class:`CalendarScheduler` — a bucketed calendar queue (Brown 1988)
  tuned to the observed inter-event gap.  Pushes append to an unsorted
  bucket (O(1)); a bucket is sorted once, when the clock reaches it, and
  same-instant cascades (succeed → resume → succeed at one timestamp)
  are insorted directly into the *draining* bucket so they never touch
  the tick heap at all.  Pop order is the exact ``(when, priority,
  seq)`` total order, so results are byte-identical to the heap backend;
  the win is pure constant-factor.

Either backend is selected per-:class:`Simulator` (``Simulator(
scheduler="calendar")``); model code never sees the difference.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

__all__ = [
    "Simulator",
    "Scheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for events that must fire before same-time NORMAL ones
#: (used internally for process resumption after interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the calendar, value decided
_PROCESSED = 2  # callbacks ran


class SimulationError(Exception):
    """Raised for kernel-level misuse (e.g. yielding a non-event)."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (and is
    scheduled), and *processed* once its callbacks have run.  Processes that
    yield the event are resumed with its value (or have its exception thrown
    into them if the event failed).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        # hot path: schedule at the current time without an _enqueue frame
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if sim._alt is None:
            heappush(sim._queue, (sim._now, priority, seq, self))
        else:
            sim._alt.push((sim._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if sim._alt is None:
            heappush(sim._queue, (sim._now, priority, seq, self))
        else:
            sim._alt.push((sim._now, priority, seq, self))
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            # Nobody waited for (or defused) a failed event: surface the error.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self._state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # the single most-constructed event type: initialize flat (no
        # Event.__init__ call) and schedule without an _enqueue frame
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        if sim._alt is None:
            heappush(sim._queue, (sim._now + delay, NORMAL, seq, self))
        else:
            sim._alt.push((sim._now + delay, NORMAL, seq, self))


class Process(Event):
    """Drives a generator, resuming it each time a yielded event fires.

    A process is itself an event: it succeeds with the generator's return
    value, or fails with any exception that escapes the generator.
    """

    __slots__ = ("_generator", "_target", "name", "_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: the bound resume callback, allocated once instead of on every
        #: suspension (callbacks.append(self._resume) re-binds each time);
        #: reset to None when the generator ends, so a finished process
        #: is not its own referent and refcounting alone frees it
        self._cb = self._resume
        sim._live[self] = None
        if sim._process_watchers:
            for fn in sim._process_watchers:
                fn(self, "start")
        # Bootstrap: resume the generator at time now.
        init = Event(sim)
        init._ok = True
        init._state = _TRIGGERED
        init.callbacks.append(self._cb)
        sim._seq = seq = sim._seq + 1
        if sim._alt is None:
            heappush(sim._queue, (sim._now, URGENT, seq, init))
        else:
            sim._alt.push((sim._now, URGENT, seq, init))

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            return  # already finished; interrupt is a no-op
        ev = Event(self.sim)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True
        ev._state = _TRIGGERED
        ev.callbacks.append(self._cb)
        # Detach from whatever we were waiting on so that event no longer
        # resumes us when it fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._cb)
            except ValueError:
                pass
        self._target = None
        self.sim._enqueue(0.0, URGENT, ev)

    def _resume(self, event: Event) -> None:
        # the kernel's innermost loop: one call per process suspension;
        # locals bound up front keep the common send-and-suspend cycle
        # free of repeated attribute loads
        sim = self.sim
        sim._active_process = self
        gen = self._generator
        send = gen.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as exc:
                sim._active_process = None
                self._target = None
                self._cb = None
                del sim._live[self]
                if self._state == _PENDING:
                    if sim._elide_done and not self.callbacks:
                        # collapse mode, nobody waiting: the terminal event
                        # would pop with no callbacks, so skip the calendar
                        # and let any later ``yield process`` read the value
                        # straight off the processed event
                        self._value = exc.value
                        self.callbacks = None
                        self._state = _PROCESSED
                    else:
                        self.succeed(exc.value, priority=URGENT)
                    if sim._process_watchers:
                        for fn in sim._process_watchers:
                            fn(self, "end")
                return
            except BaseException as exc:
                sim._active_process = None
                self._target = None
                self._cb = None
                del sim._live[self]
                if self._state == _PENDING:
                    self.fail(exc, priority=URGENT)
                    if sim._process_watchers:
                        for fn in sim._process_watchers:
                            fn(self, "end")
                    return
                raise

            if isinstance(target, Event):
                if target.sim is not sim:
                    raise SimulationError(
                        "yielded event belongs to another simulator"
                    )
                if target._state != _PROCESSED:
                    target.callbacks.append(self._cb)
                    self._target = target
                    sim._active_process = None
                    return
                # Already over: feed its value straight back in.
                event = target
                continue

            err: BaseException = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            sim._active_process = None
            self._target = None
            self._cb = None
            del sim._live[self]
            try:
                gen.throw(err)
            except StopIteration:
                pass
            except BaseException as exc:
                err = exc
            else:
                # The generator caught the error and yielded again; it
                # cannot be resumed after an invalid yield, so shut it
                # down instead of leaving the process pending forever.
                gen.close()
            if self._state == _PENDING:
                self.fail(err, priority=URGENT)
                if sim._process_watchers:
                    for fn in sim._process_watchers:
                        fn(self, "end")
            return


class Condition(Event):
    """Waits for a boolean combination of events.

    Succeeds with a dict mapping each *fired* constituent event to its value.
    Fails as soon as any constituent fails.
    """

    __slots__ = ("_events", "_need", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need: int):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        self._need = min(need, len(self._events)) if self._events else 0
        self._fired: list = []
        if self._need == 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired.append(event)
        if len(self._fired) >= self._need:
            self.succeed({ev: ev._value for ev in self._fired})


class AnyOf(Condition):
    """Condition that fires when *any* constituent event fires."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, need=1)


class AllOf(Condition):
    """Condition that fires when *all* constituent events have fired."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        super().__init__(sim, events, need=len(events))


class Scheduler:
    """Interface for pluggable event-calendar backends.

    Items are ``(when, priority, seq, event)`` tuples; ``seq`` is unique
    and monotone, so the tuple order is total.  A backend must return
    items in exactly that order — the repo's byte-identity guarantees
    (equal spec hash ⇒ bit-identical payload, whichever backend ran it)
    depend on it, and ``tests/test_property_kernel.py`` cross-checks the
    implementations against each other on random schedules.
    """

    __slots__ = ()

    def push(self, item: tuple) -> None:
        raise NotImplementedError

    def pop_until(self, horizon: float) -> Optional[tuple]:
        """Remove and return the least item with ``when <= horizon``,
        or None (leaving the calendar untouched) if there is none."""
        raise NotImplementedError

    def peek_when(self) -> float:
        """Time of the least item, or +inf when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every item (backends override with something cheaper)."""
        while self.pop_until(float("inf")) is not None:
            pass


class HeapScheduler(Scheduler):
    """The classic binary-heap calendar — the golden backend.

    :class:`Simulator` recognizes this class and aliases ``sim._queue``
    to :attr:`heap`, so the kernel's inlined push sites keep writing
    into the list with C ``heappush`` exactly as they always have.
    """

    __slots__ = ("heap",)

    def __init__(self):
        self.heap: list = []

    def push(self, item: tuple) -> None:
        heappush(self.heap, item)

    def pop_until(self, horizon: float) -> Optional[tuple]:
        heap = self.heap
        if heap and heap[0][0] <= horizon:
            return heappop(heap)
        return None

    def peek_when(self) -> float:
        return self.heap[0][0] if self.heap else float("inf")

    def __len__(self) -> int:
        return len(self.heap)

    def clear(self) -> None:
        self.heap.clear()  # in place: Simulator._queue aliases this list


class CalendarScheduler(Scheduler):
    """A bucketed calendar queue tuned to observed inter-event gaps.

    Time is cut into buckets of ``width`` seconds.  Future items land in
    their bucket *unsorted* — a dict append, O(1) — and a min-heap of
    bucket ticks remembers which buckets exist.  When the clock reaches
    a bucket it is sorted once (timsort, on input that is cheap to sort)
    and drained by index.  Two properties make this faster than a heap
    for µs-dense simulations:

    * a push costs an append instead of an O(log n) sift against the
      whole calendar, and the sort at activation touches only the
      handful of items that share the bucket;
    * a same-instant cascade (succeed → resume → succeed … at one
      timestamp) is ``insort``-ed directly into the draining bucket at
      or after the drain cursor, so the whole chain drains without
      re-entering any heap.

    The bucket width adapts: activation occupancy is sampled and the
    width is re-tuned (and the calendar deterministically rebuilt) when
    buckets run too full or too empty.  Order is the exact ``(when,
    priority, seq)`` total order — tick is monotone in ``when``, buckets
    drain in tick order, in-bucket order is the tuple sort, and a
    cascade item can never sort below the drain cursor because its
    ``when`` is never in the past.
    """

    __slots__ = ("_width", "_inv", "_buckets", "_ticks", "_active",
                 "_atick", "_idx", "_occ_items", "_occ_rounds")

    #: Default bucket width (seconds).  The model's event density is
    #: µs-scale (CF service times ~5–50 µs), so 1 µs buckets start close
    #: to the ideal one-handful-per-bucket regime; adaptation does the
    #: fine tuning from observed occupancy.
    DEFAULT_WIDTH = 1e-6

    #: Re-tune after this many bucket activations.
    _SAMPLE = 512
    #: Occupancy band: rebuild wider/narrower outside [low, high].
    _OCC_LOW = 1.5
    _OCC_HIGH = 24.0
    #: Width bounds keep adaptation from running away on degenerate
    #: schedules (all-same-instant, or hour-long idle gaps).
    _MIN_WIDTH = 1e-9
    _MAX_WIDTH = 1e-2

    def __init__(self, width: float = DEFAULT_WIDTH):
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width!r}")
        self._width = width
        self._inv = 1.0 / width
        self._buckets: dict = {}   # tick -> unsorted list of items
        self._ticks: list = []     # min-heap of ticks present in _buckets
        self._active: list = []    # the draining (sorted) bucket
        self._atick = -1           # tick of _active
        self._idx = 0              # drain cursor into _active
        self._occ_items = 0
        self._occ_rounds = 0

    @property
    def width(self) -> float:
        """Current bucket width in seconds (adapts during a run)."""
        return self._width

    def push(self, item: tuple) -> None:
        when = item[0]
        try:
            tick = int(when * self._inv)
        except (OverflowError, ValueError):
            # when == +inf: a bucket of its own, after every finite tick
            tick = when
        if tick == self._atick:
            # same-instant cascade (or same-bucket future event) while
            # this bucket drains: insert at/after the cursor — it fires
            # in order without touching the tick heap
            insort(self._active, item, self._idx)
        else:
            bucket = self._buckets.get(tick)
            if bucket is None:
                self._buckets[tick] = [item]
                heappush(self._ticks, tick)
            else:
                bucket.append(item)

    def _activate(self) -> bool:
        """Sort and mount the next bucket; False when none remain."""
        if not self._ticks:
            self._active = []
            self._atick = -1
            self._idx = 0
            return False
        if self._occ_rounds >= self._SAMPLE:
            self._retune()
        tick = heappop(self._ticks)
        bucket = self._buckets.pop(tick)
        bucket.sort()
        self._active = bucket
        self._atick = tick
        self._idx = 0
        self._occ_items += len(bucket)
        self._occ_rounds += 1
        return True

    def _retune(self) -> None:
        """Adapt the bucket width to the observed occupancy and rebuild.

        Deterministic: depends only on the event history, and the
        rebuild preserves the total order exactly (it only re-partitions
        the same items).  Called between buckets, when the active one is
        exhausted.
        """
        avg = self._occ_items / self._occ_rounds
        self._occ_items = 0
        self._occ_rounds = 0
        if avg > self._OCC_HIGH:
            width = max(self._width / 8.0, self._MIN_WIDTH)
        elif avg < self._OCC_LOW:
            width = min(self._width * 8.0, self._MAX_WIDTH)
        else:
            return
        if width == self._width:
            return
        items = self._active[self._idx:]
        for bucket in self._buckets.values():
            items.extend(bucket)
        self._width = width
        self._inv = 1.0 / width
        self._buckets = {}
        self._ticks = []
        self._active = []
        self._atick = -1
        self._idx = 0
        for item in items:
            self.push(item)

    def pop_until(self, horizon: float) -> Optional[tuple]:
        active, idx = self._active, self._idx
        if idx >= len(active):
            if not self._activate():
                return None
            active, idx = self._active, 0
        item = active[idx]
        if item[0] > horizon:
            return None
        self._idx = idx + 1
        return item

    def peek_when(self) -> float:
        active, idx = self._active, self._idx
        if idx >= len(active):
            if not self._activate():
                return float("inf")
            active, idx = self._active, 0
        return active[idx][0]

    def __len__(self) -> int:
        # computed on demand so the hot push/pop paths carry no counter
        n = len(self._active) - self._idx
        for bucket in self._buckets.values():
            n += len(bucket)
        return n

    def clear(self) -> None:
        self._buckets = {}
        self._ticks = []
        self._active = []
        self._atick = -1
        self._idx = 0


#: Names accepted by ``Simulator(scheduler=...)`` and, downstream, by
#: ``RunOptions.scheduler``.
SCHEDULERS = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}


class Simulator:
    """Owns the event calendar and the simulated clock.

    ``scheduler`` selects the calendar backend: a name from
    :data:`SCHEDULERS` (``"heap"`` — the golden default — or
    ``"calendar"``) or a ready :class:`Scheduler` instance.  Both
    built-in backends produce bit-identical runs; see the module
    docstring for when each wins.
    """

    def __init__(self, scheduler: Union[str, Scheduler] = "heap"):
        if isinstance(scheduler, str):
            try:
                scheduler = SCHEDULERS[scheduler]()
            except KeyError:
                raise ValueError(
                    f"unknown scheduler {scheduler!r}; "
                    f"expected one of {sorted(SCHEDULERS)}"
                ) from None
        self.scheduler: Scheduler = scheduler
        if type(scheduler) is HeapScheduler:
            # the golden fast path: push sites inline C heappush into
            # this list and skip the Scheduler interface entirely
            self._queue: Optional[list] = scheduler.heap
            self._alt: Optional[Scheduler] = None
        else:
            self._queue = None
            self._alt = scheduler
        self._now: float = 0.0
        self._seq = 0
        #: collapse mode (set by the model layer, never by the kernel):
        #: a finishing process nobody waits on skips its terminal event.
        #: Off by default — the golden schedule keeps every terminal.
        self._elide_done: bool = False
        self._active_process: Optional[Process] = None
        #: observers of the process lifecycle (see add_process_watcher);
        #: empty by default so the hot resume path pays one falsy check
        self._process_watchers: list = []
        #: processes whose generator has not finished, in creation order
        #: (a dict used as an ordered set); close() shuts them down
        self._live: dict = {}
        self._closed = False
        #: calendar events processed so far (the model layer's cost metric:
        #: fewer events for the same simulated outcome = a faster run)
        self.events_processed: int = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def add_process_watcher(
        self, fn: Callable[[Process, str], None]
    ) -> None:
        """Observe the process lifecycle: ``fn(process, event)`` is called
        with ``"start"`` when a process is registered and ``"end"`` when its
        generator finishes (normally or with an error).

        Watchers must be passive — they run inside the kernel and must not
        schedule or trigger events.  The trace facility uses this to close
        dangling spans when an instrumented process dies mid-span.
        """
        self._process_watchers.append(fn)

    # -- event construction --------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, triggered manually via succeed()/fail()."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event firing at *absolute* time ``when`` (>= now).

        Unlike ``timeout(when - now)``, the target time is used exactly as
        given — no ``now + delay`` float round trip — so a caller collapsing
        a chain of relative timeouts can land on the bit-identical instants
        the chain would have produced.
        """
        if when < self._now:
            raise ValueError("cannot schedule in the past")
        ev = Event(self)
        ev._value = value
        ev._state = _TRIGGERED
        self._seq = seq = self._seq + 1
        if self._alt is None:
            heappush(self._queue, (when, NORMAL, seq, ev))
        else:
            self._alt.push((when, NORMAL, seq, ev))
        return ev

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register a generator as a running process."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` (a plain callable, not a process) at absolute time."""
        if when < self._now:
            raise ValueError("cannot schedule in the past")
        ev = Event(self)
        ev._ok = True
        ev._state = _TRIGGERED
        ev.callbacks.append(lambda _e: fn())
        self._enqueue(when - self._now, NORMAL, ev)
        return ev

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        self._seq = seq = self._seq + 1
        if self._alt is None:
            heappush(self._queue, (self._now + delay, priority, seq, event))
        else:
            self._alt.push((self._now + delay, priority, seq, event))

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callable after ``delay`` seconds."""
        self.call_at(self._now + delay, fn)

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.  Raises IndexError when empty."""
        if self._alt is None:
            when, _prio, _seq, event = heappop(self._queue)
        else:
            item = self._alt.pop_until(float("inf"))
            if item is None:
                raise IndexError("step from an empty calendar")
            when, _prio, _seq, event = item
        self._now = when
        self.events_processed += 1
        event._run_callbacks()

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        if self._alt is None:
            return self._queue[0][0] if self._queue else float("inf")
        return self._alt.peek_when()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the calendar empties, ``until`` seconds pass, or an
        ``until`` event fires (its value is returned)."""
        if self._closed:
            raise SimulationError("simulator is closed")
        stop_value: list = []
        if isinstance(until, Event):
            if until._state == _PROCESSED:
                return until._value

            def _stop(ev: Event) -> None:
                stop_value.append(ev._value)
                if not ev._ok:
                    ev._defused = True
                raise StopSimulation()

            until.callbacks.append(_stop)
            horizon = float("inf")
        elif until is None:
            horizon = float("inf")
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError("cannot run into the past")

        # The event loop proper.  This is `step()` inlined — pop, advance
        # the clock, run callbacks — with the calendar state bound to
        # locals: two fewer Python frames and ~6 fewer attribute loads per
        # event, which is the bulk of the kernel's per-event cost.  One
        # loop body per backend: the heap loop pops the raw list, the
        # calendar loop drains the active bucket by cursor (one
        # `_activate` call per bucket, not per event), and any custom
        # Scheduler gets the generic `pop_until` loop.
        count = 0
        alt = self._alt
        try:
            if alt is None:
                queue = self._queue
                pop = heappop
                while queue and queue[0][0] <= horizon:
                    when, _prio, _seq, event = pop(queue)
                    self._now = when
                    count += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._state = _PROCESSED
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        # Nobody waited for (or defused) this failed event:
                        # surface the error (see Event._run_callbacks).
                        raise event._value
            elif type(alt) is CalendarScheduler:
                activate = alt._activate
                while True:
                    # re-read each iteration: callbacks push into (and
                    # _activate replaces) the active bucket
                    active = alt._active
                    idx = alt._idx
                    if idx >= len(active):
                        if not activate():
                            break
                        active = alt._active
                        idx = 0
                    item = active[idx]
                    when = item[0]
                    if when > horizon:
                        break
                    alt._idx = idx + 1
                    self._now = when
                    count += 1
                    event = item[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._state = _PROCESSED
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                pop_until = alt.pop_until
                while True:
                    item = pop_until(horizon)
                    if item is None:
                        break
                    self._now = item[0]
                    count += 1
                    event = item[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._state = _PROCESSED
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not event._defused:
                        raise event._value
        except StopSimulation:
            val = stop_value[0]
            if isinstance(until, Event) and not until._ok:
                raise val
            return val
        finally:
            # flushed once per run() call, not per event, to keep the
            # loop free of per-event attribute stores
            self.events_processed += count
        if horizon != float("inf"):
            self._now = horizon
        if isinstance(until, Event):
            raise SimulationError("simulation ended before 'until' event fired")
        return None

    def close(self) -> None:
        """End the simulation and release what it holds.

        Every live process has its generator closed, in creation order,
        so its ``with``/``finally`` exits (a request handed back, a span
        ended) run here rather than whenever the garbage collector gets
        to the frame.  Processes started by those exits are closed in
        turn.  Then the calendar and the process watchers are dropped.
        Afterwards :meth:`run` raises :class:`SimulationError`; the
        clock, ``events_processed`` and any model state stay readable.
        Idempotent.  Must not be called from inside a process.
        """
        if self._closed:
            return
        self._closed = True
        live = self._live
        first_error: Optional[BaseException] = None
        while live:
            procs = list(live)
            live.clear()
            for proc in procs:
                proc._target = None
                proc._cb = None
                try:
                    proc._generator.close()
                except Exception as exc:  # finish the teardown first
                    if first_error is None:
                        first_error = exc
        self.scheduler.clear()
        self._process_watchers = []
        if first_error is not None:
            raise first_error
