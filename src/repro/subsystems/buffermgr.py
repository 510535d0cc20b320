"""Database buffer manager over the CF cache structure.

The paper's §3.3.2 walk-through, implemented end to end:

* Bringing a page into a local buffer **registers interest** with the CF
  (one sync command), tying the buffer slot to a local-vector bit.
* Re-using a cached page costs only the **local bit test** (the new CPU
  instruction — no CF trip).  If the bit was flipped by a
  cross-invalidate, the manager re-registers and refreshes, ideally from
  the CF's global cache ("high-speed local buffer refresh") and only
  otherwise from DASD.
* Committing updates **writes the changed page to the CF and
  cross-invalidates** peers in one CPU-synchronous command whose
  completion covers signal delivery.
* A **castout engine** drains changed blocks from the CF to DASD in the
  background (the CF is a store-in second-level cache, not the home
  location).

In non-data-sharing mode (the paper's single-system base case) the same
manager runs with no CF connection: pure local LRU pool plus a deferred
writer, which is what makes the §4 "cost of data sharing" comparison
apples-to-apples.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import filterfalse, islice
from typing import Generator, List, Optional, Tuple

from ..cf.cache import CacheStructure
from ..config import DatabaseConfig
from ..hardware.dasd import DasdFarm
from ..mvs.xes import XesConnection
from ..simkernel import Simulator

__all__ = ["BufferManager", "CastoutEngine"]

PAGE_BYTES = 4096


class BufferManager:
    """One database-manager instance's local buffer pool.

    The pool maps page -> slot (the buffer's local-vector bit index) in
    LRU order; the pages with uncommitted local updates sit in one dirty
    set, always a subset of the pool's pages.  No per-buffer object
    exists, so a prewarmed pool costs one dict entry per page to build
    and nothing for the cycle collector to walk.
    """

    def __init__(self, sim: Simulator, node, config: DatabaseConfig,
                 farm: DasdFarm, xes: Optional[XesConnection] = None,
                 trace=None):
        self.sim = sim
        self.node = node
        self.config = config
        self.farm = farm
        self.xes = xes  # None => non-data-sharing
        self.trace = trace  # Tracer or None (zero-cost when disabled)
        self._pool: "OrderedDict[object, int]" = OrderedDict()
        self._dirty: set = set()
        self._free_slots: List[int] = list(range(config.buffer_pages))
        # statistics
        self.local_hits = 0
        self.coherency_misses = 0
        self.cf_refreshes = 0
        self.dasd_reads = 0
        self.pages_written = 0

    @property
    def data_sharing(self) -> bool:
        return self.xes is not None

    @property
    def cache(self) -> Optional[CacheStructure]:
        return self.xes.structure if self.xes else None  # type: ignore

    # -- read path -----------------------------------------------------------
    def try_get_local(self, page: object) -> Optional[str]:
        """Plain-call fast path: ``"local"`` iff ``page`` is a clean local
        hit, else ``None`` with **no side effects** — the caller falls back
        to :meth:`get_page`, which redoes the lookup identically.

        A local hit costs only the vector-bit test (the paper's new CPU
        instruction) and touches no event machinery, so callers on the
        transaction inner loop skip building a generator for the common
        case entirely.
        """
        slot = self._pool.get(page)
        if slot is None:
            return None
        xes = self.xes
        if xes is None:
            self._pool.move_to_end(page)
            self.local_hits += 1
            return "local"
        if not xes.connector.active:
            return None  # let get_page raise SystemDown as before
        if xes.structure.vector_of(xes.connector).test(slot):
            self._pool.move_to_end(page)
            self.local_hits += 1
            return "local"
        return None  # cross-invalidated: get_page pays the refresh

    def get_page(self, page: object) -> Generator:
        """Process step: make ``page`` current in a local buffer.

        The caller must already hold a lock covering the page.  Returns
        'local' | 'cf' | 'dasd' describing where the data came from.
        """
        if self.data_sharing and not self.xes.connector.active:
            from ..hardware.cpu import SystemDown

            raise SystemDown(self.node.name)
        slot = self._pool.get(page)
        if slot is not None:
            self._pool.move_to_end(page)
            if not self.data_sharing:
                self.local_hits += 1
                return "local"
            # coherency check: local vector bit test, no CF access
            vector = self.cache.vector_of(self.xes.connector)
            if vector.test(slot):
                self.local_hits += 1
                return "local"
            # cross-invalidated since we last touched it
            self.coherency_misses += 1
            source = yield from self._register_and_fill(page, slot, None)
            return source

        # true miss: steal the LRU buffer
        slot, old_name = self._allocate(page)
        if not self.data_sharing:
            tr = self.trace
            if tr is None:
                yield from self.farm.read_page(page)
            else:
                yield from tr.traced("io", self.farm.read_page(page))
            self.dasd_reads += 1
            return "dasd"
        source = yield from self._register_and_fill(page, slot, old_name)
        return source

    def _allocate(self, page: object) -> Tuple[int, Optional[object]]:
        """Find a slot for ``page``; returns (slot, stolen_page_or_None)."""
        pool = self._pool
        if self._free_slots:
            slot = pool[page] = self._free_slots.pop()
            return slot, None
        victim_page, slot = pool.popitem(last=False)
        dirty = self._dirty
        if victim_page in dirty:
            # with force-at-commit this cannot happen in data-sharing
            # mode; in non-sharing mode the deferred writer owns dirty
            # pages, so push it back and steal the next-oldest clean one
            pool[victim_page] = slot
            pool.move_to_end(victim_page, last=False)
            clean_page = next(filterfalse(dirty.__contains__, pool), None)
            if clean_page is None:
                # everything dirty: temporarily extend the pool
                slot = pool[page] = self.config.buffer_pages + len(pool)
                return slot, None
            slot = pool.pop(clean_page)
            victim_page = clean_page
        pool[page] = slot
        return slot, victim_page if self.data_sharing else None

    def _register_and_fill(self, page: object, slot: int,
                           buf_old_name: Optional[object]) -> Generator:
        """One CF command: (name-replacement) registration + optional read."""
        cache, conn = self.cache, self.xes.connector
        old = buf_old_name

        def fn():
            if old is not None:
                cache.unregister(conn, old)
            return cache.register_and_read(conn, page, slot)

        # duplexing: registration mutates the directory, so the secondary
        # must see it too (the shared vector bit is only set once)
        def fn_mirror(s, c):
            if old is not None:
                s.unregister(c, old)
            s.register_and_read(c, page, slot)

        # the response carries the 4K block only on a CF hit
        will_hit = cache.has_data(page)
        status, _version = yield from self.xes.sync(
            fn, mirror=fn_mirror,
            in_bytes=PAGE_BYTES if will_hit else 64, data=will_hit
        )
        if status == "hit":
            self.cf_refreshes += 1
            return "cf"
        tr = self.trace
        if tr is None:
            yield from self.farm.read_page(page)
        else:
            yield from tr.traced("io", self.farm.read_page(page))
        self.dasd_reads += 1
        return "dasd"

    # -- write path ------------------------------------------------------------
    def mark_dirty(self, page: object) -> None:
        """Record a local update (the caller holds an EXCL lock)."""
        if page not in self._pool:
            raise KeyError(f"page {page!r} not in pool — read before write")
        self._dirty.add(page)
        self._pool.move_to_end(page)

    def is_dirty(self, page: object) -> bool:
        """Whether ``page`` holds a local update not yet externalized."""
        return page in self._dirty

    def written(self, page: object) -> None:
        """A commit wrote ``page`` to the CF: the local copy is clean."""
        self._dirty.discard(page)
        self.pages_written += 1

    def commit_writes(self, pages) -> Generator:
        """Process step: externalize a transaction's changed pages.

        Data sharing: write each page to the CF with cross-invalidation,
        CPU-synchronously (paper: the updater can "release its
        serialization on the shared data block" right after).  Non-sharing:
        nothing synchronous — the deferred writer will flush.
        """
        if not self.data_sharing:
            return
        for page in pages:
            if page not in self._dirty:
                continue
            cache, conn = self.cache, self.xes.connector
            yield from self.xes.sync(
                lambda p=page: cache.write_and_invalidate(conn, p),
                mirror=lambda s, c, p=page: s.write_and_invalidate(c, p),
                out_bytes=PAGE_BYTES,
                data=True,
                signal_wait=True,
            )
            self.written(page)

    def dirty_pages(self) -> List[object]:
        """Dirty pages in LRU order."""
        dirty = self._dirty
        return [p for p in self._pool if p in dirty]

    def flush_deferred(self, limit: int = 64) -> Generator:
        """Process step: non-sharing deferred write of dirty pages."""
        flushed = 0
        dirty = self._dirty
        for page in self.dirty_pages():
            if flushed >= limit:
                break
            if page not in dirty:
                continue
            dirty.discard(page)
            yield from self.farm.write_page(page, priority=5)
            self.pages_written += 1
            flushed += 1
        return flushed

    # -- prewarm / recovery ------------------------------------------------------
    def fill(self, pages) -> Tuple[List[object], List[int]]:
        """Seed the pool with ``pages`` at zero simulated cost, without
        touching the CF; returns the ``(names, slots)`` it added.

        New pages are taken in order, skipping duplicates and pages
        already pooled, while free slots last; they get slots in
        ``free.pop()`` order, exactly as that many misses would.  Built
        with C-level iteration (dedup, filter, slice, zip) — no per-page
        Python loop and no per-page object beyond the pool entry.
        """
        free = self._free_slots
        if not free:
            return [], []
        pool = self._pool
        fresh = dict.fromkeys(pages)
        if pool:
            fresh = filterfalse(pool.__contains__, fresh)
        names = list(islice(fresh, len(free)))
        cut = len(free) - len(names)
        slots = free[cut:]
        slots.reverse()
        del free[cut:]
        pool.update(zip(names, slots))
        return names, slots

    def prewarm(self, pages) -> int:
        """Seed the pool with ``pages`` (:meth:`fill`) and register them
        with every instance of the CF cache structure.

        Benchmark setup only: stands in for the hours of production running
        that precede any steady-state measurement.  Registers interest in
        the CF directory exactly as a costed read would.  For a whole
        sysplex use :meth:`repro.sysplex.Sysplex.prewarm`, which registers
        every system's pages in one bulk call per structure.
        """
        names, slots = self.fill(pages)
        if names and self.data_sharing:
            for structure, conn in self.xes.instances():
                structure.prewarm_many([(conn, names, slots)])
        return len(names)

    def valid_slots(self, vector) -> List[Tuple[object, int]]:
        """``(page, slot)`` of every pooled page whose bit is set in
        ``vector`` (all of them when ``vector`` is None), in LRU order.

        CF rebuild uses it to re-register only the buffers that were
        valid when the old structure was lost.  Each check is a counted
        :meth:`LocalVector.test`.
        """
        if vector is None:
            return list(self._pool.items())
        test = vector.test
        return [(page, slot) for page, slot in self._pool.items()
                if test(slot)]

    def contains(self, page: object) -> bool:
        return page in self._pool

    def is_valid(self, page: object) -> bool:
        """Local coherency state of a pooled page (diagnostic)."""
        slot = self._pool.get(page)
        if slot is None:
            return False
        if not self.data_sharing:
            return True
        return self.cache.vector_of(self.xes.connector).test(slot)


class CastoutEngine:
    """Background drain of changed CF blocks to DASD (castout ownership)."""

    def __init__(self, sim: Simulator, xes: XesConnection, farm: DasdFarm,
                 interval: float = 0.05, batch: int = 64):
        self.sim = sim
        self.xes = xes
        self.farm = farm
        self.interval = interval
        self.batch = batch
        self.active = True
        self.pages_cast = 0
        self._proc = sim.process(self._loop(), name="castout")

    def stop(self) -> None:
        self.active = False

    def _loop(self):
        try:
            yield from self._drain_loop()
        except Exception:
            pass  # hosting system or CF died: a peer takes over
        finally:
            # a returned loop is a dead engine either way — ``active``
            # False is how recovery paths know a new drainer is needed
            self.active = False

    def _drain_loop(self):
        """Drain in castout-class batches: one CF read command fetches up
        to ``batch`` changed blocks (DB2 castout reads are multi-page),
        the DASD writes overlap across devices, and one command resets
        the changed bits — so per-page CPU stays in the microseconds."""
        backlog = False
        while self.active:
            if not backlog:
                yield self.sim.timeout(self.interval)
            if not self.active or not self.xes.operational:
                return
            if not self.xes.node.alive:
                return
            # re-resolve each round: a duplex switch rebinds the
            # connection's structure in place mid-run
            cache = self.xes.structure
            names = cache.changed_blocks(self.batch)
            # keep draining back-to-back while a backlog exists; idle on
            # the interval only when caught up
            backlog = len(names) >= self.batch
            if not names:
                continue

            def read_batch():
                return {n: cache.castout(n) for n in names}

            versions = yield from self.xes.async_(
                read_batch,
                in_bytes=PAGE_BYTES * len(names),
                data=True,
                service_factor=max(1.0, 0.25 * len(names)),
            )
            writes = [
                self.sim.process(
                    self.farm.write_page(n, priority=5), name="castout-io"
                )
                for n, v in versions.items()
                if v is not None
            ]
            if writes:
                yield self.sim.all_of(writes)

            def complete_batch():
                for n, v in versions.items():
                    if v is not None:
                        cache.castout_complete(n, v)

            def complete_batch_mirror(s, c):
                for n, v in versions.items():
                    if v is not None:
                        s.castout_complete(n, v)

            yield from self.xes.async_(
                complete_batch,
                mirror=complete_batch_mirror,
                service_factor=max(1.0, 0.25 * len(names)),
            )
            self.pages_cast += sum(1 for v in versions.values() if v is not None)
