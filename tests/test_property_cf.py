"""Property-based tests (hypothesis) on the CF structures' invariants."""

from hypothesis import given, settings, strategies as st

from repro.cf import (
    CacheStructure,
    ListEntry,
    ListStructure,
    LockMode,
    LockStructure,
)
from repro.cf.cache import CacheFullError
from repro.config import CfConfig, DatabaseConfig, SysplexConfig
from repro.sysplex import CACHE_STRUCTURE, Sysplex

# ---------------------------------------------------------------- lock ----

lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "release"]),
        st.integers(0, 3),                      # connector
        st.integers(0, 5),                      # resource name id
        st.sampled_from([LockMode.SHR, LockMode.EXCL]),
    ),
    max_size=60,
)


@given(lock_ops)
@settings(max_examples=120, deadline=None)
def test_lock_table_never_grants_incompatible(ops):
    """No interleaving of requests/releases produces two different
    connectors holding the same *hash class* incompatibly."""
    st_ = LockStructure("P", n_entries=8)  # tiny: collisions guaranteed
    conns = [st_.connect(f"SYS{i:02d}") for i in range(4)]
    granted = {}  # (conn_id, name, mode) -> count

    for op, c, n, mode in ops:
        name = f"res{n}"
        if op == "request":
            r = st_.request(conns[c], name, mode)
            if r.granted:
                key = (c, name, mode)
                granted[key] = granted.get(key, 0) + 1
        else:
            key = (c, name, mode)
            if granted.get(key):
                st_.release(conns[c], name, mode)
                granted[key] -= 1

        # invariant: per hash class, EXCL interest from one connector
        # excludes any interest from another
        for idx, entry in st_._table.items():
            excl_holders = {
                cid for cid, names in entry.holds.items()
                if any(cnt[1] > 0 for cnt in names.values())
            }
            if excl_holders:
                assert len(entry.holds) == 1, (
                    f"entry {idx}: EXCL {excl_holders} with "
                    f"{set(entry.holds)}"
                )


@given(lock_ops)
@settings(max_examples=60, deadline=None)
def test_lock_table_counts_never_negative(ops):
    st_ = LockStructure("P", n_entries=4)
    conns = [st_.connect(f"SYS{i:02d}") for i in range(4)]
    for op, c, n, mode in ops:
        name = f"res{n}"
        if op == "request":
            st_.request(conns[c], name, mode)
        else:
            st_.release(conns[c], name, mode)
        for entry in st_._table.values():
            for names in entry.holds.values():
                for shr, excl in names.values():
                    assert shr >= 0 and excl >= 0


# ---------------------------------------------------------------- cache ----

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "unregister"]),
        st.integers(0, 2),   # connector
        st.integers(0, 4),   # page
    ),
    max_size=60,
)


@given(cache_ops)
@settings(max_examples=120, deadline=None)
def test_cache_coherency_invariant(ops):
    """A valid local bit always refers to the latest version — under any
    interleaving of reads, writes, and unregisters."""
    cache = CacheStructure("P", data_elements=4, directory_entries=16)
    conns = [cache.connect(f"SYS{i:02d}") for i in range(3)]
    for op, c, p in ops:
        page = f"pg{p}"
        if op == "read":
            cache.register_and_read(conns[c], page, bit_index=p)
        elif op == "write":
            try:
                cache.write_and_invalidate(conns[c], page)
            except Exception:
                # cache full of changed data is a legal outcome here
                continue
        else:
            cache.unregister(conns[c], page)
        cache.check_coherency()


@given(cache_ops)
@settings(max_examples=60, deadline=None)
def test_cache_versions_monotonic(ops):
    cache = CacheStructure("P", data_elements=8, directory_entries=32)
    conns = [cache.connect(f"SYS{i:02d}") for i in range(3)]
    seen = {}
    for op, c, p in ops:
        page = f"pg{p}"
        if op == "write":
            try:
                cache.write_and_invalidate(conns[c], page)
            except Exception:
                continue
        v = cache.version_of(page)
        assert v >= seen.get(page, 0)
        seen[page] = v


# ------------------------------------------------------- bulk prewarm ----

def _cache_state(cache):
    """Everything a prewarm may touch on one cache structure instance."""
    return (
        cache.duplex_state(),
        # insertion order too: XI fan-out follows the registrants' order
        [(name, list(e.registrants.items()), list(e.seen.items()))
         for name, e in cache._dir.items()],
        {cid: list(v._bits) for cid, v in cache.vectors.items()},
        cache.reads, cache.read_hits, cache.reclaims, cache.xi_signals,
    )


def _apply_preamble(cache, conns, ops):
    """Identical setup on either side: directory entries with data,
    changed and castout-complete (clean) blocks, prior registrations."""
    for op, c, p in ops:
        try:
            if op == "read":
                cache.register_and_read(conns[c], p, p)
            elif op == "write":
                cache.write_and_invalidate(conns[c], p)
            else:
                cache.castout_complete(p, cache.version_of(p))
        except CacheFullError:
            continue  # store-in storage full of changed data: legal


preamble_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "castout"]),
              st.integers(0, 2),    # connector
              st.integers(0, 9)),   # page
    max_size=15,
)
prewarm_pairs = st.one_of(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12)), max_size=12),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12)), max_size=12,
             unique_by=lambda t: t[0]),
)


@given(preamble_ops,
       st.lists(st.tuples(st.integers(0, 2), prewarm_pairs),
                min_size=1, max_size=4),
       st.booleans(), st.integers(3, 16))
@settings(max_examples=150, deadline=None)
def test_bulk_prewarm_equals_register_and_read(ops, regs, shared, dir_entries):
    """``prewarm_many`` leaves the directory, vectors and statistics
    exactly as one ``register_and_read`` per pair, connector by connector
    — bulk pass (shared duplicate-free lists, room in the directory) or
    per-connector fallback (unequal lists, duplicates, a directory small
    enough that ``_reclaim_directory`` fires)."""
    if shared:  # every connector registers the same list
        regs = [(c, regs[0][1]) for c, _ in regs]
    sides = []
    for bulk in (True, False):
        cache = CacheStructure("P", data_elements=2,
                               directory_entries=dir_entries)
        conns = [cache.connect(f"SYS{i:02d}") for i in range(3)]
        _apply_preamble(cache, conns, ops)
        if bulk:
            cache.prewarm_many([
                (conns[c], [n for n, _ in pairs], [b for _, b in pairs])
                for c, pairs in regs
            ])
        else:
            for c, pairs in regs:
                for name, bit in pairs:
                    cache.register_and_read(conns[c], name, bit)
        sides.append(_cache_state(cache))
    assert sides[0] == sides[1]


def _reference_prewarm(buffers, pages):
    """Pre-bulk semantics: fill page by page while free slots last, one
    ``register_and_read`` per page on every structure instance."""
    pool, free = buffers._pool, buffers._free_slots
    for page in pages:
        if not free or page in pool:
            continue
        slot = pool[page] = free.pop()
        if buffers.data_sharing:
            for structure, conn in buffers.xes.instances():
                structure.register_and_read(conn, page, slot)


@given(st.integers(1, 3), st.integers(1, 8), st.booleans(),
       st.integers(3, 40), preamble_ops,
       st.lists(st.integers(0, 2)),                    # pre-filled systems
       st.lists(st.integers(0, 15), max_size=20),      # pre-fill pages
       st.lists(st.integers(0, 15), max_size=20))      # prewarm pages
@settings(max_examples=80, deadline=None)
def test_sysplex_prewarm_equals_per_page_registration(
        n_systems, buffer_pages, duplex, dir_entries, ops, prefilled,
        prefill, pages):
    """``Sysplex.prewarm`` (pool fill + one bulk call per cache structure
    instance) ends in the state of filling each system in instance order
    with one ``register_and_read`` per page per instance.  Covers several
    connectors, a duplexed structure (primary and secondary), duplicate
    pages, pools that run out of slots partway, a directory holding
    changed/data entries, systems with unequal lists (some pools
    pre-filled) and directories small enough to reclaim."""
    cfg = SysplexConfig(
        n_systems=n_systems, n_cfs=2 if duplex else 1, seed=1,
        db=DatabaseConfig(n_pages=64, buffer_pages=buffer_pages),
        cf=CfConfig(duplex="cache" if duplex else "none", cache_elements=2,
                    cache_directory_entries=dir_entries),
    )
    sides = []
    for bulk in (True, False):
        plex = Sysplex(cfg)
        insts = list(plex.instances.values())
        primary = plex.xes.find(CACHE_STRUCTURE)
        caches = [primary]
        if duplex:
            caches.append(plex.xes.duplex_pairs[CACHE_STRUCTURE].secondary)
        for cache in caches:
            conns = [cache.connectors[i.xes_cache.connector.conn_id]
                     for i in insts]
            _apply_preamble(cache, conns * 3, ops)
        for i in prefilled:
            if i < n_systems:
                if bulk:
                    insts[i].buffers.prewarm(prefill)
                else:
                    _reference_prewarm(insts[i].buffers, prefill)
        if bulk:
            plex.prewarm(pages)
        else:
            for inst in insts:
                _reference_prewarm(inst.buffers, pages)
        sides.append((
            [_cache_state(c) for c in caches],
            [(list(i.buffers._pool.items()), list(i.buffers._free_slots))
             for i in insts],
            len(plex.sim._queue),
        ))
        plex.close()
    assert sides[0] == sides[1]


# ---------------------------------------------------------------- list ----

list_ops = st.lists(
    st.tuples(
        st.sampled_from(["push_fifo", "push_lifo", "push_keyed", "pop",
                         "move", "delete_head"]),
        st.integers(0, 1),   # connector
        st.integers(0, 2),   # header
        st.integers(0, 9),   # key/data
    ),
    max_size=80,
)


@given(list_ops)
@settings(max_examples=120, deadline=None)
def test_list_entries_conserved(ops):
    """Pushes minus pops/deletes equals the structure population; moves
    conserve entries; keyed lists stay sorted."""
    ls = ListStructure("P", n_headers=3)
    conns = [ls.connect(f"SYS{i:02d}") for i in range(2)]
    pushed = popped = 0
    for op, c, h, k in ops:
        if op.startswith("push"):
            where = op.split("_")[1]
            ls.push(conns[c], h, ListEntry(key=k, data=k), where=where)
            pushed += 1
        elif op == "pop":
            if ls.pop(conns[c], h) is not None:
                popped += 1
        elif op == "move":
            entries = ls.read(h)
            if entries:
                ls.move(conns[c], h, (h + 1) % 3, entries[0].entry_id)
        elif op == "delete_head":
            entries = ls.read(h)
            if entries and ls.delete(conns[c], h, entries[0].entry_id):
                popped += 1
        assert ls.total_entries == pushed - popped
        assert ls.total_entries == sum(ls.length(i) for i in range(3))


@given(st.lists(st.integers(0, 100), max_size=40))
@settings(max_examples=80, deadline=None)
def test_keyed_list_always_sorted(keys):
    ls = ListStructure("P", n_headers=1)
    conn = ls.connect("SYS00")
    for k in keys:
        ls.push(conn, 0, ListEntry(key=k), where="keyed")
        got = [e.key for e in ls.read(0)]
        assert got == sorted(got)
