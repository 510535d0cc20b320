"""ABL-GRAN — lock granularity: record-level sharing vs CI/page locks.

Paper §3.3.1 credits the lock structure with "high-performance,
finely-grained lock resource management, maximizing concurrency", and
§5.2 announces VSAM data sharing (which shipped as *record-level*
sharing).  This ablation shows why the fine grain matters: the same
keyed-update workload runs against the same datasets under

* **record** locks (VSAM RLS proper): two transactions updating
  different records of one control interval proceed concurrently;
* **ci** locks (the pre-RLS granularity): they serialize for the full
  transaction.

With a small hot key range (records clustered into few CIs), CI locking
collapses into a convoy while record locking keeps scaling.
"""

from __future__ import annotations

from typing import Dict, List, Optional


from ..hardware.dasd import DasdDevice
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..simkernel import Tally
from ..subsystems.logmgr import LogManager
from ..subsystems.vsam import VsamCatalog, VsamRls
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_granularity", "granularity_specs", "main"]

CASE_RUNNER = "repro.experiments.abl_granularity:run_case_spec"


def granularity_specs(n_systems: int = 4, hot_records: int = 800,
                      duration: float = 0.8, warmup: float = 0.3,
                      seed: int = 1) -> List[RunSpec]:
    """Declare the two lock-granularity cases over the same workload."""
    return [
        RunSpec(
            runner=CASE_RUNNER,
            config=scaled_config(n_systems, seed=seed),
            duration=duration, warmup=warmup, label=granularity,
            params={"granularity": granularity, "hot_records": hot_records},
        )
        for granularity in ("record", "ci")
    ]


def run_case_spec(spec: RunSpec) -> dict:
    """Scenario runner: hot keyed updates at one lock granularity."""
    options = spec.options.replace(terminals_per_system=0)
    with loaded_sysplex(spec.config, options) as point:
        return _granularity_case(point.plex, spec)


def _granularity_case(plex, spec: RunSpec) -> dict:
    granularity = spec.params["granularity"]
    hot_records = spec.params["hot_records"]
    config = spec.config
    duration, warmup = spec.duration, spec.warmup
    catalog = VsamCatalog(first_page=10_000_000)
    catalog.define("HOT", max_cis=2_000, records_per_ci=20)

    instances = list(plex.instances.values())
    rlss: List[VsamRls] = []
    for i, inst in enumerate(instances):
        dev = DasdDevice(plex.sim, config.dasd,
                         plex.streams.stream(f"vlog{i}"), f"vlog{i}")
        log = LogManager(plex.sim, inst.node, config.db, dev)
        rlss.append(
            VsamRls(plex.sim, inst.node, catalog, inst.lockmgr,
                    inst.buffers, log, lock_granularity=granularity)
        )

    # seed the hot records (they cluster into hot_records/20 CIs)
    def seed_data():
        for k in range(hot_records):
            yield from rlss[0].put(("seed", k), "HOT", k)
            yield from rlss[0].commit(("seed", k))

    p = plex.sim.process(seed_data())
    plex.sim.run(until=p)

    rt = Tally("rt")
    done = [0]

    def terminal(i, rls, rng):
        txn_seq = 0
        while True:
            txn_seq += 1
            txn = (i, txn_seq)
            t0 = plex.sim.now
            try:
                for _ in range(2):
                    key = int(rng.integers(hot_records))
                    yield from rls.get(txn, "HOT", key)
                for _ in range(2):
                    key = int(rng.integers(hot_records))
                    yield from rls.put(txn, "HOT", key)
                yield from rls.commit(txn)
            except Exception:
                yield from rls.backout(txn)
                continue
            rt.record(plex.sim.now - t0)
            done[0] += 1

    for i, rls in enumerate(rlss):
        rng = plex.streams.stream(f"vsam-term-{i}")
        for j in range(6):
            plex.sim.process(terminal((i, j), rls, rng),
                             name=f"vterm-{i}.{j}")

    start = plex.sim.now
    plex.sim.run(until=start + warmup)
    rt.reset()
    base = done[0]
    plex.sim.run(until=start + warmup + duration)
    completed = done[0] - base
    return {
        "granularity": granularity,
        "systems": config.n_systems,
        "throughput": completed / duration,
        "mean_rt_ms": 1e3 * rt.mean,
        "p95_ms": 1e3 * rt.percentile(95),
        "lock_waits": plex.lock_space.waits,
        "deadlocks": plex.lock_space.deadlocks,
    }


def run_granularity(n_systems: int = 4, hot_records: int = 800,
                    duration: float = 0.8, warmup: float = 0.3,
                    seed: int = 1,
                    execution: Optional[Execution] = None) -> Dict:
    rows = sweep(granularity_specs(n_systems, hot_records, duration,
                                   warmup, seed), execution=execution)
    return {"rows": rows}


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_granularity(duration=0.8 if quick else 2.0, seed=seed,
                          execution=execution)
    print_rows(
        "ABL-GRAN — record-level vs CI-level locking (hot keyed updates)",
        out["rows"],
        ["granularity", "systems", "throughput", "mean_rt_ms", "p95_ms",
         "lock_waits", "deadlocks"],
        execution=execution,
    )
    return out


if __name__ == "__main__":
    main(quick=False)
