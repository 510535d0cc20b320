"""EXP-LOCK — lock structure behaviour (paper §3.3.1).

Two measurements:

* **False contention vs. lock-table size.**  "Through use of efficient
  hashing algorithms and granular serialization scope, false lock
  resource contention is kept to a minimum."  We sweep the table from
  2^8 to 2^20 entries under the same OLTP run and report the false- and
  real-contention rates — small tables collide, the product-sized table
  makes false contention negligible.

* **Synchronous grant latency.**  "The majority of requests for locks
  [are] granted cpu-synchronously ... measured in micro-seconds": the
  latency distribution of uncontended lock requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


from ..cf.lock import LockMode
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..simkernel import Tally
from .common import QUICK, Execution, print_rows, scaled_config, sweep

__all__ = [
    "run_locktable_sweep",
    "run_grant_latency",
    "locktable_specs",
    "grant_latency_spec",
    "main",
]

TABLE_SIZES = (1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20)

TABLE_RUNNER = "repro.experiments.exp_locktable:run_table_spec"
LATENCY_RUNNER = "repro.experiments.exp_locktable:run_latency_spec"


def locktable_specs(sizes: Sequence[int] = TABLE_SIZES,
                    n_systems: int = 4,
                    duration: float = QUICK["duration"],
                    warmup: float = QUICK["warmup"],
                    seed: int = 1) -> List[RunSpec]:
    """Declare one contention measurement per lock-table size."""
    specs = []
    for size in sizes:
        config = scaled_config(n_systems, seed=seed)
        config.cf.lock_table_entries = size
        specs.append(RunSpec(
            runner=TABLE_RUNNER, config=config,
            duration=duration, warmup=warmup, label=f"table-{size}",
        ))
    return specs


def run_table_spec(spec: RunSpec) -> dict:
    """Scenario runner: contention rates at one lock-table size."""
    with loaded_sysplex(spec.config, spec.options) as point:
        return _table_case(point.plex, spec)


def _table_case(plex, spec: RunSpec) -> dict:
    size = spec.config.cf.lock_table_entries
    plex.sim.run(until=spec.warmup)
    structure = plex.xes.find("IRLMLOCK1")
    req0 = structure.requests
    false0, real0 = structure.false_contention, structure.real_contention
    plex.reset_measurement()
    plex.sim.run(until=spec.warmup + spec.duration)
    result = plex.collect(spec.label or f"table-{size}")
    req = structure.requests - req0
    return {
        "lock_table_entries": size,
        "requests": req,
        "false_pct": 100 * (structure.false_contention - false0)
        / max(req, 1),
        "real_pct": 100 * (structure.real_contention - real0)
        / max(req, 1),
        "throughput": result.throughput,
        "p95_ms": 1e3 * result.response_p95,
    }


def run_locktable_sweep(sizes: Sequence[int] = TABLE_SIZES,
                        n_systems: int = 4,
                        duration: float = QUICK["duration"],
                        warmup: float = QUICK["warmup"],
                        seed: int = 1,
                        execution: Optional[Execution] = None) -> Dict:
    rows = sweep(locktable_specs(sizes, n_systems, duration, warmup, seed),
                 execution=execution)
    return {"rows": rows}


def grant_latency_spec(n_samples: int = 400, seed: int = 1) -> RunSpec:
    """Declare the uncontended sync-grant latency probe."""
    return RunSpec(
        runner=LATENCY_RUNNER, config=scaled_config(2, seed=seed),
        label="grant-latency", params={"n_samples": n_samples},
    )


def run_latency_spec(spec: RunSpec) -> Dict:
    """Scenario runner: uncontended sync lock grants on an idle sysplex."""
    options = spec.options.replace(terminals_per_system=0)
    with loaded_sysplex(spec.config, options) as point:
        return _grant_latency(point.plex, spec)


def _grant_latency(plex, spec: RunSpec) -> Dict:
    n_samples = spec.params["n_samples"]
    mgr = plex.instances["SYS00"].lockmgr
    tally = Tally("grant")

    def sampler():
        for i in range(n_samples):
            t0 = plex.sim.now
            yield from mgr.lock(("SYS00", f"probe{i}"), f"probe-res-{i}",
                                LockMode.EXCL)
            tally.record(plex.sim.now - t0)
            yield from mgr.unlock_all(("SYS00", f"probe{i}"))

    plex.sim.process(sampler())
    plex.sim.run(until=1.0)
    return {
        "summary": {
            "n": tally.n,
            "mean_us": 1e6 * tally.mean,
            "p95_us": 1e6 * tally.percentile(95),
            "max_us": 1e6 * tally.maximum,
            "all_microseconds": bool(tally.maximum < 1e-3),
        }
    }


def run_grant_latency(n_samples: int = 400, seed: int = 1,
                      execution: Optional[Execution] = None) -> Dict:
    """Latency of uncontended sync lock requests on an idle sysplex."""
    return sweep([grant_latency_spec(n_samples, seed)],
                 execution=execution)[0]


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    kw = QUICK if quick else {"duration": 1.0, "warmup": 0.5}
    # the size sweep and the latency probe are independent: one sweep call
    specs = locktable_specs(duration=kw["duration"], warmup=kw["warmup"],
                            seed=seed)
    results = sweep(specs + [grant_latency_spec(seed=seed)],
                    execution=execution)
    table = {"rows": results[:len(specs)]}
    lat = results[len(specs)]
    print_rows(
        "EXP-LOCK — false contention vs lock-table size (4 systems)",
        table["rows"],
        ["lock_table_entries", "requests", "false_pct", "real_pct",
         "throughput", "p95_ms"],
        execution=execution,
    )
    s = lat["summary"]
    print(
        f"\nsync grant latency: mean {s['mean_us']:.1f}us, "
        f"p95 {s['p95_us']:.1f}us, max {s['max_us']:.1f}us "
        f"(microseconds: {s['all_microseconds']})"
    )
    return {"sweep": table, "latency": lat}


if __name__ == "__main__":
    main(quick=False)
