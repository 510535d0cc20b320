"""EXP-LIST — shared work queues via the CF list structure (paper §3.3.3).

Workload distribution through a shared CF list (every system pops from
one queue, woken by list-transition signals) versus static per-system
assignment, under imbalanced arrivals (all work enters through one
system's network endpoint — a common SNA front-end pattern).

With static assignment the receiving system queues everything locally and
peers idle; with the shared list the first free server anywhere takes the
next item.  Reported: throughput, p95, utilization spread, and the list
structure's signalling counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..options import RunOptions
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..subsystems.txn import ListQueueRouter
from .common import QUICK, Execution, print_rows, scaled_config, sweep

__all__ = ["run_listqueue", "listqueue_specs", "main"]

CASE_RUNNER = "repro.experiments.exp_listqueue:run_case_spec"


def listqueue_specs(n_systems: int = 4,
                    offered_total: float = 900.0,
                    duration: float = QUICK["duration"],
                    warmup: float = QUICK["warmup"],
                    seed: int = 1) -> List[RunSpec]:
    """Declare the two work-distribution cases."""
    return [
        RunSpec(
            runner=CASE_RUNNER,
            config=scaled_config(n_systems, seed=seed),
            duration=duration, warmup=warmup,
            options=RunOptions(mode="open", router_policy="local"),
            label=mode,
            params={"mode": mode, "offered_total": offered_total},
        )
        for mode in ("static-local", "shared-cf-list")
    ]


def run_case_spec(spec: RunSpec) -> dict:
    """Scenario runner: one distribution scheme under one front-end."""
    options = spec.options.replace(offered_tps_per_system=0.0)
    with loaded_sysplex(spec.config, options) as point:
        return _distribution_case(point.plex, point.gen, spec)


def _distribution_case(plex, gen, spec: RunSpec) -> dict:
    mode = spec.params["mode"]
    offered_total = spec.params["offered_total"]
    if mode == "shared-cf-list":
        connections = {
            name: inst.xes_list
            for name, inst in plex.instances.items()
        }
        router = ListQueueRouter(
            plex.sim,
            [inst.tm for inst in plex.instances.values()],
            connections,
        )
        gen.router = router
    # concentrated arrivals: everything lands on home 0
    plex.sim.process(gen._arrivals(0, offered_total), name="front-end")
    plex.sim.run(until=spec.warmup)
    plex.reset_measurement()
    plex.sim.run(until=spec.warmup + spec.duration)
    r = plex.collect(mode)
    st = plex.xes.find("WORKQ1")
    return {
        "distribution": mode,
        "throughput": r.throughput,
        "mean_rt_ms": 1e3 * r.response_mean,
        "p95_ms": 1e3 * r.response_p95,
        "util_spread": round(r.utilization_spread, 3),
        "transitions_signalled": st.transitions_signalled,
    }


def run_listqueue(n_systems: int = 4,
                  offered_total: float = 900.0,
                  duration: float = QUICK["duration"],
                  warmup: float = QUICK["warmup"],
                  seed: int = 1,
                  execution: Optional[Execution] = None) -> Dict:
    rows = sweep(listqueue_specs(n_systems, offered_total, duration,
                                 warmup, seed), execution=execution)
    return {"rows": rows}


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    kw = QUICK if quick else {"duration": 1.2, "warmup": 0.6}
    out = run_listqueue(duration=kw["duration"], warmup=kw["warmup"],
                        seed=seed, execution=execution)
    print_rows(
        "EXP-LIST — shared CF work queue vs static assignment "
        "(single front-end)",
        out["rows"],
        ["distribution", "throughput", "mean_rt_ms", "p95_ms",
         "util_spread", "transitions_signalled"],
        execution=execution,
    )
    return out


if __name__ == "__main__":
    main(quick=False)
