"""EXP-CFFAIL — Coupling Facility failover (paper §3.3).

"Multiple CF's can be connected for availability, performance, and
capacity reasons."  A dual-CF sysplex loses the facility holding all its
structures mid-run; XES rebuilds the lock, cache, and list structures
into the survivor from the connectors' local state (lock interest and
record data replayed from the lock managers, valid buffer registrations
from the pools) and the workload continues.

Reported: the throughput timeline around the CF loss, rebuild duration,
and how much in-flight work was lost.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runner import loaded_sysplex
from ..runspec import RunSpec
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_cf_failover", "cf_failover_spec", "main"]

CASE_RUNNER = "repro.experiments.exp_cf_failover:run_cf_failover_spec"


def cf_failover_spec(n_systems: int = 4,
                     window: float = 0.3,
                     seed: int = 1) -> RunSpec:
    """Declare the dual-CF loss scenario."""
    return RunSpec(
        runner=CASE_RUNNER,
        config=scaled_config(n_systems, seed=seed, n_cfs=2),
        label=f"cf-failover-{n_systems}", params={"window": window},
    )


def run_cf_failover_spec(spec: RunSpec) -> Dict:
    """Scenario runner: lose 1 of 2 CFs mid-run, watch the rebuild."""
    with loaded_sysplex(spec.config, spec.options) as point:
        return _cf_failover(point.plex, spec)


def _cf_failover(plex, spec: RunSpec) -> Dict:
    window = spec.params["window"]
    fail_at = 4 * window
    plex.sim.call_at(fail_at,
                     lambda: plex.xes.find("IRLMLOCK1").facility.fail())

    counter = plex.metrics.counter("txn.completed")
    failed = plex.metrics.counter("txn.failed")
    timeline: List[dict] = []
    prev = prev_f = 0
    for k in range(1, 23):
        plex.sim.run(until=k * window)
        c, f = counter.count, failed.count
        timeline.append(
            {
                "t": round(k * window, 2),
                "throughput": (c - prev) / window,
                "lost": f - prev_f,
                "phase": "pre" if k * window <= fail_at else "post",
            }
        )
        prev, prev_f = c, f

    pre = [w["throughput"] for w in timeline if w["phase"] == "pre"]
    # steady state after the post-failover transient (the rebuilt group
    # buffer pool starts empty, so there is a re-population dip first)
    post = [w["throughput"] for w in timeline[-5:]]
    return {
        "timeline": timeline,
        "summary": {
            "fail_at": fail_at,
            "rebuilds": plex.metrics.counter("cf.rebuilds").count,
            "pre_tput": sum(pre) / len(pre),
            "post_tput": sum(post) / len(post),
            "lost_total": failed.count,
            "surviving_cf": plex.xes.find("IRLMLOCK1").facility.name,
        },
    }


def run_cf_failover(n_systems: int = 4,
                    window: float = 0.3,
                    seed: int = 1,
                    execution: Optional[Execution] = None) -> Dict:
    return sweep([cf_failover_spec(n_systems, window, seed)],
                 execution=execution)[0]


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_cf_failover(window=0.3 if quick else 0.5, seed=seed,
                          execution=execution)
    print_rows(
        "EXP-CFFAIL — losing 1 of 2 Coupling Facilities mid-run",
        out["timeline"],
        ["t", "throughput", "lost", "phase"],
        execution=execution,
    )
    s = out["summary"]
    print(
        f"\nCF failed at t={s['fail_at']:.1f}s; structures rebuilt into "
        f"{s['surviving_cf']} ({s['rebuilds']} rebuild); "
        f"{s['lost_total']} transactions lost; throughput "
        f"{s['pre_tput']:.0f} -> {s['post_tput']:.0f} tps"
    )
    return out


if __name__ == "__main__":
    main(quick=False)
