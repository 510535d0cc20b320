"""EXP-AVAIL — continuous availability (paper §2.5).

An N-system sysplex is driven open-loop at (N−1)/N of its capacity — the
paper's "1/N spare system capacity" rule — and one system is killed
mid-run.  We report the throughput timeline in windows around the
failure: the dip while in-flight work is lost and retained locks block,
the detection + fencing + ARM restart + peer recovery milestones, and
the post-recovery steady state (which must match the pre-failure offered
load, since the survivors have the headroom to absorb it).

A second scenario runs a **planned rolling outage** (one system at a time,
paper §2.5's release-migration story) and verifies service continuity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..options import RunOptions
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from .common import Execution, print_rows, scaled_config, sweep

__all__ = [
    "run_availability",
    "run_rolling_maintenance",
    "availability_spec",
    "rolling_spec",
    "main",
]

UNPLANNED_RUNNER = "repro.experiments.exp_availability:run_unplanned_spec"
ROLLING_RUNNER = "repro.experiments.exp_availability:run_rolling_spec"


def availability_spec(n_systems: int = 4,
                      offered_fraction: float = 0.5,
                      window: float = 0.5,
                      seed: int = 1) -> RunSpec:
    """Declare the unplanned-outage scenario."""
    from ..config import ArmConfig, XcfConfig

    # an availability-tuned sysplex: aggressive SFM detection interval and
    # a fast restart policy (the knobs real installations tune for exactly
    # this scenario)
    config = scaled_config(
        n_systems, seed=seed,
        arm=ArmConfig(restart_time=0.5, log_replay_time=0.3),
        xcf=XcfConfig(heartbeat_interval=0.25),
    )
    return RunSpec(
        runner=UNPLANNED_RUNNER, config=config,
        options=RunOptions(mode="open", router_policy="wlm"),
        label=f"avail-unplanned-{n_systems}",
        params={"offered_fraction": offered_fraction, "window": window},
    )


def run_unplanned_spec(spec: RunSpec) -> Dict:
    """Scenario runner: kill one of N systems, report the timeline."""
    # per-system capacity at ~360tps/engine; offered at fraction of total
    per_system_capacity = 330.0
    offered = per_system_capacity * spec.params["offered_fraction"]
    options = spec.options.replace(offered_tps_per_system=offered)
    with loaded_sysplex(spec.config, options) as point:
        return _unplanned(point.plex, spec, offered)


def _unplanned(plex, spec: RunSpec, offered: float) -> Dict:
    n_systems = spec.config.n_systems
    window = spec.params["window"]
    fail_at = 3 * window
    victim = plex.nodes[n_systems - 1]
    plex.injector.crash_system(victim, at=fail_at)

    counter = plex.metrics.counter("txn.completed")
    failed_counter = plex.metrics.counter("txn.failed")
    timeline: List[dict] = []
    n_windows = 24
    prev = prev_failed = 0
    for k in range(1, n_windows + 1):
        plex.sim.run(until=k * window)
        c, f = counter.count, failed_counter.count
        timeline.append(
            {
                "t": round(k * window, 2),
                "throughput": (c - prev) / window,
                "lost": f - prev_failed,
                "phase": ("pre-failure" if k * window <= fail_at
                          else "post-failure"),
            }
        )
        prev, prev_failed = c, f

    pre = [w["throughput"] for w in timeline if w["phase"] == "pre-failure"]
    post = [w["throughput"] for w in timeline[-6:]]
    recovery_times = [t for t, _s, _n in plex.recovery.recoveries]
    summary = {
        "offered_total": offered * n_systems,
        "pre_failure_tput": sum(pre) / len(pre),
        "post_recovery_tput": sum(post) / len(post),
        "continuity_ratio": (sum(post) / len(post)) / (sum(pre) / len(pre)),
        "failure_at": fail_at,
        "detected_at": (
            plex.monitor.detection_log[0][0]
            if plex.monitor.detection_log else None
        ),
        "recovered_at": recovery_times[0] if recovery_times else None,
        "retained_after": len(plex.lock_space.retained),
        "restarts": len(plex.arm.restart_log),
    }
    return {"timeline": timeline, "summary": summary,
            "events": plex.injector.log_events()}


def run_availability(n_systems: int = 4,
                     offered_fraction: float = 0.5,
                     window: float = 0.5,
                     seed: int = 1,
                     execution: Optional[Execution] = None) -> Dict:
    """Kill one of N systems; report the throughput timeline."""
    return sweep([availability_spec(n_systems, offered_fraction, window,
                                    seed)], execution=execution)[0]


def rolling_spec(n_systems: int = 3,
                 outage: float = 2.0,
                 seed: int = 1) -> RunSpec:
    """Declare the planned rolling-maintenance scenario."""
    return RunSpec(
        runner=ROLLING_RUNNER, config=scaled_config(n_systems, seed=seed),
        options=RunOptions(mode="open", offered_tps_per_system=180.0,
                           router_policy="wlm"),
        label=f"avail-rolling-{n_systems}", params={"outage": outage},
    )


def run_rolling_spec(spec: RunSpec) -> Dict:
    """Scenario runner: outages rolled one system at a time (§2.5)."""
    with loaded_sysplex(spec.config, spec.options) as point:
        return _rolling(point.plex, spec)


def _rolling(plex, spec: RunSpec) -> Dict:
    n_systems = spec.config.n_systems
    outage = spec.params["outage"]
    plex.injector.rolling_maintenance(plex.nodes, start=1.0, outage=outage,
                                      gap=1.5)
    total = 1.0 + n_systems * (outage + 1.5) + 1.0
    counter = plex.metrics.counter("txn.completed")
    window = 0.5
    timeline = []
    prev = 0
    k = 0
    while k * window < total:
        k += 1
        plex.sim.run(until=k * window)
        c = counter.count
        down = [n.name for n in plex.nodes if not n.alive]
        timeline.append(
            {
                "t": round(k * window, 2),
                "throughput": (c - prev) / window,
                "down": ",".join(down) or "-",
            }
        )
        prev = c
    zero_windows = sum(1 for w in timeline if w["throughput"] == 0)
    return {
        "timeline": timeline,
        "summary": {
            "zero_throughput_windows": zero_windows,
            "all_back": all(n.alive for n in plex.nodes),
        },
        "events": plex.injector.log_events(),
    }


def run_rolling_maintenance(n_systems: int = 3,
                            outage: float = 2.0,
                            seed: int = 1,
                            execution: Optional[Execution] = None) -> Dict:
    """Planned outages rolled one system at a time (§2.5)."""
    return sweep([rolling_spec(n_systems, outage, seed)],
                 execution=execution)[0]


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    # both scenarios are independent: declare them together so a parallel
    # executor overlaps them
    out, roll = sweep([
        availability_spec(window=0.4 if quick else 0.6, seed=seed),
        rolling_spec(outage=1.2 if quick else 2.0, seed=seed),
    ], execution=execution)
    print_rows(
        "EXP-AVAIL — unplanned outage of 1 of 4 systems",
        out["timeline"],
        ["t", "throughput", "lost", "phase"],
        execution=execution,
    )
    s = out["summary"]
    print(
        f"\npre-failure {s['pre_failure_tput']:.0f} tps -> post-recovery "
        f"{s['post_recovery_tput']:.0f} tps "
        f"(continuity {100 * s['continuity_ratio']:.1f}%), "
        f"recovered at t={s['recovered_at']}"
    )
    print_rows(
        "EXP-AVAIL — planned rolling maintenance (3 systems)",
        roll["timeline"],
        ["t", "throughput", "down"],
        execution=execution,
    )
    print(f"\nzero-throughput windows: "
          f"{roll['summary']['zero_throughput_windows']}")
    return {"unplanned": out, "rolling": roll}


if __name__ == "__main__":
    main(quick=False)
