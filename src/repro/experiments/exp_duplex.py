"""EXP-DUPLEX — structure duplexing: steady-state cost vs. recovery time.

Paper §2.5/§3.3: a CF failure forces every structure it hosted through
recovery.  Simplex structures take the *rebuild* path — reconstruct a
fresh instance from the connectors' local state, seconds of outage for
the lock/cache/list users.  System-managed duplexing buys that time
back: every mutating command also runs against a secondary instance in
a second CF (extra link + service time on the write path), so the same
failure becomes a *duplex switch* — promote the surviving secondary in
place, no state replay.

This experiment runs the identical dual-CF failure scenario as
EXP-CFFAIL under ``duplex="none"`` and ``duplex="all"`` and reports both
sides of the trade-off:

* **overhead** — steady-state throughput before the failure (the
  duplexed-write protocol taxes every commit);
* **MTTR** — the SFM incident log's measured per-structure recovery
  times (switch vs. rebuild), plus lost work and the throughput dip.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CfConfig
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_duplex", "duplex_spec", "duplex_specs", "main"]

CASE_RUNNER = "repro.experiments.exp_duplex:run_duplex_spec"


def duplex_spec(n_systems: int = 4,
                window: float = 0.3,
                seed: int = 1,
                duplex: str = "none") -> RunSpec:
    """Declare one dual-CF loss scenario under a duplexing policy."""
    return RunSpec(
        runner=CASE_RUNNER,
        config=scaled_config(n_systems, seed=seed, n_cfs=2,
                             cf=CfConfig(duplex=duplex)),
        label=f"duplex-{duplex}-{n_systems}sys",
        params={"window": window},
    )


def duplex_specs(n_systems: int = 4, window: float = 0.3,
                 seed: int = 1) -> List[RunSpec]:
    """The trade-off curve: the same failure under every duplex policy.

    Partial policies (just the lock / cache / list class) pay the
    duplexed-write tax only on that class's commands and switch only
    that structure — the rest still rebuild.
    """
    return [
        duplex_spec(n_systems, window, seed, duplex=policy)
        for policy in ("none", "lock", "cache", "list", "all")
    ]


def run_duplex_spec(spec: RunSpec) -> Dict:
    """Scenario runner: lose the primary CF mid-run, watch recovery.

    Identical shape to EXP-CFFAIL's runner (same fail time, same 22
    windows) so the two policies differ *only* in the recovery path the
    failure takes; the SFM incident log carries the measured recovery
    times either way.
    """
    with loaded_sysplex(spec.config, spec.options) as point:
        return _duplex_failover(point.plex, spec)


def _duplex_failover(plex, spec: RunSpec) -> Dict:
    window = spec.params["window"]
    fail_at = 4 * window
    # with duplexing on, every primary lives in the first CF, so failing
    # the lock structure's facility hits all primaries at once — the
    # exact scenario EXP-CFFAIL rebuilds its way out of
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
    post = [w["throughput"] for w in timeline[-5:]]
    sfm = plex.sfm.report()
    recoveries = [i for i in sfm["incidents"]
                  if i["kind"] in ("switch", "rebuild")]
    return {
        "timeline": timeline,
        "sfm": sfm,
        "summary": {
            "duplex": spec.config.cf.duplex,
            "fail_at": fail_at,
            "switches": plex.metrics.counter("cf.switches").count,
            "rebuilds": plex.metrics.counter("cf.rebuilds").count,
            "reestablished": (
                plex.metrics.counter("duplex.reestablished").count
            ),
            "pre_tput": sum(pre) / len(pre),
            "post_tput": sum(post) / len(post),
            "lost_total": failed.count,
            "recovery_ms_max": max(
                (i["recovery_ms"] for i in recoveries), default=0.0
            ),
            "slo_met": all(i["slo_met"] for i in recoveries),
        },
    }


def run_duplex(n_systems: int = 4, window: float = 0.3, seed: int = 1,
               execution: Optional[Execution] = None) -> List[Dict]:
    return sweep(duplex_specs(n_systems, window, seed),
                 execution=execution)


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    outs = run_duplex(window=0.3 if quick else 0.5, seed=seed,
                      execution=execution)
    rows = []
    for out in outs:
        s = out["summary"]
        rows.append(
            {
                "duplex": s["duplex"],
                "pre_tput": round(s["pre_tput"], 1),
                "post_tput": round(s["post_tput"], 1),
                "lost": s["lost_total"],
                "switches": s["switches"],
                "rebuilds": s["rebuilds"],
                "recovery_ms": round(s["recovery_ms_max"], 2),
                "slo_met": s["slo_met"],
            }
        )
    print_rows(
        "EXP-DUPLEX — CF loss: duplex switch vs. structure rebuild",
        rows,
        ["duplex", "pre_tput", "post_tput", "lost", "switches",
         "rebuilds", "recovery_ms", "slo_met"],
        execution=execution,
    )
    simplex, duplexed = outs[0]["summary"], outs[-1]["summary"]
    overhead = 1.0 - (duplexed["pre_tput"] / simplex["pre_tput"]
                      if simplex["pre_tput"] else 1.0)
    speedup = (simplex["recovery_ms_max"] / duplexed["recovery_ms_max"]
               if duplexed["recovery_ms_max"] else float("inf"))
    print(
        f"\nduplexing costs {overhead:.1%} steady-state throughput and "
        f"recovers {speedup:.0f}x faster "
        f"({simplex['recovery_ms_max']:.0f} ms rebuild -> "
        f"{duplexed['recovery_ms_max']:.2f} ms switch)"
    )
    return {"rows": rows, "runs": outs}


if __name__ == "__main__":
    main(quick=False)
