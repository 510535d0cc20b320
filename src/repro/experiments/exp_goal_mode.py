"""EXP-GOAL — WLM policy-driven resource management (paper §2.1 / §5.1).

"The ability to dynamically and automatically manage system resources is
a key objective" and WLM "provides policy-driven system resource
management for customer workloads."

A sysplex runs its OLTP service class (response-time goal, importance 1)
while a stream of big decision-support scans arrives continuously
(discretionary work, importance 5).  Compared:

* **no policy** — queries dispatch at the same priority as transactions;
* **WLM goal mode** — queries run at the discretionary dispatch priority
  WLM assigns their class, in dispatchable slices, so OLTP keeps its
  response-time goal while queries soak up the leftover capacity.

Reported: OLTP p95 + performance index and query elapsed time under each
policy (and with no batch at all, as the reference).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..options import RunOptions
from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..workloads.dss import Query, QuerySplitter
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_goal_mode", "goal_mode_specs", "main"]

CASE_RUNNER = "repro.experiments.exp_goal_mode:run_case_spec"


def goal_mode_specs(duration: float = 1.2, seed: int = 1) -> List[RunSpec]:
    """Declare the three mixed-workload policy cases."""
    cases = [
        ("oltp-alone", False, False),
        ("batch-equal-priority", True, False),
        ("batch-wlm-goal-mode", True, True),
    ]
    return [
        RunSpec(
            runner=CASE_RUNNER, config=scaled_config(4, seed=seed),
            duration=duration, warmup=0.4,
            options=RunOptions(mode="open", offered_tps_per_system=230.0,
                               router_policy="wlm"),
            label=label,
            params={"with_batch": with_batch, "use_policy": use_policy},
        )
        for label, with_batch, use_policy in cases
    ]


def run_case_spec(spec: RunSpec) -> dict:
    """Scenario runner: OLTP + query stream under one dispatch policy."""
    with loaded_sysplex(spec.config, spec.options) as point:
        return _policy_case(point.plex, spec)


def _policy_case(plex, spec: RunSpec) -> dict:
    label = spec.label
    with_batch = spec.params["with_batch"]
    use_policy = spec.params["use_policy"]
    wlm = plex.wlm
    wlm.define_service_class("QUERY", response_goal=5.0, importance=5)
    splitter = QuerySplitter(plex.sim, plex.nodes, plex.farm, wlm,
                             spec.config.xcf)
    query_times: List[float] = []

    def query_stream():
        qid = 0
        while True:
            qid += 1
            prio = wlm.dispatch_priority("QUERY") if use_policy else 1
            q = Query(query_id=qid, first_page=0, n_pages=30_000)
            t = yield from splitter.run_query(q, parallelism=8,
                                              priority=prio)
            query_times.append(t)
            wlm.record_response("QUERY", t)

    if with_batch:
        plex.sim.process(query_stream(), name="query-stream")

    plex.sim.run(until=spec.warmup)
    plex.reset_measurement()
    plex.sim.run(until=spec.warmup + spec.duration)
    r = plex.collect(label)
    return {
        "case": label,
        "oltp_tput": r.throughput,
        "oltp_p95_ms": 1e3 * r.response_p95,
        "oltp_pi": round(wlm.performance_index("OLTP"), 2),
        "queries_done": len(query_times),
        "query_s": (sum(query_times) / len(query_times)
                    if query_times else None),
    }


def run_goal_mode(duration: float = 1.2, seed: int = 1,
                  execution: Optional[Execution] = None) -> Dict:
    rows = sweep(goal_mode_specs(duration, seed), execution=execution)
    return {"rows": rows}


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_goal_mode(duration=1.0 if quick else 2.4, seed=seed,
                        execution=execution)
    print_rows(
        "EXP-GOAL — WLM goal protection under mixed OLTP + query load",
        out["rows"],
        ["case", "oltp_tput", "oltp_p95_ms", "oltp_pi", "queries_done",
         "query_s"],
        execution=execution,
    )
    return out


if __name__ == "__main__":
    main(quick=False)
