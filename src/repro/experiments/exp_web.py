"""EXP-WEB — TCP/IP single system image (paper §6 future work).

"Single system image for native TCP/IP networks, MVS servers to the
World-Wide Web" — implemented here as the Sysplex Distributor that
shipped for exactly this.  A web workload (persistent connections, mixed
cached/uncached content) drives a 4-system sysplex under three
connection-placement schemes, and one backend system dies mid-run:

* **dns-round-robin** — clients pin to an address; the dead address keeps
  being resolved until the TTL expires (connections fail meanwhile);
* **sysplex-distributor** — the VIPA owner routes every new connection by
  WLM weight and around dead stacks instantly;
* **distributor-killed** — the distributing stack itself dies: a backup
  takes the VIPA over and service resumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..subsystems.tcpip import (
    DnsRoundRobin,
    SysplexDistributor,
    TcpStack,
    WebConfig,
    WebWorkload,
)
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_web", "web_specs", "main"]

CASE_RUNNER = "repro.experiments.exp_web:run_case_spec"

CASES = (
    ("dns-round-robin", 2),
    ("sysplex-distributor", 2),
    ("distributor-killed", 0),
)


def web_specs(n_systems: int = 4, rate: float = 700.0,
              duration: float = 1.8, warmup: float = 0.4,
              seed: int = 1) -> List[RunSpec]:
    """Declare the three connection-placement schemes."""
    return [
        RunSpec(
            runner=CASE_RUNNER,
            config=scaled_config(n_systems, seed=seed),
            duration=duration, warmup=warmup, label=scheme,
            params={"scheme": scheme, "kill_index": kill_index,
                    "rate": rate},
        )
        for scheme, kill_index in CASES
    ]


def run_case_spec(spec: RunSpec) -> dict:
    """Scenario runner: one placement scheme under a backend loss."""
    options = spec.options.replace(terminals_per_system=0)
    with loaded_sysplex(spec.config, options) as point:
        return _placement_case(point.plex, spec)


def _placement_case(plex, spec: RunSpec) -> dict:
    scheme = spec.params["scheme"]
    kill_index = spec.params["kill_index"]
    rate = spec.params["rate"]
    duration, warmup = spec.duration, spec.warmup
    web_cfg = WebConfig()
    stacks = [
        TcpStack(plex.sim, inst.node, plex.farm, web_cfg,
                 plex.streams.stream(f"web-{name}"), plex.metrics)
        for name, inst in plex.instances.items()
    ]
    if scheme == "dns-round-robin":
        router = DnsRoundRobin(plex.sim, stacks, web_cfg, plex.metrics)
    else:
        router = SysplexDistributor(plex.sim, stacks, plex.wlm, web_cfg,
                                    plex.metrics)
    workload = WebWorkload(plex.sim, router, plex.streams.stream("webgen"))
    workload.start(rate)

    kill_at = warmup + duration / 3
    plex.sim.call_at(kill_at, plex.nodes[kill_index].fail)

    plex.sim.run(until=warmup)
    workload.responses.reset()
    served0 = plex.metrics.counter("web.requests").count
    refused0 = plex.metrics.counter("web.conn_refused").count
    broken0 = plex.metrics.counter("web.conn_broken").count
    plex.sim.run(until=warmup + duration)

    served = plex.metrics.counter("web.requests").count - served0
    refused = plex.metrics.counter("web.conn_refused").count - refused0
    broken = plex.metrics.counter("web.conn_broken").count - broken0
    rt = workload.responses
    return {
        "scheme": scheme,
        "killed": plex.nodes[kill_index].name
        + (" (distributor)" if scheme == "distributor-killed" else ""),
        "requests_per_s": served / duration,
        "p95_ms": 1e3 * rt.percentile(95),
        "conns_refused": refused,
        "conns_broken": broken,
        "takeovers": getattr(router, "takeovers", 0),
    }


def run_web(n_systems: int = 4, rate: float = 700.0,
            duration: float = 1.8, warmup: float = 0.4,
            seed: int = 1,
            execution: Optional[Execution] = None) -> Dict:
    rows = sweep(web_specs(n_systems, rate, duration, warmup, seed),
                 execution=execution)
    return {"rows": rows}


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_web(duration=1.8 if quick else 4.0, seed=seed,
                  execution=execution)
    print_rows(
        "EXP-WEB — web serving: connection placement under a backend loss",
        out["rows"],
        ["scheme", "killed", "requests_per_s", "p95_ms", "conns_refused",
         "conns_broken", "takeovers"],
        execution=execution,
    )
    return out


if __name__ == "__main__":
    main(quick=False)
