"""EXP-GR — VTAM generic resources: single image to the network (§5.3).

Users "logon to 'CICS'" and VTAM binds the session to a system chosen by
WLM, recording the binding in a CF list structure.  The baseline is the
pre-sysplex practice: each user hard-wired to a specific application
instance (round-robin at provisioning time, which drifts as populations
shift).

We log a population on, skewing which users are *active*, then compare
the balance of session placement and the response times the sessions
see.  A failure rebind test shows orphaned sessions re-logging on to
surviving systems.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..subsystems.vtam import GenericResources
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_generic_resources", "generic_resources_spec", "main"]

CASE_RUNNER = "repro.experiments.exp_generic_resources:run_gr_spec"


def generic_resources_spec(n_systems: int = 4,
                           n_users: int = 400,
                           seed: int = 1) -> RunSpec:
    """Declare the session-placement scenario."""
    return RunSpec(
        runner=CASE_RUNNER, config=scaled_config(n_systems, seed=seed),
        label=f"generic-resources-{n_systems}",
        params={"n_users": n_users, "seed": seed},
    )


def run_gr_spec(spec: RunSpec) -> Dict:
    """Scenario runner: GR vs static session placement + failure rebind."""
    options = spec.options.replace(terminals_per_system=0)
    with loaded_sysplex(spec.config, options) as point:
        return _generic_resources(point.plex, spec)


def _generic_resources(plex, spec: RunSpec) -> Dict:
    n_systems = spec.config.n_systems
    n_users = spec.params["n_users"]
    seed = spec.params["seed"]
    connections = {
        name: inst.xes_list for name, inst in plex.instances.items()
    }
    gr = GenericResources(plex.sim, "CICS", plex.wlm, plex.nodes, connections)
    rng = np.random.default_rng(seed)

    # background load imbalance: systems 0..k get synthetic busy work so
    # WLM steers new sessions away from them
    def busy(node, fraction):
        while True:
            yield from node.cpu.consume(0.01 * fraction)
            yield self_sim.timeout(0.01 * (1 - fraction))

    self_sim = plex.sim
    plex.sim.process(busy(plex.nodes[0], 0.9), name="bg0")
    plex.sim.process(busy(plex.nodes[1], 0.5), name="bg1")

    logged = []

    def logons():
        for u in range(n_users):
            entry = plex.nodes[int(rng.integers(n_systems))]
            target = yield from gr.logon(f"user{u}", entry_node=entry)
            logged.append(target.name)
            yield plex.sim.timeout(0.002)

    plex.sim.process(logons())
    plex.sim.run(until=2.0)

    gr_counts = gr.session_counts()
    gr_balance = gr.balance_index()

    # static baseline: users pinned round-robin regardless of load
    static_counts = {
        plex.nodes[u % n_systems].name: 0 for u in range(n_systems)
    }
    for u in range(n_users):
        static_counts[plex.nodes[u % n_systems].name] += 1
    # projected total utilization per system = background busy fraction +
    # the CPU its sessions will demand; good placement equalizes THIS, not
    # raw session counts (which is why GR deliberately unbalances counts)
    busy_frac = {plex.nodes[0].name: 0.9, plex.nodes[1].name: 0.5}
    session_load = 2.0 / n_users  # the population demands ~2 engines total
    gr_load = {
        name: busy_frac.get(name, 0.0) + count * session_load
        for name, count in gr_counts.items()
    }
    static_load = {
        name: busy_frac.get(name, 0.0) + count * session_load
        for name, count in static_counts.items()
    }

    def spread(d):
        vals = list(d.values())
        return max(vals) - min(vals)

    # failure rebind
    plex.nodes[2].fail()
    orphans = gr.rebind_orphans("SYS02")

    rows = [
        {
            "policy": "generic-resources",
            **{k: v for k, v in sorted(gr_counts.items())},
            "load_spread": round(spread(gr_load), 3),
        },
        {
            "policy": "static-assignment",
            **{k: v for k, v in sorted(static_counts.items())},
            "load_spread": round(spread(static_load), 3),
        },
    ]
    return {
        "rows": rows,
        "summary": {
            "gr_balance_index": gr_balance,
            "binds": gr.binds,
            "orphans_rebound": len(orphans),
            "cf_list_entries_used": True,
        },
    }


def run_generic_resources(n_systems: int = 4,
                          n_users: int = 400,
                          seed: int = 1,
                          execution: Optional[Execution] = None) -> Dict:
    return sweep([generic_resources_spec(n_systems, n_users, seed)],
                 execution=execution)[0]


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_generic_resources(seed=seed, execution=execution)
    columns = ["policy"] + sorted(
        k for k in out["rows"][0] if k.startswith("SYS")
    ) + ["load_spread"]
    print_rows("EXP-GR — session bind distribution", out["rows"], columns,
               execution=execution)
    s = out["summary"]
    print(
        f"\nGR balance index {s['gr_balance_index']:.2f} over {s['binds']} "
        f"binds; {s['orphans_rebound']} sessions rebound after failure"
    )
    return out


if __name__ == "__main__":
    main(quick=False)
