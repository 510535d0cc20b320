"""ABL-DSS — decision-support query parallelism (paper §2.3).

"Parallelism can be attained by breaking up complex queries into smaller
sub-queries, and distributing the component queries across multiple
processors (cpu) within a single system or across multiple systems in a
parallel sysplex."

One large scan query is decomposed at parallelism 1..K, each point on an
idle 8-system sysplex; we report elapsed time, speedup, and efficiency —
the expected near-linear region followed by the coordination-bound tail.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..runner import loaded_sysplex
from ..runspec import RunSpec
from ..workloads.dss import Query, QuerySplitter
from .common import Execution, print_rows, scaled_config, sweep

__all__ = ["run_dss", "dss_specs", "main"]

PARALLELISM = (1, 2, 4, 8, 16, 32)

CASE_RUNNER = "repro.experiments.exp_dss:run_case_spec"


def dss_specs(n_systems: int = 8,
              scan_pages: int = 60_000,
              parallelism: Sequence[int] = PARALLELISM,
              seed: int = 1) -> List[RunSpec]:
    """Declare one decomposition measurement per parallelism degree."""
    return [
        RunSpec(
            runner=CASE_RUNNER,
            config=scaled_config(n_systems, seed=seed),
            label=f"dss-p{p}",
            params={"parallelism": p, "scan_pages": scan_pages},
        )
        for p in parallelism
    ]


def run_case_spec(spec: RunSpec) -> dict:
    """Scenario runner: one scan query at one decomposition degree."""
    options = spec.options.replace(terminals_per_system=0)
    with loaded_sysplex(spec.config, options) as point:
        return _scan_case(point.plex, spec)


def _scan_case(plex, spec: RunSpec) -> dict:
    p = spec.params["parallelism"]
    scan_pages = spec.params["scan_pages"]
    config = spec.config
    splitter = QuerySplitter(plex.sim, plex.nodes, plex.farm, plex.wlm,
                             config.xcf)
    elapsed: List[float] = []

    def run_one():
        q = Query(query_id=p, first_page=0, n_pages=scan_pages)
        t = yield from splitter.run_query(q, parallelism=p)
        elapsed.append(t)

    proc = plex.sim.process(run_one())
    plex.sim.run(until=proc)
    return {"parallelism": p, "elapsed_s": elapsed[-1]}


def run_dss(n_systems: int = 8,
            scan_pages: int = 60_000,
            parallelism: Sequence[int] = PARALLELISM,
            seed: int = 1,
            execution: Optional[Execution] = None) -> Dict:
    points = sweep(dss_specs(n_systems, scan_pages, parallelism, seed),
                   execution=execution)
    t_base = points[0]["elapsed_s"]
    rows: List[dict] = []
    for point in points:
        t = point["elapsed_s"]
        speedup = t_base / t if t else 0.0
        rows.append(
            {
                "parallelism": point["parallelism"],
                "elapsed_s": t,
                "speedup": round(speedup, 2),
                "efficiency": round(speedup / point["parallelism"], 3),
            }
        )
    return {"rows": rows}


def check_shape(rows: List[dict]) -> List[str]:
    problems = []
    speedups = [r["speedup"] for r in rows]
    if not all(b >= a for a, b in zip(speedups, speedups[1:])):
        # allow the very last point to flatten, but never regress early
        if any(b < a * 0.95 for a, b in zip(speedups[:-1], speedups[1:-1])):
            problems.append(f"speedup regresses: {speedups}")
    if speedups[-1] < 3.0:
        problems.append(f"no meaningful parallel speedup: {speedups}")
    effs = [r["efficiency"] for r in rows]
    if not all(b <= a + 0.02 for a, b in zip(effs, effs[1:])):
        problems.append(f"efficiency should decline with parallelism: {effs}")
    return problems


def main(quick: bool = True, seed: int = 1,
         execution: Optional[Execution] = None) -> Dict:
    out = run_dss(scan_pages=30_000 if quick else 120_000, seed=seed,
                  execution=execution)
    print_rows(
        "ABL-DSS — parallel query decomposition speedup (8 systems)",
        out["rows"],
        ["parallelism", "elapsed_s", "speedup", "efficiency"],
        execution=execution,
    )
    problems = check_shape(out["rows"])
    print("\nshape check:", "OK" if not problems else problems)
    return out


if __name__ == "__main__":
    main(quick=False)
