"""The benchmark's workloads: what each one runs, how its outputs are
checked, and which per-layer numbers it yields.

A *point* is one ``RunSpec``; a *pass* is one workload's full spec list,
run the way a user's sweep runs it: untraced, with no ``gc.collect()``
between points, and — except for the campaign, which drives a worker
fleet over a cold cache — serial and uncached in this process.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import repro.campaign
from repro import RunResult, WorkQueueBackend, execute_iter
from repro.campaign import Manifest, build_grid, run_campaign
from repro.experiments.exp_chaos import CHAOS_RUNNER, chaos_spec
from repro.experiments.fig3_scalability import fig3_specs
from repro.experiments.tab1_overhead import cpu_per_txn, tab1_specs
from repro.runspec import RunSpec, canonical_json

from harness import BoundaryError, Boundaries, PointRecord

GOLDEN_SEED = 1
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

#: The tier-1 golden-grid subset (tests/test_fastpath.py) replayed by the
#: verify workload, plus the pinned duplexed chaos point.
VERIFY_LABELS = ("base-1cpu", "tcmp-4", "tcmp-10", "plex-1", "plex-4",
                 "plex-8", "1-system no-DS", "2-system DS", "8-system DS")

#: Statistical bounds of tier-1's sweep-vs-golden test; never loosen.
COMPLETED_REL = 0.10
RESPONSE_REL = 0.25

#: The campaign workload's grid and fleet.
CAMPAIGN_POINTS = 60
CAMPAIGN_WORKERS = 2


def load_golden() -> Dict[str, dict]:
    """Golden points by label, from both committed fixtures."""
    golden = {}
    for name in ("golden_grid.json", "golden_duplex.json"):
        for point in json.loads((DATA / name).read_text())["points"]:
            golden[point["label"]] = point
    return golden


def payload_of(result: Any) -> dict:
    """The executor's payload for ``result`` (its cache/wire form)."""
    if isinstance(result, RunResult):
        return {"kind": "runresult", "data": result.to_dict()}
    return {"kind": "json", "data": result}


def sha_of(result: Any) -> str:
    text = canonical_json(payload_of(result))
    return hashlib.sha256(text.encode()).hexdigest()


def completed_of(result: Any) -> int:
    if isinstance(result, RunResult):
        return result.completed
    return int(result["summary"]["completed"])


def expected_calls(spec: RunSpec, result: Any) -> Dict[str, int]:
    """How often each phase boundary must fire for one point."""
    if spec.runner == "oltp":
        return {"build": 1, "run": 2, "reset": 1, "collect": 1}
    if spec.runner == CHAOS_RUNNER:
        # one Simulator.run per timeline window, no measurement reset
        windows = len(result["timeline"]) if result is not None else 0
        return {"build": 1, "run": windows}
    raise BoundaryError(f"no boundary contract for runner {spec.runner!r}")


def leaves(data: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten a payload to ``path -> leaf``, skipping ``trace.*`` keys."""
    if isinstance(data, dict):
        out = {}
        for k, v in data.items():
            if not str(k).startswith("trace."):
                out.update(leaves(v, f"{prefix}/{k}"))
        return out
    if isinstance(data, list):
        out = {}
        for i, v in enumerate(data):
            out.update(leaves(v, f"{prefix}/{i}"))
        return out
    return {prefix: data}


@dataclass
class Point:
    label: str
    sha: Optional[str]
    completed: int
    wall_s: float
    rec: Optional[PointRecord] = None
    result: Any = None
    compute_s: float = 0.0
    error: Optional[str] = None


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    points: List[Point]
    #: workload-specific per-layer numbers of this pass
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Probe:
    """A traced-vs-untraced pair of one point (``RunOptions(tracing=)``)."""

    label: str
    perturbed_leaves: int
    total_leaves: int
    overhead_ratio: float
    points: List[Point]


def run_serial(specs: List[RunSpec], bounds: Boundaries,
               check: Callable[[Point], Optional[str]]) -> tuple:
    """Run ``specs`` back to back through ``repro.execute_iter(jobs=1)``;
    return ``(wall_s, points)``.  The clock covers submitting the first
    spec through checking the last result."""
    points = []
    t0 = last = time.perf_counter()
    stream = execute_iter(specs, jobs=1, errors="yield")
    for spec in specs:
        bounds.begin()
        c = next(stream)
        try:
            rec = bounds.end(expected_calls(spec, c.result))
        except BoundaryError as exc:
            rec, boundary_error = None, f"boundary: {exc}"
        else:
            boundary_error = None
        point = Point(label=spec.label or spec.short_hash(), sha=None,
                      completed=0, wall_s=0.0, rec=rec, result=c.result,
                      error=c.error or boundary_error)
        if point.error is None:
            point.sha = sha_of(c.result)
            point.completed = completed_of(c.result)
            point.error = check(point)
        now = time.perf_counter()
        point.wall_s, last = now - last, now
        points.append(point)
    return time.perf_counter() - t0, points


class SerialWorkload:
    """Simulation points run in this process, one after another."""

    spawns_workers = False

    def __init__(self, specs: Callable[[int], List[RunSpec]],
                 probe_label: str, golden_check: str):
        self._specs = specs
        self.probe_label = probe_label
        self.golden_check = golden_check  # "stats" or "sha"
        self._golden = load_golden()

    def specs(self, seed: int) -> List[RunSpec]:
        return self._specs(seed)

    def check(self, seed: int, point: Point) -> Optional[str]:
        if point.completed <= 0:
            return "no transaction completed"
        if seed != GOLDEN_SEED:
            return None
        g = self._golden[point.label]
        if self.golden_check == "sha":
            if point.sha != g["payload_sha256"]:
                return f"payload sha256 {point.sha} != golden"
            return None
        res = point.result
        if abs(res.completed - g["completed"]) > COMPLETED_REL * g["completed"]:
            return (f"completed {res.completed} not within "
                    f"{COMPLETED_REL:.0%} of golden {g['completed']}")
        if (abs(res.response_mean - g["response_mean"])
                > RESPONSE_REL * g["response_mean"]):
            return (f"response_mean {res.response_mean:.6f} not within "
                    f"{RESPONSE_REL:.0%} of golden {g['response_mean']:.6f}")
        return None

    def run_pass(self, seed: int, bounds: Boundaries, workdir: Path,
                 index: int) -> Pass:
        wall, points = run_serial(
            self.specs(seed), bounds, lambda point: self.check(seed, point))
        setup = sum(p.rec.build_s for p in points if p.rec is not None)
        return Pass(wall_s=wall, setup_s=setup, points=points)

    def probe(self, seed: int, bounds: Boundaries, first: Pass) -> Probe:
        spec = next(s for s in self.specs(seed) if s.label == self.probe_label)
        return run_probe(spec, bounds, first)


def run_probe(spec: RunSpec, bounds: Boundaries,
              first: Optional[Pass]) -> Probe:
    """Run ``spec`` traced and untraced; reuse the pass's copy of
    whichever side the pass already ran."""
    in_pass = {}
    if first is not None:
        in_pass = {p.label: p for p in first.points}
    sides = {}
    ran = []
    for tracing in (False, True):
        side = spec.replace(tracing=tracing)
        if side == spec and spec.label in in_pass:
            sides[tracing] = in_pass[spec.label]
            continue
        _wall, (point,) = run_serial([side], bounds, lambda p: None)
        sides[tracing] = point
        ran.append(point)
    plain, traced = sides[False], sides[True]
    if plain.error or traced.error:
        return Probe(spec.label, 0, 0, 0.0, ran)
    a = leaves(payload_of(plain.result)["data"])
    b = leaves(payload_of(traced.result)["data"])
    differ = sum(1 for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return Probe(spec.label, differ, len(a.keys() | b.keys()),
                 traced.wall_s / plain.wall_s, ran)


class CampaignWorkload:
    """The micro grid through ``run_campaign`` on a two-worker fleet."""

    spawns_workers = True

    def specs(self, seed: int) -> List[RunSpec]:
        return build_grid("micro", CAMPAIGN_POINTS, seed)

    def run_pass(self, seed: int, bounds: Boundaries, workdir: Path,
                 index: int) -> Pass:
        specs = self.specs(seed)
        root = workdir / f"campaign-{index}"
        cache = workdir / f"cache-{index}"
        for d in (root, cache):
            shutil.rmtree(d, ignore_errors=True)
        stamps: List[tuple] = []
        original = repro.campaign.execute_iter

        def timed_execute_iter(*args, **kwargs):
            for c in original(*args, **kwargs):
                stamps.append((time.perf_counter(), c))
                yield c

        def drive(fresh: bool) -> dict:
            return run_campaign(
                specs, root,
                backend=WorkQueueBackend(workers=CAMPAIGN_WORKERS),
                cache=str(cache), fresh=fresh, progress=False, stream=None)

        repro.campaign.execute_iter = timed_execute_iter
        try:
            # every point must run in the workers: no in-process boundary
            bounds.begin()
            try:
                t0 = time.perf_counter()
                cold = drive(fresh=False)
                wall = time.perf_counter() - t0
            finally:
                bounds.end({})
            cold_stamps, stamps[:] = list(stamps), []
            warm = drive(fresh=True)
        finally:
            repro.campaign.execute_iter = original
        warm_by_index = {c.index: c for _t, c in stamps}
        manifest = Manifest(root / repro.campaign.MANIFEST_NAME)

        problems = []
        if not cold["complete"] or cold["failed_this_run"]:
            problems.append(f"cold campaign incomplete: {cold['manifest']}")
        done = sum(1 for r in manifest.records.values()
                   if r.get("status") == "done")
        if done != len({s.content_hash() for s in specs}):
            problems.append(f"manifest holds {done} done point(s)")
        if warm["cache_hits"] != len(specs) or warm["computed"]:
            problems.append(f"warm pass: {warm['cache_hits']} hit(s), "
                            f"{warm['computed']} computed")

        points = []
        last = t0
        for t, c in cold_stamps:
            point = Point(label=c.spec.label, sha=None, completed=0,
                          wall_s=t - last, result=c.result,
                          compute_s=c.seconds, error=c.error)
            last = t
            if point.error is None:
                point.sha = sha_of(c.result)
                point.completed = completed_of(c.result)
                hit = warm_by_index.get(c.index)
                if point.completed <= 0:
                    point.error = "no transaction completed"
                elif hit is None or not hit.cached:
                    point.error = "warm pass did not serve it from cache"
                elif sha_of(hit.result) != point.sha:
                    point.error = "warm cache payload differs from cold"
            points.append(point)
        if len(points) != len(specs):
            problems.append(f"{len(points)} of {len(specs)} points landed")
        if problems:
            raise RuntimeError("; ".join(problems))

        # fleet spawn: the first result's arrival minus its own compute
        first_t, first = cold_stamps[0]
        first_result = first_t - t0
        setup = first_result - first.seconds
        compute = [p.compute_s for p in points]
        cuts = statistics.quantiles(compute, n=10)
        busy = CAMPAIGN_WORKERS * max(wall - setup, 1e-9)
        return Pass(wall_s=wall, setup_s=setup, points=points, layers={
            "executor.points_computed": float(cold["computed"]),
            "executor.cache_hits": float(warm["cache_hits"]),
            "distrib.first_result_s": first_result,
            "distrib.compute_s": sum(compute),
            "distrib.point_p50_s": statistics.median(compute),
            "distrib.point_p90_s": cuts[8],
            "distrib.overhead_share": 1.0 - sum(compute) / busy,
            "campaign.points_per_s": len(specs) / wall,
        })

    def probe(self, seed: int, bounds: Boundaries, first: Pass) -> Probe:
        spec = max(build_grid("micro", 3, seed),
                   key=lambda s: s.config.n_systems)
        return run_probe(spec, bounds, None)


def _plex_specs(seed: int) -> List[RunSpec]:
    return [s for s in fig3_specs(seed=seed) if s.label.startswith("plex-")]


def _tcmp_specs(seed: int) -> List[RunSpec]:
    return [s for s in fig3_specs(seed=seed)
            if not s.label.startswith("plex-")]


def _verify_specs(seed: int) -> List[RunSpec]:
    grid = {s.label: s for s in fig3_specs(seed=seed) + tab1_specs(seed=seed)}
    specs = [grid[label].replace(profile="verify") for label in VERIFY_LABELS]
    specs.append(chaos_spec(seed=seed, duplex="all", horizon=1.5, drain=1.0,
                            window=0.5).replace(profile="verify"))
    return specs


WORKLOADS = {
    "plex": SerialWorkload(_plex_specs, "plex-16", "stats"),
    "tcmp": SerialWorkload(_tcmp_specs, "tcmp-10", "stats"),
    "verify": SerialWorkload(_verify_specs, "2-system DS", "sha"),
    "campaign": CampaignWorkload(),
}


def paper_residuals(points: List[Point]) -> Optional[Dict[str, float]]:
    """§4 and Fig. 3 figures from the plex series (residuals, not gates)."""
    by_k = {int(p.label.split("-")[1]): p.result for p in points
            if p.label.startswith("plex-") and p.error is None}
    if not {1, 2, 32} <= by_k.keys():
        return None
    base_cpu = cpu_per_txn(by_k[1], 1)
    ks = sorted(k for k in by_k if k >= 2)
    steps = [100 * (cpu_per_txn(by_k[b], b) / cpu_per_txn(by_k[a], a) - 1)
             / (b - a) for a, b in zip(ks, ks[1:])]

    def itr(r: RunResult) -> float:
        return r.throughput / max(r.mean_utilization, 1e-9)

    return {
        "transition_cost_pct": 100 * (cpu_per_txn(by_k[2], 2) / base_cpu - 1),
        "increment_pct_per_system": sum(steps) / len(steps),
        "plex32_itr_efficiency": itr(by_k[32]) / itr(by_k[1]) / 32,
    }
