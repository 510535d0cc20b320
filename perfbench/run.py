"""The repository benchmark: run one named workload, check its outputs and
print every metric by name and unit.

    python3 perfbench/run.py --workload plex --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` says what each metric means and
which end-to-end number it should move.  A run repeats the workload's
pass (its whole spec list, back to back in this process) while another
pass still fits in ``--seconds``, and always runs at least one.  With
``--trace 0`` it prints the end-to-end metrics, medians over passes.
Host times are multiplied by the host factor, the speed of a reference
loop timed all through the run relative to a fixed reference speed, so
that the host's speed drift cancels (``harness.HostProbe``).  With ``--trace 1`` it prints the per-layer metrics, taken from the same
untraced passes plus one extra pass under a sampling profiler and a
traced-vs-untraced probe point; those extra runs are never timed as
end-to-end numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(__file__).resolve().parent / ".work"


def provenance() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


#: Per-layer metrics measured in host time, scaled by the host factor
#: like ``wall_s`` (``campaign.points_per_s`` is divided by it).
HOST_TIME = ("runner.build_s", "runner.build_gc_s", "runner.gc_pause_s",
             "runner.warmup_s", "runner.measured_s", "runner.collect_s",
             "simkernel.ns_per_event", "distrib.first_result_s",
             "distrib.compute_s", "distrib.point_p50_s", "distrib.point_p90_s")


def layer_metrics(passes, profiled, sampler, probe, factor: float) -> dict:
    """Per-layer numbers: timings are medians over the untraced passes,
    counters come from the first pass (they repeat exactly)."""
    def recs(p):
        return [pt.rec for pt in p.points if pt.rec is not None]

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def phase(attr):
        return med(lambda p: sum(getattr(r, attr) for r in recs(p)))

    def total(key):
        return sum(r.counters.get(key, 0) for r in recs(passes[0]))

    def per(a, b):
        return a / b if b else 0.0

    def mean(values):
        values = [v for v in values if v is not None]
        return statistics.fmean(values) if values else 0.0

    first = recs(passes[0])
    committed = total("committed")
    events = sum(r.total_events for r in first)
    hits = total("buffer_local_hits")
    incidents = [inc["recovery_ms"] for pt in passes[0].points
                 if isinstance(pt.result, dict)
                 for inc in pt.result.get("sfm", {}).get("incidents", ())]
    m = {
        "runner.build_s": phase("build_s"),
        "runner.build_gc_s": phase("build_gc_s"),
        "runner.gc_pause_s": phase("gc_s"),
        "runner.warmup_s": phase("warmup_s"),
        "runner.measured_s": phase("measured_s"),
        "runner.collect_s": phase("collect_s"),
        "simkernel.events": events,
        "simkernel.events_per_txn": per(total("events"), committed),
        "simkernel.ns_per_event": 1e9 * per(
            med(lambda p: sum(sum(r.runs) for r in recs(p))), events),
        "cf.commands_per_txn": per(total("cf_commands"), committed),
        "cf.fast_sync_ratio": per(total("cf_fast_syncs"),
                                  total("cf_sync_ops")),
        "cf.xi_signals_per_txn": per(total("xi_signals"), committed),
        "cf.failed_ops": total("cf_failed_ops"),
        "cf.utilization": mean(r.cf_utilization for r in first if r.has_cf),
        "subsystems.committed_txns": committed,
        "subsystems.buffer_hit_ratio": per(
            hits, hits + total("buffer_cf_refreshes")
            + total("buffer_dasd_reads")),
        "subsystems.lock_waits_per_txn": per(total("lock_waits"), committed),
        "subsystems.deadlocks": total("deadlocks"),
        "hardware.cpu_utilization": mean(r.cpu_utilization for r in first),
        "hardware.dasd_ios_per_txn": per(total("dasd_ios"), committed),
        "mvs.xcf_events": total("xcf_events"),
        "mvs.xcf_messages": total("xcf_messages"),
        "mvs.recovery_ms": mean(incidents),
        "trace.perturbed_leaves": probe.perturbed_leaves,
        "trace.overhead_ratio": probe.overhead_ratio,
        "executor.points_computed": len(passes[0].points),
        "executor.cache_hits": 0,
        "distrib.first_result_s": 0.0,
        "distrib.compute_s": 0.0,
        "distrib.point_p50_s": 0.0,
        "distrib.point_p90_s": 0.0,
        "distrib.overhead_share": 0.0,
        "campaign.points_per_s": 0.0,
        "profile.overhead_ratio": (
            profiled.wall_s / statistics.median(p.wall_s for p in passes)),
    }
    for name in passes[0].layers:
        m[name] = med(lambda p: p.layers[name])
    for layer, share in sampler.shares().items():
        m[f"{layer}.self_share"] = share
    for name in HOST_TIME:
        m[name] *= factor
    m["campaign.points_per_s"] /= factor
    return m


def determinism_errors(passes) -> list:
    """Every pass of one seed must reproduce the first pass exactly: the
    same payload bytes and the same work counters, point by point."""
    errors = []
    ref = {p.label: p for p in passes[0].points}
    for n, other in enumerate(passes[1:], start=2):
        for p in other.points:
            r = ref.get(p.label)
            if r is None or p.error or r.error:
                continue
            if p.sha != r.sha:
                errors.append(f"pass {n} {p.label}: payload differs "
                              "from pass 1")
            elif p.rec and r.rec and p.rec.counters != r.rec.counters:
                errors.append(f"pass {n} {p.label}: work counters differ "
                              "from pass 1")
    return errors


def print_pass(n: int, label: str, p) -> None:
    print(f"pass {n} ({label}): wall {p.wall_s:.3f} s, "
          f"setup {p.setup_s:.3f} s, {len(p.points)} point(s)")
    for pt in p.points:
        build = f"build {pt.rec.build_s:7.3f} s" if pt.rec else ""
        print(f"  {pt.label:<30} {pt.wall_s:8.3f} s  {build:<16} "
              f"completed {pt.completed:>5}  {pt.error or 'ok'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import suites
    from harness import Boundaries, HostProbe, Sampler, TreePeak, peak_rss_mb

    declared = declared_metrics()
    workload = suites.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(suites.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(), sort_keys=True))

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    passes, errors = [], []
    profiled = probe = None
    peak_mb = factor = 0.0
    sampler = Sampler()
    tree = TreePeak() if workload.spawns_workers else None
    try:
        with Boundaries() as bounds, HostProbe() as host, \
                (tree or nullcontext()):
            t_start = time.perf_counter()
            durations = []
            while not passes or (time.perf_counter() - t_start
                                 + statistics.median(durations)
                                 <= args.seconds):
                t0 = time.perf_counter()
                passes.append(workload.run_pass(args.seed, bounds, WORKDIR,
                                                len(passes)))
                durations.append(time.perf_counter() - t0)
                factor = host.factor(len(host.samples))
                if len(passes) == 1:
                    # the peak of one sweep, whatever the number of passes
                    peak_mb = peak_rss_mb(tree)
            if args.trace:
                with sampler:
                    profiled = workload.run_pass(args.seed, bounds, WORKDIR,
                                                 len(passes))
                probe = workload.probe(args.seed, bounds, passes[0])
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    everything = passes + ([profiled] if profiled else [])
    for n, p in enumerate(passes, start=1):
        print_pass(n, "untraced", p)
    if profiled:
        print_pass(len(passes) + 1, "sampling profiler", profiled)
    errors += determinism_errors(everything)
    points = [pt for p in everything for pt in p.points]
    if probe:
        points += probe.points
        print(f"trace probe {probe.label}: {probe.perturbed_leaves} of "
              f"{probe.total_leaves} non-trace payload leaves differ "
              f"traced vs untraced; traced/untraced wall "
              f"{probe.overhead_ratio:.3f}")
    if args.workload == "plex" and passes:
        residuals = suites.paper_residuals(passes[0].points)
        if residuals:
            print(f"paper residuals (seed {args.seed}): 1->2 transition "
                  f"{residuals['transition_cost_pct']:.1f}% (paper <18%), "
                  f"per added system "
                  f"{residuals['increment_pct_per_system']:.2f}% "
                  f"(paper <0.5%), plex-32 ITR efficiency "
                  f"{residuals['plex32_itr_efficiency']:.3f}")
    failed = sum(1 for pt in points if pt.error)
    attempted = max(len(points), 1)
    if not points:
        failed = attempted
    correct = not errors and failed == 0
    for e in errors:
        print(f"error: {e}")
    print(f"checks: {'PASS' if correct else 'FAIL'} "
          f"(attempted {attempted}, failed {failed})")

    if not passes:
        metrics = {}
    elif args.trace:
        metrics = (layer_metrics(passes, profiled, sampler, probe, factor)
                   if profiled and probe else {})
    else:
        wall = statistics.median(p.wall_s for p in passes)
        setup = statistics.median(p.setup_s for p in passes)
        print(f"host time: wall {wall:.4f} s, setup {setup:.4f} s")
        metrics = {"wall_s": wall * factor, "setup_s": setup * factor,
                   "peak_rss_mb": peak_mb}
    print(f"host factor: {factor:.4f} (reference probe time / this "
          "host's; host-time metrics below are multiplied by it)")
    kind = "per_layer" if args.trace else "end_to_end"
    if metrics and set(metrics) != set(declared[kind]):
        print(f"error: computed {kind} metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared[kind]))}",
              file=sys.stderr)
        return 2
    out = {name: {"value": float(metrics[name]), "unit": unit}
           for name, unit in declared[kind].items() if name in metrics}
    print("metrics:")
    for name, m in out.items():
        print(f"  {name:<32} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
