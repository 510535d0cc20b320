"""Tests for the fast paths through the CF command stack.

The *byte-safe* paths (the one CF round trip ``CfPort._round_trip``, the
lock-manager single-frame grant, the buffer-manager ``try_get_local``)
are pure machinery: they must change *nothing* observable about a run —
not the event timing, not the RNG draw order, not a single statistic.
Tracing is observation only under the verify profile: a traced run's
payload minus its ``trace.*`` keys is byte-identical to the untraced
one.  The *collapsed* execution (``profile="sweep"``: event merging +
scalar resource holds) trades byte identity for speed and must stay
statistically neutral.  These tests pin these contracts — including the
full 22-point golden grid against the pre-refactor payload hashes —
gate the events-per-transaction cost metric, and check the
robustness/chaos configurations never collapse.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.config import CfConfig
from repro.executor import _payload_from
from repro.experiments.common import QUICK, scaled_config
from repro.experiments.fig3_scalability import fig3_specs
from repro.experiments.tab1_overhead import tab1_specs
from repro.options import RunOptions
from repro.runner import build_loaded_sysplex, run_oltp
from repro.runspec import canonical_json
from repro.simkernel import Simulator

#: events_per_committed_txn measured for the Table-1 base quick point
#: (1 system, no data sharing, seed 1) under the golden verify profile
#: when the fast paths landed.  The count is deterministic for a fixed
#: seed; growth means new event machinery crept onto the
#: per-transaction path.
TAB1_BASE_EVENTS_PER_TXN = 60.5

GOLDEN_GRID = Path(__file__).parent / "data" / "golden_grid.json"
GOLDEN_DUPLEX = Path(__file__).parent / "data" / "golden_duplex.json"


def _run(cfg, duration=0.25, warmup=0.15, options=None):
    """run_oltp, but keeping the sysplex so tests can inspect the ports."""
    plex, _gen = build_loaded_sysplex(cfg, options=options or RunOptions())
    plex.sim.run(until=warmup)
    plex.reset_measurement()
    plex.sim.run(until=warmup + duration)
    return plex, plex.collect("fastpath-test")


def _ports(plex):
    for inst in plex.instances.values():
        for xes in (inst.xes_lock, inst.xes_cache, inst.xes_list):
            if xes is not None and hasattr(xes, "port"):
                yield xes.port


# ----------------------------------------------------------- collapse ----
def test_collapsed_mode_statistically_neutral():
    """The sweep profile merges events (not byte-safe at saturation) but
    must stay statistically indistinguishable from the golden path."""
    cfg = scaled_config(4, 1, seed=1)

    _, res_default = _run(cfg, options=RunOptions(profile="verify"))
    plex_col, res_col = _run(cfg, options=RunOptions(profile="sweep"))

    assert sum(p.fast_syncs for p in _ports(plex_col)) > 0
    assert res_col.completed == pytest.approx(res_default.completed, rel=0.05)
    assert res_col.response_mean == pytest.approx(
        res_default.response_mean, rel=0.10)


def test_collapse_cuts_events_for_the_same_outcome():
    """Collapse is the sweep profile's whole point: materially fewer
    calendar events for a statistically identical run."""
    cfg = scaled_config(2, 1, seed=1)
    plex_v, _ = _run(cfg, options=RunOptions(profile="verify"))
    plex_s, _ = _run(cfg, options=RunOptions(profile="sweep"))
    assert plex_s.sim.events_processed < 0.8 * plex_v.sim.events_processed


# ------------------------------------------------------------- cost gate ----
def test_events_per_committed_txn_no_regression():
    cfg = scaled_config(1, 1, data_sharing=False, seed=1)
    verify = run_oltp(cfg, duration=QUICK["duration"],
                      warmup=QUICK["warmup"],
                      options=RunOptions(profile="verify"))
    assert verify.sim_events > 0
    assert verify.completed > 0
    assert verify.events_per_committed_txn <= 1.10 * TAB1_BASE_EVENTS_PER_TXN
    # the sweep default must only ever *cut* per-transaction machinery
    sweep = run_oltp(cfg, duration=QUICK["duration"],
                     warmup=QUICK["warmup"],
                     options=RunOptions(profile="sweep"))
    assert sweep.events_per_committed_txn < verify.events_per_committed_txn


def test_sim_events_excluded_from_payloads():
    """The machine-cost counter must never leak into golden payloads."""
    cfg = scaled_config(1, 1, data_sharing=False, seed=1)
    result = run_oltp(cfg, duration=0.1, warmup=0.05)
    assert result.sim_events > 0
    assert "sim_events" not in result.to_dict()


# ------------------------------------------------------------ golden grid ----
def _grid_specs():
    return {s.label: s for s in fig3_specs() + tab1_specs()}


def _payload_sha(spec):
    payload = json.loads(canonical_json(_payload_from(spec.run())))
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest(), payload


#: Default byte-identity coverage: one point per grid family (TCMP,
#: small/medium plex, the non-sharing base, the DS-overhead pairs) keeps
#: the test under ~15 s.  Set ``REPRO_FULL_GRID=1`` to check all 22
#: points (~80 s) — the CI golden-grid job does.
_SUBSET = ("base-1cpu", "tcmp-4", "tcmp-10", "plex-1", "plex-4", "plex-8",
           "1-system no-DS", "2-system DS", "8-system DS")


def test_verify_profile_reproduces_golden_grid():
    """The verify profile is byte-identical to pre-refactor main."""
    fixture = json.loads(GOLDEN_GRID.read_text())
    golden = {p["label"]: p for p in fixture["points"]}
    labels = (list(golden) if os.environ.get("REPRO_FULL_GRID")
              else list(_SUBSET))
    specs = _grid_specs()
    for label in labels:
        sha, _payload = _payload_sha(specs[label].replace(profile="verify"))
        assert sha == golden[label]["payload_sha256"], label


def test_verify_profile_reproduces_golden_duplex():
    """The duplexed-write protocol is itself byte-pinned: a duplexed
    chaos run under the verify profile reproduces its golden payload
    hash (the simplex grid above already pins duplex="none")."""
    from repro.experiments.exp_chaos import chaos_spec

    fixture = json.loads(GOLDEN_DUPLEX.read_text())
    for point in fixture["points"]:
        spec = chaos_spec(seed=1, duplex="all", horizon=1.5, drain=1.0,
                          window=0.5).replace(profile="verify")
        assert spec.label == point["label"]
        sha, payload = _payload_sha(spec)
        assert sha == point["payload_sha256"], point["label"]
        assert payload["data"]["summary"]["completed"] == point["completed"]


def test_sweep_default_statistically_neutral_vs_golden():
    """Collapse-by-default: sweep payloads stay within statistical
    tolerance of the golden fixtures.  The deltas are exact per-seed
    numbers (both paths are deterministic), not machine noise; the worst
    observed throughput delta across the 22-point grid is 6.7%."""
    specs = _grid_specs()
    fixture = json.loads(GOLDEN_GRID.read_text())
    golden = {p["label"]: p for p in fixture["points"]}
    for label in ("tcmp-4", "plex-4", "2-system DS"):
        payload = json.loads(canonical_json(
            _payload_from(specs[label].replace(profile="sweep").run())))
        data = payload["data"]
        g = golden[label]
        assert data["completed"] == pytest.approx(
            g["completed"], rel=0.10), label
        assert data["response_mean"] == pytest.approx(
            g["response_mean"], rel=0.25), label


# --------------------------------------------------- tracing is passive ----
def _strip_trace(data):
    """``data`` without any ``trace.*`` key, at any depth."""
    if isinstance(data, dict):
        return {k: _strip_trace(v) for k, v in data.items()
                if not str(k).startswith("trace.")}
    if isinstance(data, list):
        return [_strip_trace(v) for v in data]
    return data


def _assert_traced_is_untraced(cfg):
    """Run ``cfg`` under verify untraced and traced; return the untraced
    result after checking the traced payload minus ``trace.*`` keys is
    the untraced payload, byte for byte."""
    plex_off, res_off = _run(cfg, options=RunOptions(profile="verify"))
    plex_on, res_on = _run(cfg, options=RunOptions(profile="verify",
                                                   tracing=True))
    assert plex_off.tracer is None
    categories = {span.category for span in plex_on.tracer.spans}
    assert {"cf.sync", "cf.service"} <= categories
    assert any(k.startswith("trace.") for k in res_on.extras)
    assert (canonical_json(_strip_trace(res_on.to_dict()))
            == canonical_json(res_off.to_dict()))
    return res_off


def test_fast_path_identical_under_contention():
    """The untraced round trip and the traced one: byte-identical results
    on a contended scenario.

    A single CF processor serving 8 saturated systems queues commands by
    construction, so ``_round_trip``'s contended branches (subchannel
    wait, processor wait) all execute — untraced, and traced with its
    ``cf.sync``/``cf.service`` spans open around them — and must give
    the same run.
    """
    # one slow CF processor serving 8 systems: commands queue at the
    # subchannels and at the CF engine on most requests
    cfg = scaled_config(8, 1, seed=1,
                        cf=CfConfig(n_cpus=1, cmd_service=12e-6,
                                    data_cmd_service=24e-6))
    res = _assert_traced_is_untraced(cfg)
    # contended by construction: the lone CF processor is the bottleneck
    assert res.cf_utilization > 0.5


def test_tracing_is_observation_only_under_verify():
    """Traced and untraced verify runs are the same run.

    Both go through ``CfPort._round_trip``; the tracer only records
    spans.  Checked on a small unsaturated config and on the golden
    points (the ``_SUBSET``, all 22 under ``REPRO_FULL_GRID``): the
    traced payload minus its ``trace.*`` keys equals the untraced
    payload byte for byte.  The contended case is
    ``test_fast_path_identical_under_contention``.
    """
    _assert_traced_is_untraced(scaled_config(2, 1, seed=1))

    specs = _grid_specs()
    labels = list(specs) if os.environ.get("REPRO_FULL_GRID") else _SUBSET
    for label in labels:
        off, on = (_payload_from(specs[label].replace(
            profile="verify", tracing=tracing).run())
            for tracing in (False, True))
        assert any(k.startswith("trace.") for k in on["data"]["extras"])
        assert canonical_json(_strip_trace(json.loads(canonical_json(on)))) \
            == canonical_json(off), label


def test_tracing_disables_fast_path():
    """Under the sweep profile a span tracer turns the collapsed sync
    off: its merged events have no begin/end points to record."""
    cfg = scaled_config(2, 1, seed=1)
    plex, _gen = build_loaded_sysplex(cfg, options=RunOptions())
    assert all(p._collapse for p in _ports(plex))
    plex, _gen = build_loaded_sysplex(
        cfg, options=RunOptions(tracing=True))
    ports = list(_ports(plex))
    assert ports and all(not p._collapse for p in ports)


# ------------------------------------------------------ robustness gating ----
def test_request_timeout_never_collapses():
    """Chaos/robustness runs (request_timeout set) need the timeout and
    redrive machinery of ``_robust_trip`` — even under the sweep profile
    the collapsed sync must never engage."""
    cfg = scaled_config(2, 1, seed=1,
                        cf=CfConfig(request_timeout=0.005))
    plex, result = _run(cfg, duration=0.15, warmup=0.1,
                        options=RunOptions(profile="sweep"))
    ports = list(_ports(plex))
    assert ports and all(not p._collapse for p in ports)
    assert all(p.fast_syncs == 0 for p in ports)
    assert sum(p.sync_ops for p in ports) > 0
    assert result.completed > 0


# ------------------------------------------------------ kernel primitives ----
def test_timeout_at_matches_relative_chain():
    sim = Simulator()
    seen = []

    def p():
        yield sim.timeout(0.25)
        seen.append(sim.now)
        yield sim.timeout_at(0.75, "x")
        seen.append(sim.now)

    sim.process(p(), name="p")
    sim.run()
    assert seen == [0.25, 0.75]
    with pytest.raises(ValueError):
        sim.timeout_at(sim.now - 1.0)
