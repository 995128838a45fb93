"""The determinism bridge: message plane == inline engine at zero latency.

With no faults and ``latency_scale=0`` every message of a probe cycle is
delivered at the cycle's fire timestamp in insertion order, so
:class:`~repro.net.engine.MessagePROPEngine` consumes the shared
``prop:engine`` RNG stream in exactly the inline order and must
reproduce :class:`~repro.core.protocol.PROPEngine`'s run — same probes,
same exchange sequence, same walk traffic — recovering the paper's
instantaneous-cycle abstraction as a special case of the message plane.
"""

import pytest

from repro.core.config import PROPConfig
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.overhead import COORDINATION_SLACK

FAST = dict(
    preset="ts-small",
    n_overlay=60,
    duration=600.0,
    sample_interval=300.0,
    lookups_per_sample=40,
)


def _pair(policy, overlay_kind="gnutella", trace=False, **prop_kw):
    inline = ExperimentConfig(prop=PROPConfig(policy=policy, **prop_kw),
                              overlay_kind=overlay_kind, trace=trace, **FAST)
    message = inline.but(transport="sim", latency_scale=0.0)
    return (
        run_experiment(inline, measure_lookups=False),
        run_experiment(message, measure_lookups=False),
    )


# every rule the two drivers share, exercised through both: the policy
# decision (G swap on two substrates, O selection), the walk step beyond
# the first hop (nhops=4) and the random_probe draw
CASES = [
    pytest.param("G", "gnutella", {}, id="PROP-G"),
    pytest.param("O", "gnutella", dict(m=2), id="PROP-O"),
    pytest.param("G", "chord", {}, id="chord-PROP-G"),
    pytest.param("G", "gnutella", dict(random_probe=True), id="PROP-G-random-probe"),
    pytest.param("O", "gnutella", dict(m=2, random_probe=True), id="PROP-O-random-probe"),
    pytest.param("G", "gnutella", dict(nhops=4), id="PROP-G-nhops4"),
    pytest.param("O", "gnutella", dict(m=2, nhops=4), id="PROP-O-nhops4"),
]


def _decisions(trace):
    """The protocol-decision events of a trace, in emission order."""
    out = {"PROBE": [], "VAR_COLLECT": [], "EXCHANGE_COMMIT": []}
    for ev in trace:
        if ev.etype == "PROBE":
            out["PROBE"].append((ev.u, ev.s))
        elif ev.etype == "VAR_COLLECT":
            out["VAR_COLLECT"].append((ev.u, ev.v, ev.var))
        elif ev.etype == "EXCHANGE_COMMIT":
            out["EXCHANGE_COMMIT"].append((ev.u, ev.v, ev.var, ev.traded))
    return out


@pytest.mark.parametrize("policy,overlay_kind,prop_kw", CASES)
def test_bridge_reproduces_inline_exchange_sequence(policy, overlay_kind, prop_kw):
    inline, message = _pair(policy, overlay_kind, trace=True, **prop_kw)
    ci, cm = inline.final_counters, message.final_counters

    assert cm.probes == ci.probes
    assert cm.exchanges == ci.exchanges > 0
    # the same exchanges between the same peers in the same order
    assert ([(e.u, e.v) for e in cm.exchange_log]
            == [(e.u, e.v) for e in ci.exchange_log])
    assert ([e.var for e in cm.exchange_log]
            == pytest.approx([e.var for e in ci.exchange_log]))
    # identical walk traffic; collect carries exactly the documented
    # +1 VAR_REPLY per probe coordination slack
    assert cm.walk_messages == ci.walk_messages
    assert cm.collect_messages == ci.collect_messages + COORDINATION_SLACK * cm.probes
    assert cm.notify_messages >= ci.notify_messages
    # and the decision events agree: same first hops, same candidates and
    # Var values, same commits
    di, dm = _decisions(inline.trace), _decisions(message.trace)
    assert len(di["PROBE"]) == ci.probes
    assert dm == di


def test_bridge_run_reports_transport_telemetry():
    _, message = _pair("G")
    stats = message.net_stats
    assert stats is not None
    assert stats.total_dropped == 0
    assert stats.sent["EXCHANGE_PREPARE"] == message.final_counters.exchanges
    assert stats.sent["EXCHANGE_COMMIT"] == message.final_counters.exchanges
    assert stats.sent["EXCHANGE_ABORT"] == 0
    nc = message.net_counters
    assert nc.walk_timeouts == 0 and nc.vote_timeouts == 0
    assert nc.busy_rejects == 0 and nc.stale_aborts == 0


def test_real_latency_run_still_converges():
    cfg = ExperimentConfig(prop=PROPConfig(policy="G"), transport="sim", **FAST)
    result = run_experiment(cfg, measure_lookups=False)
    assert result.exchanges[-1] > 0
    assert result.link_stretch[-1] < result.link_stretch[0]
