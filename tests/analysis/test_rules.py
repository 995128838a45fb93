"""Every per-file reprolint rule catches its known-bad fixture, and the
real tree under ``src/repro`` is clean.
"""

from pathlib import Path

from tools.reprolint import analyze

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _findings(fixture: str, rule: str):
    return [f for f in analyze(FIXTURES / fixture, repo=REPO) if f.rule == rule]


class TestKnownBadFixtures:
    def test_d1_flags_wallclock_and_unseeded_randomness(self):
        found = _findings("d1_bad", "D1")
        messages = " | ".join(f.message for f in found)
        assert "stdlib `random` imported" in messages
        assert "time.time" in messages
        assert "np.random.seed" in messages
        assert "np.random.rand" in messages
        assert "unseeded `default_rng()`" in messages
        assert len(found) == 5

    def test_d1_wallclock_allowlist_scopes_to_repro_live(self):
        """`repro.live` may read wall clocks; everywhere else may not,
        and unseeded randomness stays forbidden even inside the
        allowlisted package."""
        found = _findings("d1_scoped", "D1")
        by_path = {}
        for f in found:
            by_path.setdefault(Path(f.path).parent.name, []).append(f.message)
        # live/: two wall-clock calls sanctioned; only default_rng flagged.
        assert len(by_path["live"]) == 1
        assert "unseeded `default_rng()`" in by_path["live"][0]
        # core/: the identical call is still a violation.
        assert len(by_path["core"]) == 1
        assert "time.monotonic" in by_path["core"][0]
        assert len(found) == 2

    def test_d1_resolves_import_aliases(self):
        """`import time as _time` (and friends) cannot dodge the rule:
        aliases resolve to canonical names before the deny-set lookup,
        and the allowlist still covers the resolved calls in
        `repro.obs.prof`."""
        found = _findings("d1_alias", "D1")
        by_path = {}
        for f in found:
            by_path.setdefault(Path(f.path).parent.name, []).append(f.message)
        assert "obs" not in by_path  # repro.obs.prof is allowlisted
        core = " | ".join(by_path["core"])
        assert "time.monotonic" in core
        assert "time.perf_counter_ns" in core
        assert "datetime.datetime.now" in core
        assert len(by_path["core"]) == 4
        assert len(found) == 4

    def test_d3_flags_unsorted_set_iteration(self):
        found = _findings("d3_bad", "D3")
        wheres = " | ".join(f.message for f in found)
        assert "comprehension" in wheres  # [x for x in uniq]
        assert "for-loop" in wheres  # for c in {3, 1, 2}
        assert "list() argument" in wheres  # list(uniq)
        assert len(found) == 3

    def test_d5_flags_out_of_band_overlay_mutation(self):
        found = _findings("d5_bad", "D5")
        messages = " | ".join(f.message for f in found)
        assert "self.overlay.add_edge" in messages
        assert "`self.overlay.embedding`" in messages
        assert "`self.overlay.embedding_version`" in messages
        assert "direct neighbor-set mutation" in messages
        # a swap-measure-swap "read" outside the exchange modules: both swaps
        assert messages.count("self.overlay.swap_embedding") == 2
        # the overlay's cached views are as private as `_adj`
        assert "`self.overlay._nbr_sum`" in messages
        assert "`self.overlay._nbr_sorted`" in messages
        assert len(found) == 8

    def test_d5_var_evaluator_is_no_longer_a_sanctioned_mutator(self):
        from tools.reprolint.rules import ExchangeAtomicity

        assert "repro.core.varcalc" not in ExchangeAtomicity.ALLOWED_MODULES
        assert {"_nbr_sorted", "_nbr_index", "_nbr_sum"} <= ExchangeAtomicity.MUTATED_ATTRS


class TestRealTree:
    def test_src_repro_is_clean(self):
        """No rule violation and no dead suppression (E998)."""
        findings = analyze(REPO / "src" / "repro", repo=REPO)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_rule_registers(self):
        from tools.reprolint import iter_rules

        assert [r.id for r in iter_rules()] == ["C1", "D1", "D3", "D5"]
