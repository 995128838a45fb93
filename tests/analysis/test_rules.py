"""The reprolint rule, D5, catches its known-bad fixture, and the real
tree under ``src/repro`` is clean.
"""

from pathlib import Path

from tools.reprolint import analyze

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _findings(fixture: str, rule: str):
    return [f for f in analyze(FIXTURES / fixture, repo=REPO) if f.rule == rule]


class TestKnownBadFixtures:
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
        """No D5 violation and no unparseable module."""
        findings = analyze(REPO / "src" / "repro", repo=REPO)
        assert findings == [], "\n".join(f.render() for f in findings)
