"""Var computation: PROP-G equation (2) and PROP-O greedy selection."""

import numpy as np
import pytest

from repro.core.varcalc import evaluate_prop_g, select_prop_o


def _find_trade(overlay, m=3):
    """First (u, v, trade) pair with a beneficial PROP-O trade."""
    for u in range(overlay.n_slots):
        for v in range(u + 1, overlay.n_slots):
            trade = select_prop_o(overlay, u, v, m=m)
            if trade[0]:
                return u, v, trade
    raise AssertionError("no beneficial trade anywhere — overlay already optimal?")


class TestPropG:
    def test_matches_equation_two(self, gnutella):
        """Var = S_t0(u) + S_t0(v) - S_t1(u) - S_t1(v) computed by hand."""
        u, v = 0, 10
        before = gnutella.neighbor_latency_sum(u) + gnutella.neighbor_latency_sum(v)
        trial = gnutella.copy()
        trial.swap_embedding(u, v)
        after = trial.neighbor_latency_sum(u) + trial.neighbor_latency_sum(v)
        assert evaluate_prop_g(gnutella, u, v) == pytest.approx(before - after)

    def test_leaves_overlay_untouched(self, gnutella):
        emb = gnutella.embedding.copy()
        evaluate_prop_g(gnutella, 0, 10)
        assert np.array_equal(gnutella.embedding, emb)

    def test_is_a_pure_read(self, gnutella):
        """No write to the overlay: the swap-measure-swap it replaced
        bumped ``embedding_version`` twice per evaluation."""
        versions = (gnutella.topology_version, gnutella.embedding_version)
        v = next(iter(gnutella.neighbors(0)))
        for pair in ((0, 10), (0, v)):
            evaluate_prop_g(gnutella, *pair)
            select_prop_o(gnutella, *pair, m=2)
        assert (gnutella.topology_version, gnutella.embedding_version) == versions

    def test_antisymmetric_on_execute(self, gnutella):
        """Swapping then evaluating the reverse swap gives -Var."""
        var = evaluate_prop_g(gnutella, 0, 10)
        gnutella.swap_embedding(0, 10)
        assert evaluate_prop_g(gnutella, 0, 10) == pytest.approx(-var)

    def test_self_exchange_rejected(self, gnutella):
        with pytest.raises(ValueError):
            evaluate_prop_g(gnutella, 3, 3)

    def test_adjacent_pair_handled(self, gnutella):
        u = 0
        v = next(iter(gnutella.neighbors(u)))
        var = evaluate_prop_g(gnutella, u, v)
        trial = gnutella.copy()
        trial.swap_embedding(u, v)
        manual = (
            gnutella.neighbor_latency_sum(u)
            + gnutella.neighbor_latency_sum(v)
            - trial.neighbor_latency_sum(u)
            - trial.neighbor_latency_sum(v)
        )
        assert var == pytest.approx(manual)


class TestPropOSelection:
    def test_equal_trade_sizes(self, gnutella):
        give_u, give_v, _ = select_prop_o(gnutella, 0, 10, m=2)
        assert len(give_u) == len(give_v) <= 2

    def test_var_matches_manual_recomputation(self, gnutella):
        u, v, (give_u, give_v, var) = _find_trade(gnutella, m=3)
        before = gnutella.neighbor_latency_sum(u) + gnutella.neighbor_latency_sum(v)
        trial = gnutella.copy()
        for x in give_u:
            trial.rewire(u, x, v, x)
        for y in give_v:
            trial.rewire(v, y, u, y)
        after = trial.neighbor_latency_sum(u) + trial.neighbor_latency_sum(v)
        assert var == pytest.approx(before - after)

    def test_respects_forbidden_set(self, gnutella):
        u, v = 0, 10
        forbidden = set(gnutella.neighbor_list(u)) | set(gnutella.neighbor_list(v))
        give_u, give_v, var = select_prop_o(gnutella, u, v, m=4, forbidden=forbidden)
        assert give_u == [] and give_v == [] and var == 0.0

    def test_never_trades_counterpart(self, gnutella):
        u = 0
        v = next(iter(gnutella.neighbors(u)))
        give_u, give_v, _ = select_prop_o(gnutella, u, v, m=4)
        assert v not in give_u
        assert u not in give_v

    def test_never_creates_duplicate_edges(self, gnutella):
        u, v = 0, 10
        give_u, give_v, _ = select_prop_o(gnutella, u, v, m=4)
        for x in give_u:
            assert not gnutella.has_edge(v, x)
        for y in give_v:
            assert not gnutella.has_edge(u, y)

    def test_positive_var_or_empty(self, gnutella):
        """The gain-maximizing prefix rule never returns a losing trade."""
        for v in range(1, 30):
            if v == 0:
                continue
            give_u, give_v, var = select_prop_o(gnutella, 0, v, m=3)
            assert (give_u == [] and var == 0.0) or var > 0.0

    def test_m_caps_trade_size(self, gnutella):
        give_u, _, _ = select_prop_o(gnutella, 0, 10, m=1)
        assert len(give_u) <= 1

    def test_invalid_m_rejected(self, gnutella):
        with pytest.raises(ValueError):
            select_prop_o(gnutella, 0, 10, m=0)

    def test_self_exchange_rejected(self, gnutella):
        with pytest.raises(ValueError):
            select_prop_o(gnutella, 5, 5, m=1)

    def test_leaves_overlay_untouched(self, gnutella):
        edges = set(gnutella.iter_edges())
        select_prop_o(gnutella, 0, 10, m=3)
        assert set(gnutella.iter_edges()) == edges


class TestSelectionPolicies:
    def test_unknown_policy_rejected(self, gnutella):
        with pytest.raises(ValueError):
            select_prop_o(gnutella, 0, 10, m=2, selection="best")

    def test_random_needs_rng(self, gnutella):
        with pytest.raises(ValueError):
            select_prop_o(gnutella, 0, 10, m=2, selection="random")

    def test_all_policies_return_positive_var_or_empty(self, gnutella):
        rng = np.random.default_rng(0)
        for sel in ("greedy", "farthest", "random"):
            for v in range(1, 25):
                give_u, give_v, var = select_prop_o(
                    gnutella, 0, v, m=3, selection=sel, rng=rng
                )
                assert (give_u == [] and var == 0.0) or var > 0.0
                assert len(give_u) == len(give_v)

    def test_greedy_var_at_least_alternatives(self, gnutella):
        """Greedy is gain-optimal under the equal-count constraint, so no
        alternative policy can report a larger Var for the same pair."""
        u, v, (give_u, give_v, var_greedy) = _find_trade(gnutella, m=3)
        rng = np.random.default_rng(0)
        for sel in ("farthest", "random"):
            _, _, var_alt = select_prop_o(gnutella, u, v, m=3, selection=sel, rng=rng)
            assert var_greedy >= var_alt - 1e-9

    def test_farthest_offers_farthest(self, gnutella):
        u, v, _ = _find_trade(gnutella, m=1)
        give_u, _, _ = select_prop_o(gnutella, u, v, m=1, selection="farthest")
        if give_u:
            from repro.core.varcalc import _tradable

            cand = _tradable(gnutella, u, v, ())
            far = max(cand, key=lambda x: gnutella.latency(u, x))
            assert give_u == [far]

    def test_var_matches_manual_for_alternatives(self, gnutella):
        rng = np.random.default_rng(1)
        for sel in ("farthest", "random"):
            for v in range(1, 30):
                give_u, give_v, var = select_prop_o(
                    gnutella, 0, v, m=2, selection=sel, rng=rng
                )
                if not give_u:
                    continue
                trial = gnutella.copy()
                before = trial.neighbor_latency_sum(0) + trial.neighbor_latency_sum(v)
                for x in give_u:
                    trial.rewire(0, x, v, x)
                for y in give_v:
                    trial.rewire(v, y, 0, y)
                after = trial.neighbor_latency_sum(0) + trial.neighbor_latency_sum(v)
                assert var == pytest.approx(before - after)
                break
