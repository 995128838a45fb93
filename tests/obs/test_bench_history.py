"""The one helper the benchmark ledger imports from ``repro.obs.bench_history``."""

from repro.obs.bench_history import current_git_rev


class TestRecords:
    def test_current_git_rev_in_repo(self):
        rev = current_git_rev()
        assert rev == "unknown" or len(rev) >= 7

    def test_unknown_outside_a_checkout(self, tmp_path):
        assert current_git_rev(tmp_path) == "unknown"
