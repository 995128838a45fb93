"""D5 fixture: overlay mutation outside the sanctioned modules."""


class Meddler:
    def __init__(self, overlay):
        self.overlay = overlay

    def wreck(self, u: int, v: int) -> None:
        self.overlay.add_edge(u, v)
        self.overlay.embedding[u] = v
        self.overlay.embedding_version += 1
        self.overlay._adj[u].add(v)

    def peek_var(self, u: int, v: int) -> float:
        """Swap-measure-swap: a "read" that writes the overlay twice."""
        before = self.overlay.neighbor_latency_sum(u) + self.overlay.neighbor_latency_sum(v)
        self.overlay.swap_embedding(u, v)
        after = self.overlay.neighbor_latency_sum(u) + self.overlay.neighbor_latency_sum(v)
        self.overlay.swap_embedding(u, v)
        return before - after

    def poison_cache(self, u: int) -> None:
        self.overlay._nbr_sum[u] = 0.0
        self.overlay._nbr_sorted[u] = ()
