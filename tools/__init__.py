"""Repository tooling: the lint fallback and the ledger pair runner."""
