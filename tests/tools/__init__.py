"""Tests for the repo tooling (tools/) and the source tree's shape:
references, reachability, typing."""
