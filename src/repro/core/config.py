"""PROP protocol configuration.

All constants carry the paper's names and defaults:

* ``MIN_VAR = 0`` — Section 4.2 shows ``Var > 0  =>  L_t0 > L_t1`` (the
  exchange reduces accumulated latency), so zero is the natural
  threshold and the one the simulations use.
* ``nhops = 2`` — Section 5.2: "only when nhop >= 2 can a good
  performance be attained … In order to minimize the cost, nhop = 2 may
  be a better choice".
* ``INIT_TIMER = 60 s`` — "we simply set it as 1 minute".
* ``MAX_TIMER = 2^5 * INIT_TIMER`` — "at most five times of suspending
  (half of MAX_INIT_TRIAL)".
* ``MAX_INIT_TRIAL = 10`` — "simulations … show this number to be less
  than ten".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Any

__all__ = ["PROPConfig"]


def _is_count(value: object) -> bool:
    """An integer (numpy integers included) that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PROPConfig:
    """Tunable parameters of a PROP deployment.

    Parameters
    ----------
    policy:
        ``"G"`` for PROP-G (exchange all neighbors / swap positions) or
        ``"O"`` for PROP-O (exchange ``m`` selected neighbors).
    nhops:
        TTL of the probe random walk.  ``nhops = 1`` degenerates to
        neighbor exchange (ineffective per the paper); the figures sweep
        {1, 2, 4}.
    random_probe:
        When True the probe target is a uniformly random peer instead of
        a walk endpoint — the figures' impractical-but-instructive
        "random" scenario.
    m:
        PROP-O exchange size.  ``None`` means "use the overlay's minimum
        degree δ(G)", the paper's default ("We choose m = δ(G) by
        default").  Ignored by PROP-G.
    selection:
        PROP-O neighbor-selection policy: ``"greedy"`` (gain-ranked, the
        default), ``"farthest"``, or ``"random"`` — see
        :func:`repro.core.varcalc.select_prop_o`.  Ignored by PROP-G.
    min_var:
        Exchange acceptance threshold (``Var > min_var`` required).
    init_timer:
        Probe period in seconds during warm-up, and the Markov timer's
        reset value.
    max_timer_factor:
        ``MAX_TIMER = max_timer_factor * init_timer``; a timer reaching
        the cap resets to ``init_timer`` (the paper's wrap rule).
    max_init_trial:
        Number of warm-up probes before entering maintenance.
    """

    policy: str = "G"
    nhops: int = 2
    random_probe: bool = False
    m: int | None = None
    selection: str = "greedy"
    min_var: float = 0.0
    init_timer: float = 60.0
    max_timer_factor: float = 32.0
    max_init_trial: int = 10

    def __post_init__(self) -> None:
        if self.policy not in ("G", "O"):
            raise ValueError(f"policy must be 'G' or 'O', got {self.policy!r}")
        if not isinstance(self.random_probe, bool):
            raise ValueError(
                f"random_probe must be a bool, got {self.random_probe!r}"
            )
        if not math.isfinite(self.min_var):
            raise ValueError(f"min_var must be finite, got {self.min_var}")
        if not _is_count(self.nhops) or self.nhops < 1:
            raise ValueError(f"nhops must be an integer >= 1, got {self.nhops!r}")
        if self.m is not None and (not _is_count(self.m) or self.m < 1):
            raise ValueError(f"m must be an integer >= 1 or None, got {self.m!r}")
        if self.selection not in ("greedy", "farthest", "random"):
            raise ValueError(f"unknown selection policy {self.selection!r}")
        if not 0.0 < self.init_timer < math.inf:
            raise ValueError(
                f"init_timer must be finite and positive, got {self.init_timer}")
        if not 1.0 <= self.max_timer_factor < math.inf:
            raise ValueError(
                f"max_timer_factor must be finite and >= 1 so that "
                f"max_timer >= init_timer, got {self.max_timer_factor}"
            )
        if not _is_count(self.max_init_trial) or self.max_init_trial < 1:
            raise ValueError(
                f"max_init_trial must be an integer >= 1 (at least one warm-up "
                f"probe), got {self.max_init_trial!r}"
            )

    @property
    def max_timer(self) -> float:
        return self.max_timer_factor * self.init_timer

    def replace(self, **kwargs: Any) -> "PROPConfig":
        """Return a copy with the given fields overridden."""
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)
