"""PROPConfig validation and paper defaults."""

from dataclasses import fields
from math import inf, nan

import numpy as np
import pytest

from repro.core.config import PROPConfig

#: field -> values ``__post_init__`` must reject.  Every field is a key
#: unless :data:`EXEMPT` says why it has no invalid value, so a new field
#: nothing validates fails ``test_every_field_has_an_invalid_value``.
INVALID = {
    "policy": ["X"],
    "nhops": [0, 2.5],  # 2.5 raised TypeError mid-run, inside random_walk
    "random_probe": [1],
    "m": [0, 1.5],  # 1.5 raised TypeError mid-run, inside select_prop_o
    "selection": ["best"],
    "min_var": [nan, inf],
    "init_timer": [0.0, nan, inf],  # nan/inf failed only inside engine.start
    "max_timer_factor": [0.5, nan, inf],  # nan/inf made the wrap rule meaningless
    "max_init_trial": [0, 2.5],  # 2.5 ran silently
}

#: field -> why no value of it is invalid.
EXEMPT: dict[str, str] = {}


def test_paper_defaults():
    cfg = PROPConfig()
    assert cfg.policy == "G"
    assert cfg.nhops == 2
    assert cfg.min_var == 0.0
    assert cfg.init_timer == 60.0
    assert cfg.max_timer == 32 * 60.0  # 2^5 * INIT_TIMER
    assert cfg.max_init_trial == 10
    assert cfg.m is None  # delta(G) by default


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(policy="X"),
        dict(nhops=0),
        dict(m=0),
        dict(init_timer=0.0),
        dict(init_timer=-60.0),
        dict(max_timer_factor=0.5),
        dict(max_init_trial=-1),
        dict(max_init_trial=0),
        dict(selection="best"),
    ],
)
def test_invalid_rejected(kwargs):
    with pytest.raises(ValueError):
        PROPConfig(**kwargs)


@pytest.mark.parametrize(
    ("kwargs", "field", "value"),
    [
        (dict(nhops=0), "nhops", "0"),
        (dict(init_timer=-5.0), "init_timer", "-5.0"),
        (dict(max_timer_factor=0.25), "max_timer_factor", "0.25"),
        (dict(max_init_trial=0), "max_init_trial", "0"),
    ],
)
def test_invalid_message_names_field_and_value(kwargs, field, value):
    """Rejections say which field failed and what value it had."""
    with pytest.raises(ValueError, match=field) as excinfo:
        PROPConfig(**kwargs)
    assert value in str(excinfo.value)


def test_every_field_has_an_invalid_value():
    assert set(INVALID) == {f.name for f in fields(PROPConfig)} - set(EXEMPT)


@pytest.mark.parametrize(
    ("field", "value"), [(f, v) for f, values in INVALID.items() for v in values])
def test_every_invalid_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        PROPConfig(**{field: value})


def test_numpy_integer_counts_accepted():
    cfg = PROPConfig(nhops=np.int64(3), m=np.int32(2), max_init_trial=np.int16(4))
    assert (cfg.nhops, cfg.m, cfg.max_init_trial) == (3, 2, 4)


def test_max_timer_never_below_init_timer():
    cfg = PROPConfig(init_timer=30.0, max_timer_factor=1.0)
    assert cfg.max_timer >= cfg.init_timer


def test_replace_overrides():
    cfg = PROPConfig(policy="G").replace(policy="O", m=3)
    assert cfg.policy == "O"
    assert cfg.m == 3
    assert cfg.nhops == 2  # untouched


def test_frozen():
    cfg = PROPConfig()
    with pytest.raises(Exception):
        cfg.nhops = 5
