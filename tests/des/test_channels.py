"""ChannelConfig rejects invalid batching knobs at construction."""

from __future__ import annotations

import dataclasses

import pytest

from repro.des.channels import ChannelConfig


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": True},
        {"batch_size": False},
        {"prefetch": True},
        {"prefetch": False},
        {"batch_size": 0},
        {"batch_size": 2.0},
        {"prefetch": -1},
        {"flush_timeout_s": 0.0},
        {"flush_timeout_s": -1.0},
    ],
    ids=repr,
)
def test_invalid_knob_rejected(kwargs):
    (field,) = kwargs
    with pytest.raises(ValueError, match=field):
        ChannelConfig(**kwargs)


def test_three_knobs():
    assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
        "batch_size",
        "flush_timeout_s",
        "prefetch",
    ]
