"""The op record shared by the workloads."""

from __future__ import annotations

from typing import NamedTuple

# verify() returns this for an op that shows a documented library defect
KNOWN_DEFECT = "known-defect"


class Spec(NamedTuple):
    """One generated input: its kind and the plain values the op needs."""

    kind: str
    args: tuple


def shuffled(rng, ops):
    ops = list(ops)
    rng.shuffle(ops)
    return ops
