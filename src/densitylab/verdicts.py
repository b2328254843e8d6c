"""Verdict values shared by the comparison machinery.

A verdict never guesses: Holds carries a structural witness, Fails carries
a concrete counterexample coordinate, and exhausting a scan horizon yields
``Status.UNDECIDED``, the one undecided form of a verdict.  Set-level
answers (a strict set, a finiteness bound, a symmetric difference) are None
when undecided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCOMPARABLE = "incomparable"
    UNDECIDED = "undecided"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class RelationVerdict:
    status: Status
    witness_set: object = None        # IndexSet of strictly-improved coordinates
    witness_density: object = None    # DensityResult certificate for witness_set
    counterexample: int | None = None
    horizon: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.status is Status.FAILS and self.counterexample is None and not self.note:
            raise ValueError("a failing verdict needs a counterexample or a note")

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS


def holds(witness_set=None, witness_density=None, note="") -> RelationVerdict:
    return RelationVerdict(Status.HOLDS, witness_set=witness_set,
                           witness_density=witness_density, note=note)


def fails(counterexample=None, note="") -> RelationVerdict:
    return RelationVerdict(Status.FAILS, counterexample=counterexample, note=note)


def incomparable(note="") -> RelationVerdict:
    return RelationVerdict(Status.INCOMPARABLE, note=note)


def undecided(horizon=None, note="") -> RelationVerdict:
    return RelationVerdict(Status.UNDECIDED, horizon=horizon, note=note)
