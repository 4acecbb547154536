"""The repeated-split protocol: one frozen record of the settings that
`rank --alpha cv`, `evaluate` and `stability` share, and the one list of rules
their values obey. The library checks them when a Protocol is built, and the
command line checks them the same way, naming each field by its flag.

This module is apart from ecfs.evaluation so that a fixed-alpha `rank`, which
checks its flags here, imports neither evaluation nor numpy.random.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

from .centrality import METHODS
from .graph import _finite

DEFAULT_ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0)
DEFAULT_CARDINALITIES = (50, 100, 150, 200)


class ProtocolError(ValueError):
    """The rules a Protocol's values break: `broken` holds (field, message)
    pairs, where {name} in a message stands for the field's name."""

    def __init__(self, broken: list[tuple[str, str]]):
        super().__init__(broken)
        self.broken = broken

    def __str__(self) -> str:
        return "; ".join(self.messages(str))

    def messages(self, name) -> list[str]:
        """Each broken rule's message, with name(field) in its {name} slot."""
        return [message.replace("{name}", name(field), 1) for field, message in self.broken]


@dataclass(frozen=True)
class Protocol:
    """How to rank, resample and cross-validate: the methods and top-k sizes to
    score, alpha (a number in [0, 1], or "cv" to pick alpha and C per training
    split by `folds`-fold cross-validation over alpha_grid x c_grid, scoring the
    top cv_cardinality features), the baselines' C (fixed_c), MI's bin count
    (None: a default from the row count), the classifier's epochs, and
    `repeats` stratified splits with train_fraction of each class on the
    training side, all drawn from `seed`.

    The counts (each cardinality, bins, folds, cv_cardinality, epochs, repeats
    and seed) must be integers; fixed_c, train_fraction and the grids' values
    must be real numbers; methods, cardinalities, alpha_grid and c_grid are
    sequences, never a bare string, held as tuples. ProtocolError (a
    ValueError) names every rule the values break. The rules that need the data
    stay with it: each k below the feature count, binary labels, enough samples
    per class and fold.
    """

    methods: tuple = METHODS
    cardinalities: tuple = DEFAULT_CARDINALITIES
    alpha: float | str = 0.5
    fixed_c: float = 1.0
    bins: int | None = None
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    c_grid: tuple = DEFAULT_C_GRID
    folds: int = 5
    cv_cardinality: int = 100
    epochs: int = 50
    train_fraction: float = 2.0 / 3.0
    repeats: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("methods", "cardinalities", "alpha_grid", "c_grid"):
            value = getattr(self, name)
            if isinstance(value, Iterable) and not isinstance(value, (str, bytes)):
                object.__setattr__(self, name, tuple(value))
        broken = list(self._broken_rules())
        if broken:
            raise ProtocolError(broken)

    def _broken_rules(self):
        """(field, message) for each rule the values break, in field order."""
        if message := _sequence_rule(self.methods):
            yield "methods", message
        else:
            methods = list(self.methods)
            if not methods:
                yield "methods", "{name} must name at least one method"
            unknown = [m for m in methods if m not in METHODS]
            if unknown:
                yield "methods", f"unknown methods {unknown}; choose from {list(METHODS)}"
            # an unknown name is named above; only strings are sure to hash
            if all(isinstance(m, str) for m in methods) and len(set(methods)) != len(methods):
                yield "methods", f"{{name}} must name each method once, got {methods}"
        if message := _sequence_rule(self.cardinalities):
            yield "cardinalities", message
        elif not self.cardinalities or not all(isinstance(k, numbers.Integral) and k >= 1
                                               for k in self.cardinalities):
            yield "cardinalities", "{name} must be positive integers"
        if not isinstance(self.alpha, numbers.Real):
            if self.alpha != "cv":
                yield "alpha", f"{{name}} must be a number or 'cv', got {self.alpha!r}"
        elif not 0.0 <= self.alpha <= 1.0:
            yield "alpha", f"{{name}} must be in [0, 1] or 'cv', got {self.alpha}"
        if message := _number_rule(self.fixed_c):
            yield "fixed_c", message
        elif not 0 < self.fixed_c < math.inf:
            yield "fixed_c", f"{{name}} must be positive and finite, got {self.fixed_c}"
        if self.bins is not None:
            if message := _count_rule(self.bins, 2, "at least 2"):
                yield "bins", message
            elif not _finite(self.bins):
                yield "bins", f"{{name}} must convert to a finite float, got {self.bins}"
        if message := _sequence_rule(self.alpha_grid, of_numbers=True):
            yield "alpha_grid", message
        elif not self.alpha_grid or not all(0.0 <= a <= 1.0 for a in self.alpha_grid):
            yield "alpha_grid", "{name} values must lie in [0, 1]"
        if message := _sequence_rule(self.c_grid, of_numbers=True):
            yield "c_grid", message
        elif not self.c_grid or not all(0 < c < math.inf for c in self.c_grid):
            yield "c_grid", "{name} values must be positive and finite"
        for name, least, bound in (("folds", 2, "at least 2"), ("cv_cardinality", 1, "positive"),
                                   ("epochs", 1, "positive")):
            if message := _count_rule(getattr(self, name), least, bound):
                yield name, message
        if message := _number_rule(self.train_fraction):
            yield "train_fraction", message
        elif not 0.0 < self.train_fraction < 1.0:
            yield "train_fraction", f"{{name}} must be in (0, 1), got {self.train_fraction}"
        if message := _count_rule(self.repeats, 1, "positive"):
            yield "repeats", message
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**63):
            yield "seed", f"{{name}} must be a non-negative 63-bit integer, got {self.seed}"


def _sequence_rule(value, of_numbers: bool = False) -> str | None:
    """The message for a sequence field that __post_init__ could not hold as a
    tuple (a string, or not iterable), or, with of_numbers, whose items are not
    all real numbers; None when there is none."""
    if isinstance(value, (str, bytes)):
        return f"{{name}} must be a sequence, not the string {value!r}"
    if not isinstance(value, tuple):
        return f"{{name}} must be a sequence, got {value!r}"
    if of_numbers and not all(isinstance(v, numbers.Real) for v in value):
        return f"{{name}} values must be numbers, got {value!r}"
    return None


def _number_rule(value) -> str | None:
    """The message for a field whose value is not a real number, or None."""
    if not isinstance(value, numbers.Real):
        return f"{{name}} must be a number, got {value!r}"
    return None


def _count_rule(value, least: int, bound: str) -> str | None:
    """The message for a count field whose value is not an integer of at least
    least (bound says so in words), or None when it is one."""
    if not isinstance(value, numbers.Integral):
        return f"{{name}} must be an integer, got {value!r}"
    if value < least:
        return f"{{name}} must be {bound}, got {value}"
    return None
