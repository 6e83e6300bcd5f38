"""Attribute-level selection predicates.

:class:`AttributePredicate` binds a comparison to a named attribute of a
relation; :func:`parse_predicate` accepts the textual form used in
examples (``"quantity <= 25"``).  Values may be any orderable type — the
executor translates them to the rank domain through the column dictionary
before touching a bitmap index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import COMPARE, OPERATORS
from repro.errors import InvalidPredicateError

#: Parse operators longest-first so "<=" is not read as "<".
_PARSE_ORDER = ("<=", ">=", "!=", "<", ">", "=")


@dataclass(frozen=True)
class AttributePredicate:
    """``attribute op value`` over a relation."""

    attribute: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise InvalidPredicateError(
                f"unknown operator {self.op!r}; expected one of {OPERATORS}"
            )

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask over a value column (ground truth)."""
        return COMPARE[self.op](np.asarray(values), self.value)

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value}"


def parse_predicate(text: str) -> AttributePredicate:
    """Parse ``"attr op value"`` into an :class:`AttributePredicate`.

    The value is interpreted as an int when possible, then a float, and a
    bare string otherwise.

    >>> parse_predicate("quantity <= 25")
    AttributePredicate(attribute='quantity', op='<=', value=25)
    """
    for op in _PARSE_ORDER:
        if op in text:
            left, _, right = text.partition(op)
            attribute = left.strip()
            raw = right.strip()
            if not attribute or not raw:
                break
            value: object
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            return AttributePredicate(attribute, op, value)
    raise InvalidPredicateError(
        f"cannot parse predicate {text!r}; expected 'attribute op value'"
    )
