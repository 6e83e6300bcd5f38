"""Attribute-level selection predicates.

A predicate is a one-leaf expression: :class:`AttributePredicate` *is*
:class:`~repro.query.expression.Comparison`, under the name the
single-predicate entry points have always used.  :func:`parse_predicate`
accepts the textual form used in examples (``"quantity <= 25"``).
"""

from __future__ import annotations

from repro.errors import InvalidPredicateError
from repro.query.expression import Comparison

AttributePredicate = Comparison

#: Parse operators longest-first so "<=" is not read as "<".
_PARSE_ORDER = ("<=", ">=", "!=", "<", ">", "=")


def parse_predicate(text: str) -> AttributePredicate:
    """Parse ``"attr op value"`` into an :class:`AttributePredicate`.

    The value is interpreted as an int when possible, then a float, and a
    bare string otherwise.

    >>> parse_predicate("quantity <= 25")
    Comparison(attribute='quantity', op='<=', value=25)
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
