"""Attribute-level selection predicates.

A predicate is a one-leaf expression: :class:`AttributePredicate` *is*
:class:`~repro.query.expression.Comparison`, under the name the paper's
single-predicate analysis uses.  Its textual form (``"quantity <= 25"``)
parses with :func:`~repro.query.expression.parse_expression`.
"""

from __future__ import annotations

from repro.query.expression import Comparison

AttributePredicate = Comparison
