"""A miniature column-store substrate.

Provides the relational objects the paper's introduction reasons about:
typed columns with dictionaries, relations, and the conventional RID-list
index (the baseline of the paper's plan-cost analysis in
:mod:`repro.query.plans`).
"""

from repro.relation.column import Column
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex

__all__ = ["Column", "RIDListIndex", "Relation"]
