"""A miniature column-store substrate.

Provides the relational objects the paper's introduction and Section 9
reason about: typed columns with dictionaries, relations, the conventional
RID-list index (the baseline of the paper's plan-cost analysis in
:mod:`repro.query.plans`), and the projection index (footnote 5 of
Section 9.1).
"""

from repro.relation.column import Column
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.relation.projection import ProjectionIndex

__all__ = ["Column", "ProjectionIndex", "RIDListIndex", "Relation"]
