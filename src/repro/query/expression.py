"""Boolean selection expressions over bitmap indexes.

The paper evaluates single predicates; real DSS queries combine them.
Bitmap indexes make boolean combination trivial — one hardware-friendly
word operation per connective — which is much of their original appeal
(the paper's introduction: "operations on bitmaps are more CPU-efficient
than merging RID-lists").  This module provides:

- an expression tree (:class:`Comparison`, :class:`And`, :class:`Or`,
  :class:`Xor`, :class:`Not`, :class:`In`, :class:`Between`,
  :class:`Threshold`) whose nodes evaluate to bitmaps through
  per-attribute bitmap indexes;
- a small recursive-descent parser for the textual form, e.g.
  ``"quantity <= 25 and (region = 3 or region = 7) and not flagged = 1"``
  or ``"atleast(2, region = 3, quantity > 10, flagged = 1)"``;
- ground-truth evaluation over raw columns for verification.

``IN`` lists become ORs of equality bitmaps; ``BETWEEN`` becomes two
range predicates — both evaluated entirely inside the index.
``ATLEAST(k, e1, …, eN)`` — the k-of-N threshold of Kaser & Lemire's
"beyond unions and intersections" — evaluates through each codec's
native compressed-domain counting kernel
(:func:`repro.core.evaluation.threshold_all`).

This module is the one place that knows how a tree is walked.  There is
one leaf, :class:`Comparison` (``IN`` and ``BETWEEN`` evaluate as the
``OR``/``AND`` of leaves they stand for), and a node names its operands
once, in :meth:`Expression.children`; :meth:`~Expression.leaves`,
:meth:`~Expression.map_leaves` and :meth:`~Expression.attributes` are
written over that, so EXPLAIN's per-leaf prediction and the process
backend's code-domain translation are callers, not copies of the walk.
Connectives run through the counted operations of
:mod:`repro.core.evaluation` — the one place an operation is charged,
timed and run.  ``NOT`` and ``XOR`` over an index that tracks NULLs
evaluate through the De Morgan dual (:meth:`Expression.negated`): a NULL
satisfies no predicate, negated or not, so both follow Kleene logic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.core.evaluation import (
    COMPARE,
    OPERATORS,
    Predicate,
    and_,
    evaluate,
    group_counts,
    not_,
    or_,
    rank_bound,
    rank_sum,
    threshold_all,
    xor_,
)
from repro.core.index import BitmapSource
from repro.errors import InvalidPredicateError, VerificationError
from repro.relation.relation import Relation
from repro.stats import ExecutionStats


class Expression:
    """Base class of the boolean expression tree.

    A node says what it combines (:meth:`children`) and how
    (:meth:`bitmap`, :meth:`mask`, :meth:`negated`); every walk that only
    needs the shape — :meth:`leaves`, :meth:`map_leaves`,
    :meth:`attributes` — is written here, once.
    """

    def bitmap(
        self,
        relation: Relation,
        indexes: dict[str, BitmapSource],
        stats: ExecutionStats | None = None,
        algorithm: str = "auto",
    ) -> BitVector:
        """Evaluate to a result bitmap through the given bitmap indexes.

        ``algorithm`` names the evaluation algorithm every leaf runs
        (see :func:`repro.core.evaluation.evaluate`).
        """
        raise NotImplementedError

    def mask(self, relation: Relation) -> np.ndarray:
        """Ground-truth boolean mask over the relation (no indexes)."""
        raise NotImplementedError

    def negated(self) -> "Expression":
        """The rows this expression is *false* on, as an expression.

        Not the bitmap complement: a row whose attribute is NULL makes a
        comparison neither true nor false, so the negation is pushed down
        to the leaves (De Morgan), which mask with ``B_nn`` themselves.
        """
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """The sub-expressions this node combines, left to right."""
        return ()

    def _over(self, children):
        """This node over other operands (how :meth:`map_leaves` rebuilds)."""
        return type(self)(*children)

    def leaves(self) -> list[Any]:
        """The comparisons the tree evaluates, left to right.

        A leaf is a node without children — a :class:`Comparison`, or the
        code-domain leaf of a translated tree; ``IN`` and ``BETWEEN``
        count as the comparisons they stand for.
        """
        nodes = self.children()
        if not nodes:
            return [self]
        return [leaf for node in nodes for leaf in node.leaves()]

    def map_leaves(self, fn: Callable[[Any], "Expression"]) -> "Expression":
        """The same tree with every leaf replaced by ``fn(leaf)``."""
        nodes = self.children()
        if not nodes:
            return fn(self)
        return self._over(tuple(node.map_leaves(fn) for node in nodes))

    def attributes(self) -> set[str]:
        """Attribute names the expression references."""
        return {leaf.attribute for leaf in self.leaves()}

    # Convenience combinators so expressions compose in Python too.
    def __and__(self, other: "Expression") -> "Expression":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return Or(self, other)

    def __xor__(self, other: "Expression") -> "Expression":
        return Xor(self, other)

    def __invert__(self) -> "Expression":
        return Not(self)


def _index_for(indexes: dict[str, BitmapSource], attribute: str) -> BitmapSource:
    try:
        return indexes[attribute]
    except KeyError:
        raise InvalidPredicateError(
            f"no bitmap index for attribute {attribute!r}"
        ) from None


def _tracks_nulls(expression: Expression, indexes: dict[str, BitmapSource]) -> bool:
    """Whether an index under ``expression`` tracks NULLs, so that its
    ``NOT`` and ``XOR`` must go through :meth:`Expression.negated`."""
    sources = (indexes.get(name) for name in expression.attributes())
    return any(source is not None and source.nonnull is not None for source in sources)


#: ``NOT (A op v)`` is ``A COMPLEMENT[op] v`` on every row where A is known.
COMPLEMENT = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}


@dataclass(frozen=True)
class Comparison(Expression):
    """A leaf ``attribute op value`` — also the single selection predicate
    (``AttributePredicate`` is this class).

    The value may be any orderable type: evaluation translates it to the
    rank domain through the column dictionary before touching an index.
    """

    attribute: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise InvalidPredicateError(
                f"unknown operator {self.op!r}; expected one of {OPERATORS}"
            )

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        column = relation.column(self.attribute)
        op, code = column.code_bounds(self.op, self.value)
        index = _index_for(indexes, self.attribute)
        return evaluate(index, Predicate(op, code), algorithm, stats)

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask over a value column (ground truth)."""
        return COMPARE[self.op](np.asarray(values), self.value)

    def mask(self, relation):
        return self.matches(relation.column(self.attribute).values)

    def negated(self):
        return replace(self, op=COMPLEMENT[self.op])

    def __str__(self):
        return f"{self.attribute} {self.op} {self.value}"


@dataclass(frozen=True)
class In(Expression):
    """``attribute IN (v1, v2, …)`` — an OR of equality bitmaps."""

    attribute: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise InvalidPredicateError("IN list must not be empty")

    def children(self):
        """The OR of ``=`` leaves the list stands for."""
        terms = [Comparison(self.attribute, "=", value) for value in self.values]
        return (_balanced_or(terms),)

    def _over(self, children):
        return children[0]

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        return self.children()[0].bitmap(relation, indexes, stats, algorithm)

    def mask(self, relation):
        values = relation.column(self.attribute).values
        out = np.zeros(len(values), dtype=bool)
        for value in self.values:
            out |= values == value
        return out

    def negated(self):
        return self.children()[0].negated()

    def __str__(self):
        inner = ", ".join(str(v) for v in self.values)
        return f"{self.attribute} in ({inner})"


def _balanced_or(terms: list[Expression]) -> Expression:
    """``terms`` ORed left to right as a tree of depth ``log2 len(terms)``.

    One OR per term but the first, however they nest; a left-deep chain
    would put a long ``IN`` list past the interpreter's recursion limit
    (walking, negating and pickling a tree all recurse).
    """
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return Or(_balanced_or(terms[:half]), _balanced_or(terms[half:]))


@dataclass(frozen=True)
class Between(Expression):
    """``attribute BETWEEN low AND high`` (inclusive both ends)."""

    attribute: str
    low: object
    high: object

    def children(self):
        """The AND of a ``>=`` and a ``<=`` leaf the range stands for."""
        lower = Comparison(self.attribute, ">=", self.low)
        return (And(lower, Comparison(self.attribute, "<=", self.high)),)

    def _over(self, children):
        return children[0]

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        return self.children()[0].bitmap(relation, indexes, stats, algorithm)

    def mask(self, relation):
        values = relation.column(self.attribute).values
        return (values >= self.low) & (values <= self.high)

    def negated(self):
        return self.children()[0].negated()

    def __str__(self):
        return f"{self.attribute} between {self.low} and {self.high}"


@dataclass(frozen=True)
class _Binary(Expression):
    """A connective of two sub-expressions."""

    left: Expression
    right: Expression

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class And(_Binary):
    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        stats = stats if stats is not None else ExecutionStats()
        a = self.left.bitmap(relation, indexes, stats, algorithm)
        b = self.right.bitmap(relation, indexes, stats, algorithm)
        return and_(a, b, stats)

    def mask(self, relation):
        return self.left.mask(relation) & self.right.mask(relation)

    def negated(self):
        return Or(self.left.negated(), self.right.negated())

    def __str__(self):
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(_Binary):
    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        stats = stats if stats is not None else ExecutionStats()
        a = self.left.bitmap(relation, indexes, stats, algorithm)
        b = self.right.bitmap(relation, indexes, stats, algorithm)
        return or_(a, b, stats)

    def mask(self, relation):
        return self.left.mask(relation) | self.right.mask(relation)

    def negated(self):
        return And(self.left.negated(), self.right.negated())

    def __str__(self):
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Xor(_Binary):
    """Symmetric difference: rows matching exactly one side.

    Evaluates as one compressed-domain XOR per codec — equivalent to
    ``(left OR right) ANDNOT (left AND right)`` but a single operation.
    Over an index that tracks NULLs it evaluates
    ``(left AND NOT right) OR (NOT left AND right)``, each ``NOT`` by
    :meth:`Expression.negated`: a row is known true only when both sides
    are known (Kleene logic), at two leaf walks per nesting level.
    """

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        stats = stats if stats is not None else ExecutionStats()
        if _tracks_nulls(self, indexes):
            exactly_one = Or(
                And(self.left, self.right.negated()), And(self.left.negated(), self.right)
            )
            return exactly_one.bitmap(relation, indexes, stats, algorithm)
        a = self.left.bitmap(relation, indexes, stats, algorithm)
        b = self.right.bitmap(relation, indexes, stats, algorithm)
        return xor_(a, b, stats)

    def mask(self, relation):
        return self.left.mask(relation) ^ self.right.mask(relation)

    def negated(self):
        both = And(self.left, self.right)
        return Or(both, And(self.left.negated(), self.right.negated()))

    def __str__(self):
        return f"({self.left} xor {self.right})"


@dataclass(frozen=True)
class Threshold(Expression):
    """k-of-N threshold ``ATLEAST(k, e1, …, eN)``.

    Matches the rows satisfying at least ``k`` of the operand
    expressions — ``k = 1`` is the N-way OR, ``k = N`` the N-way AND, and
    intermediate ``k`` the "match at least k criteria" query class the
    folds cannot express.  Out-of-range thresholds are legal and clamp:
    ``k <= 0`` matches every row, ``k > N`` matches none.  Operand
    bitmaps combine through the codec's native k-way counting kernel
    (:func:`repro.core.evaluation.threshold_all`), never materializing
    row-granularity intermediates.
    """

    k: int
    operands: tuple[Expression, ...]

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidPredicateError(
                f"threshold k must be an integer, got {self.k!r}"
            )
        if not self.operands:
            raise InvalidPredicateError(
                "threshold needs at least one operand expression"
            )

    def children(self):
        return self.operands

    def _over(self, children):
        return Threshold(self.k, children)

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        vectors = [
            e.bitmap(relation, indexes, stats, algorithm) for e in self.operands
        ]
        counted = stats if stats is not None else ExecutionStats()
        return threshold_all(vectors, self.k, counted)

    def mask(self, relation):
        counts = np.zeros(relation.num_rows, dtype=np.int64)
        for operand in self.operands:
            counts += operand.mask(relation)
        return counts >= self.k

    def negated(self):
        # Fewer than k of N hold iff at least N - k + 1 are false.
        return Threshold(
            len(self.operands) - self.k + 1,
            tuple(operand.negated() for operand in self.operands),
        )

    def __str__(self):
        inner = ", ".join(str(e) for e in self.operands)
        return f"atleast({self.k}, {inner})"


@dataclass(frozen=True)
class Not(Expression):
    inner: Expression

    def children(self):
        return (self.inner,)

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        stats = stats if stats is not None else ExecutionStats()
        if _tracks_nulls(self, indexes):
            # A NULL satisfies no predicate, negated or not, and the
            # complement would bring back the rows the leaves masked out.
            return self.inner.negated().bitmap(relation, indexes, stats, algorithm)
        return not_(self.inner.bitmap(relation, indexes, stats, algorithm), stats)

    def mask(self, relation):
        return ~self.inner.mask(relation)

    def negated(self):
        return self.inner

    def __str__(self):
        return f"(not {self.inner})"


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<op><=|>=|!=|<|>|=)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<number>-?\d+\.?\d*))"
)

_KEYWORDS = {"and", "or", "xor", "not", "in", "between"}

#: Function-style leaf names, matched contextually (only when followed by
#: an opening parenthesis) so columns with these names keep working.
_THRESHOLD_NAMES = {"atleast", "threshold"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            raise InvalidPredicateError(
                f"cannot tokenize expression at: {text[pos:pos + 20]!r}"
            )
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append((value.lower(), value))
        else:
            tokens.append((kind, value))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent: or-expr > and-expr > not-expr > leaf."""

    def __init__(self, tokens: list[tuple[str, str]]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos][0]
        return None

    def _take(self, kind: str | None = None) -> tuple[str, str]:
        if self._pos >= len(self._tokens):
            raise InvalidPredicateError("unexpected end of expression")
        token = self._tokens[self._pos]
        if kind is not None and token[0] != kind:
            raise InvalidPredicateError(
                f"expected {kind} but found {token[1]!r}"
            )
        self._pos += 1
        return token

    def parse(self) -> Expression:
        expr = self._or()
        if self._pos != len(self._tokens):
            extra = self._tokens[self._pos][1]
            raise InvalidPredicateError(f"trailing input at {extra!r}")
        return expr

    def _or(self) -> Expression:
        left = self._xor()
        while self._peek() == "or":
            self._take("or")
            left = Or(left, self._xor())
        return left

    def _xor(self) -> Expression:
        left = self._and()
        while self._peek() == "xor":
            self._take("xor")
            left = Xor(left, self._and())
        return left

    def _and(self) -> Expression:
        left = self._not()
        while self._peek() == "and":
            self._take("and")
            left = And(left, self._not())
        return left

    def _not(self) -> Expression:
        if self._peek() == "not":
            self._take("not")
            return Not(self._not())
        return self._leaf()

    def _leaf(self) -> Expression:
        if self._peek() == "lparen":
            self._take("lparen")
            expr = self._or()
            self._take("rparen")
            return expr
        _, attribute = self._take("word")
        kind = self._peek()
        if attribute.lower() in _THRESHOLD_NAMES and kind == "lparen":
            return self._threshold(attribute)
        if kind == "op":
            _, op = self._take("op")
            return Comparison(attribute, op, self._value())
        if kind == "in":
            self._take("in")
            self._take("lparen")
            values = [self._value()]
            while self._peek() == "comma":
                self._take("comma")
                values.append(self._value())
            self._take("rparen")
            return In(attribute, tuple(values))
        if kind == "between":
            self._take("between")
            low = self._value()
            self._take("and")
            return Between(attribute, low, self._value())
        raise InvalidPredicateError(
            f"expected an operator after {attribute!r}"
        )

    def _threshold(self, name: str) -> Expression:
        """``atleast(k, expr, expr, …)`` — parsed after its name token."""
        self._take("lparen")
        kind, text = self._take()
        if kind != "number" or "." in text:
            raise InvalidPredicateError(
                f"{name} needs an integer threshold, found {text!r}"
            )
        k = int(text)
        operands: list[Expression] = []
        while self._peek() == "comma":
            self._take("comma")
            operands.append(self._or())
        self._take("rparen")
        if not operands:
            raise InvalidPredicateError(
                f"{name}({k}, …) needs at least one operand expression"
            )
        return Threshold(k, tuple(operands))

    def _value(self):
        kind, text = self._take()
        if kind == "number":
            return float(text) if "." in text else int(text)
        if kind == "word":
            return text
        raise InvalidPredicateError(f"expected a value, found {text!r}")


def parse_expression(text: str) -> Expression:
    """Parse a boolean selection expression.

    Grammar (case-insensitive keywords)::

        or-expr   := xor-expr ("or" xor-expr)*
        xor-expr  := and-expr ("xor" and-expr)*
        and-expr  := not-expr ("and" not-expr)*
        not-expr  := "not" not-expr | leaf
        leaf      := "(" or-expr ")"
                   | ("atleast" | "threshold") "(" int ("," or-expr)+ ")"
                   | attr op value
                   | attr "in" "(" value ("," value)* ")"
                   | attr "between" value "and" value

    ``atleast``/``threshold`` are matched contextually (only when
    directly followed by ``(``), so attributes with those names still
    parse as comparison leaves.
    """
    if not text.strip():
        raise InvalidPredicateError("empty expression")
    return _Parser(_tokenize(text)).parse()


def query_mode(expression: Expression, finish: str = "rids") -> str:
    """The shape label of a query, as traces and metrics report it.

    ``'aggregate'`` for every finish but ``rids``, ``'predicate'`` for a
    one-leaf RID query, ``'expression'`` for every other tree.
    """
    if finish != "rids":
        return "aggregate"
    return "predicate" if isinstance(expression, Comparison) else "expression"


#: The aggregates of a measure column ``by`` (finishes of :func:`run_query`).
AGGREGATES = ("count", "sum", "avg", "min", "max")


def run_query(
    relation: Relation | None,
    expression: Expression,
    indexes: dict[str, BitmapSource],
    stats: ExecutionStats,
    finish: str = "rids",
    by: str | None = None,
    *,
    algorithm: str = "auto",
    verify: bool = False,
):
    """The one query pipeline: evaluate, finish, verify.

    Every selection is the same walk — fetch bitmaps, combine them, read
    the answer off the result bitmap — and differs only in the last
    step.  ``finish`` names it: ``'rids'`` materializes the sorted RID
    array (``indices()``), ``'count'`` popcounts the bitmap, and
    ``'group'`` returns the per-code count array of
    :func:`~repro.core.evaluation.group_counts` over ``indexes[by]``.
    The other :data:`AGGREGATES` read the measure ``indexes[by]`` over
    the selection less ``by``'s NULL rows: ``'count'`` counts it,
    ``'sum'``/``'avg'`` answer ``[count, Σ rank]`` and ``'min'``/``'max'``
    ``[count, rank]`` (rank 0 when nothing is selected).  No aggregate
    ever builds a RID.  ``algorithm`` reaches every leaf.  With
    ``verify`` the answer is cross-checked against a scan of ``relation``.

    Scans and operations are charged to ``stats``; when it carries a
    trace the phases appear as ``evaluate`` plus ``materialize`` or
    ``aggregate.pushdown`` (plus ``verify``).  Shard workers call this
    with ``relation=None`` and a code-domain expression.
    """
    mode = query_mode(expression, finish)
    with stats.span("evaluate", kind="phase", mode=mode):
        bitmap = expression.bitmap(relation, indexes, stats, algorithm)
    if finish == "rids":
        with stats.span("materialize", kind="phase"):
            answer = _finish(bitmap, finish, indexes, by, stats, algorithm)
    else:
        with stats.span("aggregate.pushdown", kind="phase", by=by) as span:
            answer = _finish(bitmap, finish, indexes, by, stats, algorithm)
            if span is not None:
                span.attrs.update(
                    count=answer_count(finish, answer),
                    groups=len(answer) if finish == "group" else 0,
                )
    if verify:
        with stats.span("verify", kind="phase"):
            verify_answer(relation, expression, finish, by, answer)
    return answer


def _finish(bitmap, finish, indexes, by, stats, algorithm):
    if finish == "rids":
        return bitmap.indices()
    if by is None:
        return int(bitmap.count())
    source = _index_for(indexes, by)
    if finish == "group":
        return group_counts(source, bitmap, stats, algorithm)
    if source.nonnull is not None:
        bitmap = and_(bitmap, source.nonnull, stats)
    count = int(bitmap.count())
    if finish == "count":
        return count
    if finish in ("sum", "avg"):
        return np.array([count, rank_sum(source, bitmap, stats)])
    target = 1 if finish == "min" else count
    return np.array([count, rank_bound(source, bitmap, target, stats, algorithm) if count else 0])


def answer_count(finish: str, answer) -> int:
    """The selected rows an aggregate answer of :func:`run_query` covers."""
    return int(np.sum(answer) if finish in ("count", "group") else answer[0])


def verify_answer(
    relation: Relation,
    expression: Expression,
    finish: str,
    by: str | None,
    answer,
) -> None:
    """Check an answer of :func:`run_query` against a scan of ``relation``.

    SUM, AVG, MIN and MAX are checked in the rank domain.  Raises
    :class:`~repro.errors.VerificationError` on any disagreement.
    """
    mask = expression.mask(relation)
    if finish == "rids":
        truth = np.nonzero(mask)[0]
        if not np.array_equal(answer, truth):
            raise VerificationError(
                f"expression '{expression}' returned {len(answer)} RIDs; "
                f"the scan found {len(truth)}"
            )
    elif finish == "count":
        truth = int(np.count_nonzero(mask))
        if answer != truth:
            raise VerificationError(
                f"count pushdown of '{expression}' returned {answer}; "
                f"the scan found {truth}"
            )
    elif finish == "group":
        column = relation.column(by)
        truth = np.bincount(column.codes[mask], minlength=column.cardinality)
        if not np.array_equal(answer, truth):
            raise VerificationError(
                f"group_count pushdown of '{expression}' by {by} returned "
                f"{answer.tolist()}; the scan found {truth.tolist()}"
            )
    else:
        ranks = relation.column(by).codes[mask]
        rank = ranks.sum() if finish in ("sum", "avg") else len(ranks) and getattr(ranks, finish)()
        if answer.tolist() != [len(ranks), rank]:
            raise VerificationError(
                f"{finish}({by}) pushdown of '{expression}' returned {answer.tolist()}; "
                f"the scan found {[len(ranks), int(rank)]}"
            )

