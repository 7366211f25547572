"""SQL aggregate functions (COUNT, SUM, MIN, MAX, AVG).

The Distributor pipes fact tuples into per-query aggregation
operators; these accumulators are the arithmetic inside those
operators.  NULL inputs are skipped per SQL semantics, and COUNT(*)
counts rows regardless of values.

Every accumulator is a *commutative mergeable state*, not just a
streaming fold: :meth:`Accumulator.merge` combines two partial states
into one as if their inputs had been concatenated.  This is what lets
the data-parallel sharded drain (DESIGN.md section 8) aggregate each fact
shard independently and have a coordinator merge the per-shard states
— AVG in particular keeps its (sum, count) pair un-finalized so the
merge is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError

#: Supported aggregate kinds.
AGGREGATE_KINDS = ("count", "sum", "min", "max", "avg")


#: Binary input expressions supported inside an aggregate, e.g.
#: SSB's ``sum(lo_extendedprice * lo_discount)`` and
#: ``sum(lo_revenue - lo_supplycost)``.
COMBINE_OPS = ("*", "-", "+")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a query's SELECT list.

    The input is either one column, or a binary expression
    ``column <combine> column2`` over two columns of the same table
    (the shapes the Star Schema Benchmark needs).

    Args:
        kind: one of :data:`AGGREGATE_KINDS`.
        table: table owning the input column(s); None for COUNT(*).
        column: input column name; None for COUNT(*).
        column2: optional second input column.
        combine: operator joining column and column2.
        alias: output column label.
    """

    kind: str
    table: str | None = None
    column: str | None = None
    column2: str | None = None
    combine: str = "*"
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATE_KINDS:
            raise QueryError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and (self.table is None or self.column is None):
            raise QueryError(f"{self.kind} requires a table.column input")
        if self.column2 is not None and self.combine not in COMBINE_OPS:
            raise QueryError(f"unknown combine operator {self.combine!r}")

    @property
    def is_count_star(self) -> bool:
        """True for COUNT(*) (no input column)."""
        return self.kind == "count" and self.column is None

    def combine_values(self, value, value2):
        """Evaluate the binary input expression (NULL-propagating)."""
        if value is None or value2 is None:
            return None
        if self.combine == "*":
            return value * value2
        if self.combine == "-":
            return value - value2
        return value + value2

    @property
    def label(self) -> str:
        """Output column label."""
        if self.alias is not None:
            return self.alias
        if self.is_count_star:
            return "count_star"
        if self.column2 is not None:
            return f"{self.kind}_{self.column}{self.combine}{self.column2}"
        return f"{self.kind}_{self.column}"


class Accumulator:
    """Base class for streaming, mergeable aggregate state."""

    def add(self, value) -> None:
        """Fold one input value into the state."""
        raise NotImplementedError

    def state(self):
        """Export the partial state as plain picklable values.

        The compact wire format for cross-process merging: plain ints,
        floats, or tuples thereof — never accumulator objects — so
        shard workers ship minimal bytes back to the coordinator.
        """
        raise NotImplementedError

    def merge_state(self, state) -> None:
        """Fold a :meth:`state` export of the same kind into this one.

        Must be equivalent to having added the exported state's inputs
        here directly (commutative and associative up to floating-point
        re-association).
        """
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        """Fold another accumulator of the same kind into this one."""
        self.merge_state(other.state())

    def result(self):
        """Return the final aggregate value (SQL semantics on empty input)."""
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """COUNT(*) or COUNT(column)."""

    def __init__(self, count_nulls: bool) -> None:
        self._count_nulls = count_nulls
        self._count = 0

    def add(self, value) -> None:
        if value is not None or self._count_nulls:
            self._count += 1

    def state(self) -> int:
        return self._count

    def merge_state(self, state: int) -> None:
        self._count += state

    def result(self) -> int:
        return self._count


class SumAccumulator(Accumulator):
    """SUM(column); NULL on empty/all-NULL input."""

    def __init__(self) -> None:
        self._sum = None

    def add(self, value) -> None:
        if value is None:
            return
        self._sum = value if self._sum is None else self._sum + value

    def state(self):
        return self._sum

    def merge_state(self, state) -> None:
        if state is None:
            return
        self._sum = state if self._sum is None else self._sum + state

    def result(self):
        return self._sum


class MinAccumulator(Accumulator):
    """MIN(column); NULL on empty/all-NULL input."""

    def __init__(self) -> None:
        self._min = None

    def add(self, value) -> None:
        if value is None:
            return
        if self._min is None or value < self._min:
            self._min = value

    def state(self):
        return self._min

    def merge_state(self, state) -> None:
        if state is None:
            return
        if self._min is None or state < self._min:
            self._min = state

    def result(self):
        return self._min


class MaxAccumulator(Accumulator):
    """MAX(column); NULL on empty/all-NULL input."""

    def __init__(self) -> None:
        self._max = None

    def add(self, value) -> None:
        if value is None:
            return
        if self._max is None or value > self._max:
            self._max = value

    def state(self):
        return self._max

    def merge_state(self, state) -> None:
        if state is None:
            return
        if self._max is None or state > self._max:
            self._max = state

    def result(self):
        return self._max


class AvgAccumulator(Accumulator):
    """AVG(column); NULL on empty/all-NULL input.

    The state is the (sum, count) pair, never the finalized quotient,
    so merging partial states from fact-table shards is exact: the
    division happens once, at :meth:`result`.
    """

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def add(self, value) -> None:
        if value is None:
            return
        self._sum += value
        self._count += 1

    def state(self) -> tuple:
        return (self._sum, self._count)

    def merge_state(self, state: tuple) -> None:
        self._sum += state[0]
        self._count += state[1]

    def result(self):
        if self._count == 0:
            return None
        return self._sum / self._count


def make_accumulator(spec: AggregateSpec) -> Accumulator:
    """Create a fresh accumulator for ``spec``."""
    if spec.kind == "count":
        return CountAccumulator(count_nulls=spec.is_count_star)
    if spec.kind == "sum":
        return SumAccumulator()
    if spec.kind == "min":
        return MinAccumulator()
    if spec.kind == "max":
        return MaxAccumulator()
    return AvgAccumulator()
