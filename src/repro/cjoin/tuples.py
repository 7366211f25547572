"""Control tuples flowing through the CJOIN pipeline.

Fact rows travel from the Preprocessor to the Distributor as columnar
:class:`~repro.cjoin.batch.FactBatch` runs, each row tagged with its
relevance bit-vector ``b_tau``.  Between batches travel two kinds of
control tuple:

* :class:`QueryStart` — the "query start" control tuple emitted right
  after admission (section 3.3.1); it precedes every fact row the
  new query may produce results from;
* :class:`QueryEnd` — the "end of query" control tuple emitted when
  the continuous scan wraps around the query's starting position
  (section 3.3.2); it precedes the re-scan of the starting row.

Every fact row and every control tuple carries a monotonically
increasing ``sequence`` assigned by the Preprocessor — the total order
in which the Distributor sees them, which is the paper's correctness
property that control tuples are never reordered relative to data
tuples (section 3.3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cjoin.registry import RegisteredQuery


class ControlTuple:
    """Base class for pipeline control items (never filtered)."""

    __slots__ = ("sequence",)

    def __init__(self, sequence: int) -> None:
        self.sequence = sequence


class QueryStart(ControlTuple):
    """Signals the Distributor to set up output operators for a query."""

    __slots__ = ("registration",)

    def __init__(self, sequence: int, registration: "RegisteredQuery") -> None:
        super().__init__(sequence)
        self.registration = registration

    def __repr__(self) -> str:
        return f"QueryStart(seq={self.sequence}, qid={self.registration.query_id})"


class QueryEnd(ControlTuple):
    """Signals the Distributor to finalize a query and emit its results."""

    __slots__ = ("query_id",)

    def __init__(self, sequence: int, query_id: int) -> None:
        super().__init__(sequence)
        self.query_id = query_id

    def __repr__(self) -> str:
        return f"QueryEnd(seq={self.sequence}, qid={self.query_id})"
