"""Run-level snapshot visibility must equal the per-row definition.

The batched Preprocessor settles the section-3.5 virtual predicate once
per scan run per distinct snapshot id (page bounds, or one mask per
snapshot id); the tuple path asks ``Snapshot.can_see`` per row per
query.  Two operators run the same script of commits, mid-scan
submissions and scan steps over the same data, one per path: they must
emit the same ``(sequence, position, bits)`` stream, drop the same
rows, and every stamped query must equal ``evaluate_star_query`` at its
snapshot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cjoin import CJoinOperator
from repro.cjoin.batch import FactBatch
from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.tuples import FactTuple
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro.storage.mvcc import TransactionManager, VersionedTable
from tests.conftest import make_tiny_star

AGGREGATES = [AggregateSpec("count"), AggregateSpec("sum", "sales", "f_qty")]


class Side:
    """One operator over a versioned tiny star, its stream recorded."""

    def __init__(self, execution, batch_size):
        self.catalog, star = make_tiny_star()  # 12 fact rows, 4 per page
        self.versioned = VersionedTable(self.catalog.table("sales"))
        self.transactions = TransactionManager()
        self.operator = CJoinOperator(
            self.catalog,
            star,
            versioned_fact=self.versioned,
            executor_config=ExecutorConfig(
                execution=execution, batch_size=batch_size
            ),
        )
        self.stream = []
        self.handles = []

    @property
    def stats(self):
        return self.operator.stats

    def commit(self, inserts=None, deletes=None):
        return self.transactions.commit(
            self.versioned, inserts=inserts, deletes=deletes
        ).snapshot_id

    def submit(self, snapshot_id, fact_predicate=None):
        query = StarQuery.build(
            "sales",
            fact_predicate=fact_predicate,
            aggregates=AGGREGATES,
            snapshot_id=snapshot_id,
        )
        self.handles.append(self.operator.submit(query))
        return self.handles[-1]

    def scan(self, batches=1):
        """Advance the scan, recording what the Preprocessor emits."""
        operator = self.operator
        config = operator.executor.config
        produce = (
            operator.preprocessor.next_batched_items
            if config.execution == "batched"
            else operator.preprocessor.next_items
        )
        for _ in range(batches):
            for item in produce(config.batch_size):
                if isinstance(item, FactBatch):
                    self.stream.extend(
                        zip(item.sequences, item.positions, item.bitvectors)
                    )
                elif isinstance(item, FactTuple):
                    self.stream.append(
                        (item.sequence, item.position, item.bitvector)
                    )
                else:
                    self.stream.append((item.sequence, type(item).__name__))
                operator.pipeline.process_item(item)
            operator.manager.process_finished()

    def drain(self):
        for _ in range(1000):
            if not self.operator.active_query_count:
                return
            self.scan()
        raise AssertionError("queries never completed")

    def check_against_reference(self):
        for handle in self.handles:
            if handle.query.snapshot_id is None:
                continue  # unstamped: sees every row version
            assert handle.results() == evaluate_star_query(
                handle.query, self.catalog, versioned_fact=self.versioned
            ), handle.query


def align_idle_scans(batched, per_row):
    """Put two idle scans on the same row.

    The tuple path reads the next row before it notices that the last
    active query has just ended, and discards it; the batched path
    looks before it reads.  Nothing is active, so no stream or result
    depends on that row — but the next admission starts wherever the
    scan stands.
    """
    scans = batched.operator.scan, per_row.operator.scan
    if scans[0].next_position != scans[1].next_position:
        assert not batched.operator.active_query_count
        assert not per_row.operator.active_query_count
        scans[0].next()
    assert scans[0].next_position == scans[1].next_position


FACT_PREDICATES = st.sampled_from([
    None,
    None,
    Comparison("f_qty", ">=", 2),
    Between("f_total", 12, 30),
    Comparison("f_qty", "=", 99),  # selects zero rows
])


@st.composite
def scripts(draw):
    """Commits, submissions at current and stale snapshots, scan steps."""
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["commit", "submit", "submit", "scan"]))
        if kind == "commit":
            # empty write sets included; delete picks resolve against
            # the rows still live when the step runs
            steps.append((
                "commit",
                draw(st.integers(0, 5)),
                draw(st.lists(st.integers(0, 40), max_size=3)),
            ))
        elif kind == "submit":
            steps.append((
                "submit",
                draw(st.sampled_from([0, 0, 0, 1, 2, None])),  # snapshot lag
                draw(FACT_PREDICATES),
            ))
        else:
            steps.append(("scan", draw(st.integers(1, 4))))
    return steps


@settings(max_examples=60, deadline=None)
@given(
    script=scripts(),
    batch_size=st.one_of(st.integers(1, 9), st.sampled_from([12, 13, 300])),
)
def test_batched_visibility_equals_per_row_and_reference(script, batch_size):
    batched = Side("batched", batch_size)
    per_row = Side("tuple", batch_size)
    live = list(range(12))  # positions no commit has deleted yet
    for step in script:
        kind = step[0]
        if kind == "commit":
            _, insert_count, picks = step
            deletes = []
            for pick in picks:
                if live:
                    deletes.append(live.pop(pick % len(live)))
            inserts = [(1, 10, 50 + i, 7) for i in range(insert_count)]
            first_new = batched.versioned.row_count
            ids = {
                side.commit(inserts=inserts, deletes=deletes)
                for side in (batched, per_row)
            }
            assert len(ids) == 1
            live.extend(range(first_new, first_new + insert_count))
        elif kind == "submit":
            _, lag, fact_predicate = step
            snapshot_id = None
            if lag is not None:
                current = batched.transactions.current_snapshot().snapshot_id
                snapshot_id = max(current - lag, 0)
            for side in (batched, per_row):
                side.submit(snapshot_id, fact_predicate)
        else:
            for side in (batched, per_row):
                side.scan(step[1])
            align_idle_scans(batched, per_row)
    for side in (batched, per_row):
        side.drain()
    assert batched.stream == per_row.stream
    assert (
        batched.stats.tuples_preprocessor_dropped
        == per_row.stats.tuples_preprocessor_dropped
    )
    assert [h.results() for h in batched.handles] == [
        h.results() for h in per_row.handles
    ]
    for side in (batched, per_row):
        side.check_against_reference()
    # the tuple path never classifies runs
    assert per_row.stats.visibility_runs_uniform == 0
    assert per_row.stats.visibility_runs_masked == 0


class TestRunClasses:
    """The three run classes; a run is a whole 4-row page at this batch size."""

    def test_all_visible_runs_take_the_page_bounds_only(self):
        side = Side("batched", batch_size=300)
        handle = side.submit(snapshot_id=0)
        side.drain()
        assert handle.results() == [(12, 27)]
        assert side.stats.visibility_runs_uniform == 3  # three pages
        assert side.stats.visibility_runs_masked == 0
        assert side.stats.tuples_preprocessor_dropped == 0

    def test_tail_appended_after_the_snapshot_is_skipped_whole(self):
        side = Side("batched", batch_size=300)
        side.commit(inserts=[(1, 10, 9, 9)] * 4)  # a fourth page, xmin=1
        handle = side.submit(snapshot_id=0)
        side.drain()
        assert handle.results() == [(12, 27)]
        assert side.stats.visibility_runs_uniform == 4
        assert side.stats.visibility_runs_masked == 0
        assert side.stats.tuples_preprocessor_dropped == 4

    def test_delete_inside_a_page_masks_it_for_later_snapshots_only(self):
        side = Side("batched", batch_size=300)
        side.commit(deletes=[5])  # f_qty 2, on the second page
        before = side.submit(snapshot_id=0)
        after = side.submit(snapshot_id=1)
        also_after = side.submit(
            snapshot_id=1, fact_predicate=Comparison("f_qty", ">=", 2)
        )
        side.drain()
        assert before.results() == [(12, 27)]
        assert after.results() == [(11, 25)]
        side.check_against_reference()
        assert also_after.results() != []
        # snapshot 0: 3 uniform; snapshot 1: 2 uniform + 1 mask, built
        # once for both queries stamped with it
        assert side.stats.visibility_runs_uniform == 5
        assert side.stats.visibility_runs_masked == 1

    def test_commit_boundary_inside_a_page_is_masked(self):
        side = Side("batched", batch_size=300)
        side.commit(inserts=[(1, 10, 1, 1)] * 2)  # positions 12-13, xmin=1
        side.commit(inserts=[(1, 10, 1, 1)] * 2)  # positions 14-15, xmin=2
        handles = [side.submit(snapshot_id=s) for s in (0, 1, 2)]
        side.drain()
        assert [h.results() for h in handles] == [
            [(12, 27)], [(14, 29)], [(16, 31)]
        ]
        # the fourth page: none for snapshot 0, mask for 1, all for 2
        assert side.stats.visibility_runs_uniform == 3 * 3 + 2
        assert side.stats.visibility_runs_masked == 1

    def test_sub_page_runs_inherit_their_page_bounds(self):
        side = Side("batched", batch_size=3)  # runs end mid-page
        side.commit(deletes=[0, 11])
        old = side.submit(snapshot_id=0)
        new = side.submit(snapshot_id=1)
        side.drain()
        assert old.results() == [(12, 27)]
        assert new.results() == [(10, 24)]


def test_stamped_and_unstamped_queries_share_a_run():
    """An unstamped query on a versioned table sees every row version."""
    side = Side("batched", batch_size=300)
    side.commit(inserts=[(1, 10, 3, 3)], deletes=[0])
    stamped = side.submit(snapshot_id=1)
    unstamped = side.submit(
        snapshot_id=None, fact_predicate=Comparison("f_qty", ">=", 1)
    )
    side.drain()
    assert stamped.results() == [(12, 28)]
    assert unstamped.results() == [(13, 30)]
