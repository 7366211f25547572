"""Run-level snapshot visibility must equal the per-row definition.

The Preprocessor settles the section-3.5 virtual predicate once per
scan run per distinct snapshot id (page bounds, or one mask per
snapshot id); the definition asks ``Snapshot.can_see`` per row per
query.  An operator runs a script of commits, mid-scan submissions and
scan steps; every position its scan passes must come out with exactly
the bits the definition gives it — bit i set iff ``Q_i`` is active,
its snapshot sees the row's version and its fact predicate accepts the
row — or not at all when that is no bit, and every stamped query must
equal ``evaluate_star_query`` at its snapshot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cjoin import CJoinOperator
from repro.cjoin.batch import FactBatch
from repro.cjoin.executor import ExecutorConfig
from repro.cjoin.tuples import QueryStart
from repro.query.aggregates import AggregateSpec
from repro.query.predicate import Between, Comparison
from repro.query.reference import evaluate_star_query
from repro.query.star import StarQuery
from repro import bitvec
from repro.storage.mvcc import Snapshot, TransactionManager, VersionedTable
from tests.conftest import make_tiny_star

AGGREGATES = [AggregateSpec("count"), AggregateSpec("sum", "sales", "f_qty")]


class Side:
    """One operator over a versioned tiny star, its stream checked."""

    def __init__(self, batch_size):
        self.catalog, star = make_tiny_star()  # 12 fact rows, 4 per page
        self.versioned = VersionedTable(self.catalog.table("sales"))
        self.transactions = TransactionManager()
        self.operator = CJoinOperator(
            self.catalog,
            star,
            versioned_fact=self.versioned,
            executor_config=ExecutorConfig(batch_size=batch_size),
        )
        self.handles = []
        #: queries between their QueryStart and QueryEnd in the stream
        #: checked so far: id -> [registration, first row seen yet?]
        self.active = {}
        self.last_sequence = 0
        self.expected_drops = 0

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
        """Advance the scan, checking what the Preprocessor emits."""
        operator = self.operator
        batch_size = operator.executor.config.batch_size
        for _ in range(batches):
            start = operator.scan.next_position
            scanned = operator.stats.tuples_scanned
            items = operator.preprocessor.next_batched_items(batch_size)
            scanned = operator.stats.tuples_scanned - scanned
            self.check_items(items, start, scanned)
            for item in items:
                operator.pipeline.process_item(item)
            operator.manager.process_finished()

    def defined_bits(self, position):
        """The initial bit-vector of ``position``, from the definition."""
        version = self.versioned.version_at(position)
        row = self.catalog.table("sales").all_rows()[position]
        bits = 0
        for registration, _ in self.active.values():
            query = registration.query
            if query.snapshot_id is not None and not Snapshot(
                query.snapshot_id
            ).can_see(version):
                continue
            if query.fact_predicate is not None and not query.fact_predicate.bind(
                self.operator.star.fact
            )(row):
                continue
            bits |= bitvec.bit_for_query(registration.query_id)
        return bits

    def check_items(self, items, start, scanned):
        """One ``next_batched_items`` call against the definition.

        The call scanned ``scanned`` positions cyclically from
        ``start``; walking them beside the items, every position is
        either emitted with exactly its defined bits or defined to
        carry none, and a QueryEnd comes on arrival back at the query's
        start position, before that position is re-emitted.
        """
        row_count = self.versioned.row_count
        passed = 0  # of the call's ``scanned`` positions

        def upcoming():
            return (start + passed) % row_count

        def pass_position():
            nonlocal passed
            assert passed < scanned
            position = upcoming()
            passed += 1
            for entry in self.active.values():
                if entry[0].start_position == position:
                    entry[1] = True
            return self.defined_bits(position)

        def pass_dropped_until(arrived):
            while not arrived():
                assert pass_position() == 0
                self.expected_drops += 1

        for item in items:
            if isinstance(item, FactBatch):
                rows = zip(item.sequences, item.positions, item.bitvectors)
                for sequence, position, bits in rows:
                    pass_dropped_until(lambda: upcoming() == position)
                    assert bits == pass_position()
                    assert sequence == self.last_sequence + 1
                    self.last_sequence = sequence
                continue
            assert item.sequence == self.last_sequence + 1
            self.last_sequence = item.sequence
            if isinstance(item, QueryStart):
                self.active[item.registration.query_id] = [
                    item.registration, False
                ]
                continue
            entry = self.active[item.query_id]
            pass_dropped_until(
                lambda: entry[1] and upcoming() == entry[0].start_position
            )
            del self.active[item.query_id]
        pass_dropped_until(lambda: passed == scanned)

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
    side = Side(batch_size)
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
            first_new = side.versioned.row_count
            side.commit(inserts=inserts, deletes=deletes)
            live.extend(range(first_new, first_new + insert_count))
        elif kind == "submit":
            _, lag, fact_predicate = step
            snapshot_id = None
            if lag is not None:
                current = side.transactions.current_snapshot().snapshot_id
                snapshot_id = max(current - lag, 0)
            side.submit(snapshot_id, fact_predicate)
        else:
            side.scan(step[1])
    side.drain()
    assert side.active == {}
    assert side.stats.tuples_preprocessor_dropped == side.expected_drops
    side.check_against_reference()


class TestRunClasses:
    """The three run classes; a run is a whole 4-row page at this batch size."""

    def test_all_visible_runs_take_the_page_bounds_only(self):
        side = Side(batch_size=300)
        handle = side.submit(snapshot_id=0)
        side.drain()
        assert handle.results() == [(12, 27)]
        assert side.stats.visibility_runs_uniform == 3  # three pages
        assert side.stats.visibility_runs_masked == 0
        assert side.stats.tuples_preprocessor_dropped == 0

    def test_tail_appended_after_the_snapshot_is_skipped_whole(self):
        side = Side(batch_size=300)
        side.commit(inserts=[(1, 10, 9, 9)] * 4)  # a fourth page, xmin=1
        handle = side.submit(snapshot_id=0)
        side.drain()
        assert handle.results() == [(12, 27)]
        assert side.stats.visibility_runs_uniform == 4
        assert side.stats.visibility_runs_masked == 0
        assert side.stats.tuples_preprocessor_dropped == 4

    def test_delete_inside_a_page_masks_it_for_later_snapshots_only(self):
        side = Side(batch_size=300)
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
        side = Side(batch_size=300)
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
        side = Side(batch_size=3)  # runs end mid-page
        side.commit(deletes=[0, 11])
        old = side.submit(snapshot_id=0)
        new = side.submit(snapshot_id=1)
        side.drain()
        assert old.results() == [(12, 27)]
        assert new.results() == [(10, 24)]


def test_stamped_and_unstamped_queries_share_a_run():
    """An unstamped query on a versioned table sees every row version."""
    side = Side(batch_size=300)
    side.commit(inserts=[(1, 10, 3, 3)], deletes=[0])
    stamped = side.submit(snapshot_id=1)
    unstamped = side.submit(
        snapshot_id=None, fact_predicate=Comparison("f_qty", ">=", 1)
    )
    side.drain()
    assert stamped.results() == [(12, 28)]
    assert unstamped.results() == [(13, 30)]
