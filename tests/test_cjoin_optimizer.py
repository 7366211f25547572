"""Unit tests for the adaptive filter-ordering policies (section 3.4)."""

from repro.catalog.schema import (
    Column,
    DataType,
    ForeignKey,
    StarSchema,
    TableSchema,
)
from repro.cjoin.dimtable import DimensionHashTable
from repro.cjoin.filter import Filter
from repro.cjoin.optimizer import AGreedyPolicy, DropRatePolicy, FixedOrderPolicy


def make_star(dim_names):
    dimensions = {}
    fk = []
    columns = []
    for name in dim_names:
        dimensions[name] = TableSchema(
            name,
            [Column("id", DataType.INT)],
            primary_key="id",
        )
        columns.append(Column(f"{name}_id", DataType.INT))
        fk.append(ForeignKey(f"{name}_id", name, "id"))
    fact = TableSchema("f", columns, foreign_keys=fk)
    return StarSchema(fact=fact, dimensions=dimensions)


def make_filters(dim_names):
    star = make_star(dim_names)
    filters = []
    for name in dim_names:
        table = DimensionHashTable(star.dimension(name))
        table.mark_query_referencing(1)
        filters.append(Filter(table, star))
    return filters


class TestFixedOrder:
    def test_keeps_order(self):
        filters = make_filters(["a", "b", "c"])
        assert FixedOrderPolicy().recommend(filters) == filters


class TestDropRatePolicy:
    def test_orders_most_selective_first(self):
        filters = make_filters(["a", "b"])
        filters[0].stats.tuples_in = 100
        filters[0].stats.tuples_dropped = 10
        filters[1].stats.tuples_in = 100
        filters[1].stats.tuples_dropped = 90
        order = DropRatePolicy().recommend(filters)
        assert [f.name for f in order] == ["b", "a"]

    def test_idle_filters_keep_relative_order(self):
        filters = make_filters(["a", "b"])
        order = DropRatePolicy().recommend(filters)
        assert [f.name for f in order] == ["a", "b"]


class TestAGreedyPolicy:
    def test_no_profiles_keeps_order(self):
        filters = make_filters(["a", "b"])
        assert AGreedyPolicy().recommend(filters) == filters

    def test_greedy_prefers_bigger_dropper(self):
        filters = make_filters(["a", "b"])
        # filter a selects id 1 only; filter b selects ids 1 and 2
        filters[0].hash_table.register_selected_rows(1, [(1,)])
        filters[1].hash_table.register_selected_rows(1, [(1,)])
        filters[1].hash_table.register_selected_rows(1, [(2,)])
        policy = AGreedyPolicy(window=16)
        # tuples: a drops (a_id != 1) more often than b drops
        for a_id, b_id in [(9, 1), (9, 2), (9, 9), (1, 1)]:
            policy.record_profile(filters, 0b1, (a_id, b_id))
        order = policy.recommend(filters)
        assert [f.name for f in order] == ["a", "b"]

    def test_conditional_ordering_beats_marginal(self):
        """A filter redundant given the first one is ranked second even

        if its marginal drop rate alone looks high (the correlation
        case A-Greedy handles and plain drop-rate ranking cannot).
        """
        filters = make_filters(["a", "b", "c"])
        # a drops tuples 1-6 (60%); b drops exactly the same tuples 1-5
        # plus nothing else (50%, fully correlated with a);
        # c drops tuples 7-8 (20%, independent of a).
        drops = {
            "a": {1, 2, 3, 4, 5, 6},
            "b": {1, 2, 3, 4, 5},
            "c": {7, 8},
        }
        policy = AGreedyPolicy(window=32)
        for tuple_id in range(1, 11):
            policy._profiles.append(
                {name: tuple_id in dropped for name, dropped in drops.items()}
            )
        order = [f.name for f in policy.recommend(filters)]
        # after 'a', 'b' drops nothing new; 'c' still drops 7 and 8
        assert order == ["a", "c", "b"]

    def test_window_is_bounded(self):
        filters = make_filters(["a"])
        policy = AGreedyPolicy(window=4)
        for _ in range(10):
            policy.record_profile(filters, 0b1, (1, 1))
        assert policy.profile_count == 4

    def test_forget_removes_filter_from_profiles(self):
        filters = make_filters(["a", "b"])
        policy = AGreedyPolicy(window=4)
        policy.record_profile(filters, 0b1, (1, 1))
        policy.forget("a")
        order = policy.recommend(make_filters(["b"]))
        assert [f.name for f in order] == ["b"]
