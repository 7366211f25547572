"""Unit tests for the adaptive filter-ordering policies (section 3.4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
        policy._bits = {"a": 0b001, "b": 0b010, "c": 0b100}
        for tuple_id in range(1, 11):
            policy._profiles.append(
                sum(
                    policy._bits[name]
                    for name, dropped in drops.items()
                    if tuple_id in dropped
                )
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

    def test_a_forgotten_filters_bit_is_reused_clean(self):
        """Profiles are int masks with a per-policy name -> bit map: a
        filter that joins after another left takes over its bit, and
        must not inherit the drops recorded under it."""
        filters = make_filters(["a", "b"])
        filters[1].hash_table.register_selected_rows(1, [(1,)])
        policy = AGreedyPolicy(window=8)
        # a (empty table) always drops; b drops the last two only
        for row in [(1, 1), (1, 1), (1, 1), (1, 9), (1, 9)]:
            policy.record_profile(filters, 0b1, row)
        policy.forget("a")
        late = make_filters(["c", "b"])
        late[0].hash_table.register_selected_rows(1, [(1,)])
        late[1].hash_table.register_selected_rows(1, [(1,)])
        policy.record_profile(late, 0b1, (9, 1))  # c's first drop
        assert policy._bits["c"] == 0b01  # the bit a held
        # c dropped 1 of 6 samples, b 2: not a's 5 + 1
        assert [f.name for f in policy.recommend(late)] == ["b", "c"]
        assert policy.profile_count == 6


def _greedy_by_definition(names, profiles):
    """A-Greedy spelt out over ``{name: would-drop}`` dicts: the first
    filter (in chain order) dropping the most surviving profiles wins
    each rank."""
    remaining, surviving, order = list(names), list(profiles), []
    while remaining:
        best = max(
            remaining,
            key=lambda name: sum(p.get(name, False) for p in surviving),
        )
        order.append(best)
        remaining.remove(best)
        surviving = [p for p in surviving if not p.get(best, False)]
    return order


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        st.lists(st.booleans(), min_size=4, max_size=4), max_size=40
    ),
    chain=st.permutations(["a", "b", "c", "d"]),
)
def test_int_mask_profiles_recommend_what_the_definition_does(samples, chain):
    """Same decisions, ties included, as counting over the profiles one
    by one (``max`` keeps the first of equals, like the policy)."""
    filters = {f.name: f for f in make_filters(["a", "b", "c", "d"])}
    for table_filter in filters.values():
        # key 1 is selected (passes), key 9 is not (drops)
        table_filter.hash_table.register_selected_rows(1, [(1,)])
    policy = AGreedyPolicy(window=64)
    profiles = []
    for sample in samples:
        row = tuple(9 if would_drop else 1 for would_drop in sample)
        policy.record_profile(list(filters.values()), 0b1, row)
        profiles.append(dict(zip(filters, sample)))
    recommended = policy.recommend([filters[name] for name in chain])
    assert [f.name for f in recommended] == _greedy_by_definition(
        chain, profiles
    )
