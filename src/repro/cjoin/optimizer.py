"""On-line optimization of the Filter order (paper section 3.4).

The Filter order determines the expected number of probes per fact
tuple; since every Filter costs one probe + one AND, minimizing cost
means dropping tuples as early as possible.  The paper maps this to
the adaptive ordering of pipelined stream filters and adopts Babu et
al. [5] (A-Greedy).  We provide:

* :class:`DropRatePolicy` — orders Filters by observed *unconditional*
  drop rate (descending).  Cheap; optimal when filter drops are
  independent.
* :class:`AGreedyPolicy` — maintains a sliding window of *drop
  profiles* (for a sampled tuple, which filters would drop it) and
  greedily picks, at each rank, the filter that drops the most
  profiles *surviving the chosen prefix* — the conditional-selectivity
  ordering of A-Greedy.
* :class:`FixedOrderPolicy` — keeps admission order (the ablation
  baseline).

Profiles are gathered by the executor, which periodically evaluates
every filter on a ``(bit-vector, fact row)`` pair sampled from a batch
via ``Filter.would_drop`` (the paper's profiling of tuples, independent
of pipeline order).
"""

from __future__ import annotations

from collections import Counter, deque

from repro.cjoin.filter import Filter

#: Default number of sampled drop-profiles retained.
DEFAULT_PROFILE_WINDOW = 512


class OrderingPolicy:
    """Interface for filter-ordering policies."""

    #: whether the executor should collect drop profiles for this policy
    wants_profiles = False

    def record_profile(self, filters: list[Filter], bits: int, row: tuple) -> None:
        """Observe a sampled fact row (only when ``wants_profiles``)."""

    def recommend(self, filters: list[Filter]) -> list[Filter]:
        """Return the recommended filter order (a permutation)."""
        raise NotImplementedError

    def forget(self, filter_name: str) -> None:
        """Drop state tied to a removed filter."""


class FixedOrderPolicy(OrderingPolicy):
    """No reordering: filters stay in admission order."""

    def recommend(self, filters: list[Filter]) -> list[Filter]:
        return list(filters)


class DropRatePolicy(OrderingPolicy):
    """Most-selective-first ordering from per-filter drop counters.

    Ignores correlations between filters; equivalent to ranking by
    unconditional selectivity, which is the classical independent-
    predicates ordering (all CJOIN filters have equal unit cost).
    """

    def recommend(self, filters: list[Filter]) -> list[Filter]:
        return sorted(filters, key=lambda f: f.stats.drop_rate, reverse=True)


class AGreedyPolicy(OrderingPolicy):
    """Profile-driven conditional ordering (Babu et al. [5]).

    Keeps a window of drop-profiles, one int mask each.  ``recommend``
    counts the window's *distinct* masks (at most 2^filters of them)
    and runs the greedy selection: rank 1 goes to the filter dropping
    the most profiles; rank 2 to the filter dropping the most of the
    *remaining* (not yet dropped) profiles; and so on.  This matches
    A-Greedy's matrix-view invariant and adapts to correlated
    predicates, which pure drop-rate ranking cannot.
    """

    wants_profiles = True

    def __init__(self, window: int = DEFAULT_PROFILE_WINDOW) -> None:
        self.window = window
        #: each profile is one int: bit set = that Filter would drop
        self._profiles: deque[int] = deque(maxlen=window)
        #: filter name -> its bit in the profiles (given out on the
        #: filter's first drop, taken back by :meth:`forget`)
        self._bits: dict[str, int] = {}

    def record_profile(self, filters: list[Filter], bits: int, row: tuple) -> None:
        profile = 0
        for candidate in filters:
            if candidate.would_drop(bits, row):
                bit = self._bits.get(candidate.name)
                if bit is None:
                    used = sum(self._bits.values())  # distinct bits: an OR
                    # the lowest bit no filter holds
                    bit = self._bits[candidate.name] = (used + 1) & ~used
                profile |= bit
        self._profiles.append(profile)

    def recommend(self, filters: list[Filter]) -> list[Filter]:
        if not self._profiles:
            return list(filters)
        remaining = list(filters)
        #: distinct profile -> how many of the window's samples show it
        surviving = Counter(self._profiles)
        order: list[Filter] = []
        while remaining:
            best = None
            best_bit = 0
            best_drops = -1
            for candidate in remaining:
                bit = self._bits.get(candidate.name, 0)
                drops = sum(
                    count
                    for profile, count in surviving.items()
                    if profile & bit
                )
                if drops > best_drops:
                    best, best_bit, best_drops = candidate, bit, drops
            order.append(best)
            remaining.remove(best)
            surviving = {
                profile: count
                for profile, count in surviving.items()
                if not profile & best_bit
            }
        return order

    def forget(self, filter_name: str) -> None:
        bit = self._bits.pop(filter_name, 0)
        if bit:
            self._profiles = deque(
                (profile & ~bit for profile in self._profiles),
                maxlen=self.window,
            )

    @property
    def profile_count(self) -> int:
        """Number of profiles currently in the window."""
        return len(self._profiles)
