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

from collections import deque

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

    Keeps a window of boolean drop-profiles.  ``recommend`` runs the
    greedy selection: rank 1 goes to the filter dropping the most
    profiles; rank 2 to the filter dropping the most of the *remaining*
    (not yet dropped) profiles; and so on.  This matches A-Greedy's
    matrix-view invariant and adapts to correlated predicates, which
    pure drop-rate ranking cannot.
    """

    wants_profiles = True

    def __init__(self, window: int = DEFAULT_PROFILE_WINDOW) -> None:
        self.window = window
        #: each profile maps filter name -> would-drop boolean
        self._profiles: deque[dict[str, bool]] = deque(maxlen=window)

    def record_profile(self, filters: list[Filter], bits: int, row: tuple) -> None:
        self._profiles.append(
            {f.name: f.would_drop(bits, row) for f in filters}
        )

    def recommend(self, filters: list[Filter]) -> list[Filter]:
        if not self._profiles:
            return list(filters)
        remaining = list(filters)
        surviving = list(self._profiles)
        order: list[Filter] = []
        while remaining:
            best = None
            best_drops = -1
            for candidate in remaining:
                drops = sum(
                    1
                    for profile in surviving
                    if profile.get(candidate.name, False)
                )
                if drops > best_drops:
                    best = candidate
                    best_drops = drops
            order.append(best)
            remaining.remove(best)
            surviving = [
                profile
                for profile in surviving
                if not profile.get(best.name, False)
            ]
        return order

    def forget(self, filter_name: str) -> None:
        for profile in self._profiles:
            profile.pop(filter_name, None)

    @property
    def profile_count(self) -> int:
        """Number of profiles currently in the window."""
        return len(self._profiles)
