import math

import numpy as np
import pytest

from aovcache.model import CacheSystemState
from aovcache.policies import (
    Action,
    ActionKind,
    build_policy_tables,
    dual_value,
    infinite_capacity_decide,
    myopic_decide,
    relaxed_lower_bound,
    static_topm_decide,
    whittle_decide,
)
from aovcache.thresholds import content_constants, relaxed_batch, solve_thresholds
from aovcache.whittle import default_state_grid, passive_set_member
from conftest import desk_system


@pytest.fixture(scope="module")
def desk():
    system = desk_system(N=12, beta=4.0, M=4)
    tables = build_policy_tables(system)
    return system, tables


def fresh_state(system, tables, t=0.0):
    s = CacheSystemState(system.N, system.M, [c.c_w for c in tables.content])
    s.preload(set(range(system.M)))  # ids 0..M-1 are the most popular
    s.t = t
    return s


class TestWhittleDecide:
    def test_fresh_copy_served_with_backlog(self, desk):
        system, tables = desk
        s = fresh_state(system, tables, t=0.0)
        s.queue[0] = 2  # pending requests, tau = 0: still serve
        s.total_queue = 2
        assert whittle_decide(s, 0, tables) == Action(ActionKind.SERVE_CACHED)

    def test_cached_wait_then_refresh(self, desk):
        system, tables = desk
        tb = tables.content[0]
        assert tb.q_star >= 1
        s = fresh_state(system, tables, t=tb.tau_star + 1.0)
        act = whittle_decide(s, 0, tables)
        assert act.kind is ActionKind.WAIT
        for _ in range(tb.q_star):
            s.apply_wait(0)
        act = whittle_decide(s, 0, tables)
        assert act == Action(ActionKind.FETCH_SERVE_CACHE)  # refresh, no evict

    def test_uncached_stale_victim_evicted(self, desk):
        system, tables = desk
        r = system.M + 1
        tb = tables.content[r]
        # content 2's copy is far past its serve threshold: index 0
        s = fresh_state(system, tables, t=tables.content[2].tau_star + 5.0)
        for n in s.cache_set:
            if n != 2:
                s.fetch_time[n] = s.t  # keep everyone else fresh
        for _ in range(max(tb.q_star, 1)):
            s.apply_wait(r)
        act = whittle_decide(s, r, tables)
        if tb.uncached(s.queue[r]) > 0:
            assert act == Action(ActionKind.FETCH_SERVE_CACHE, evict=2)

    def test_uncached_low_index_discards_at_qhat(self, desk):
        system, tables = desk
        r = system.N - 1  # least popular: lowest ceiling
        tb = tables.content[r]
        s = fresh_state(system, tables, t=1e-6)  # cache entirely fresh: big indices
        s.queue[r] = tb.q_hat
        s.total_queue = tb.q_hat
        mins = min(tables.content[n].cached_idle(0, s.t - s.fetch_time[n])
                   for n in s.cache_set)
        act = whittle_decide(s, r, tables)
        if tb.ceiling <= mins:
            assert act == Action(ActionKind.FETCH_SERVE_DISCARD)
        s.queue[r] = max(tb.q_star, tb.q_hat - 1)
        if s.queue[r] < tb.q_hat and tb.uncached(s.queue[r]) <= mins:
            assert whittle_decide(s, r, tables).kind is ActionKind.WAIT

    def test_uncached_below_qstar_waits(self, desk):
        system, tables = desk
        r = next(n for n in range(system.M, system.N)
                 if tables.content[n].q_star > 0)
        s = fresh_state(system, tables, t=0.5)
        assert whittle_decide(s, r, tables).kind is ActionKind.WAIT

    def test_never_waits_past_qhat(self, desk):
        system, tables = desk
        rng = np.random.default_rng(2)
        s = fresh_state(system, tables, t=3.0)
        for r in range(system.M, system.N):
            tb = tables.content[r]
            s.queue[r] = tb.q_hat + int(rng.integers(0, 3))
            act = whittle_decide(s, r, tables)
            assert act.kind is not ActionKind.WAIT
            s.queue[r] = 0

    def test_large_cw_never_waits(self):
        system = desk_system(N=12, beta=4.0, M=4, c_w=50.0)
        tables = build_policy_tables(system)
        assert all(c.q_star == 0 and c.q_hat == 0 for c in tables.content)
        s = fresh_state(system, tables, t=2.0)
        for r in range(system.N):
            assert whittle_decide(s, r, tables).kind is not ActionKind.WAIT


class TestInfiniteCapacityDecide:
    def test_examples(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0)
        tau_star, q_star = ts.tau_star, ts.Q_star
        assert infinite_capacity_decide(0, 0.0, tau_star, q_star) == Action(
            ActionKind.SERVE_CACHED)
        assert infinite_capacity_decide(q_star, tau_star + 0.1, tau_star, q_star) == Action(
            ActionKind.FETCH_SERVE_CACHE)
        assert infinite_capacity_decide(q_star - 1, tau_star + 0.1, tau_star, q_star) == Action(
            ActionKind.WAIT)


class TestStaticTopM:
    def test_uncached_always_discards(self, desk):
        system, tables = desk
        s = fresh_state(system, tables, t=100.0)
        s.queue[system.M + 2] = 3
        assert static_topm_decide(s, system.M + 2, tables) == Action(
            ActionKind.FETCH_SERVE_DISCARD)

    def test_cached_serve_fresh_refresh_stale(self, desk):
        system, tables = desk
        s = fresh_state(system, tables, t=0.0)
        assert static_topm_decide(s, 0, tables) == Action(ActionKind.SERVE_CACHED)
        s.t = tables.content[0].tau_star + 1.0
        assert static_topm_decide(s, 0, tables) == Action(ActionKind.FETCH_SERVE_CACHE)


class TestMyopicDecide:
    def test_fresh_zero_queue_serves(self, desk):
        system, tables = desk
        s = fresh_state(system, tables, t=0.0)
        assert myopic_decide(s, 0, tables) == Action(ActionKind.SERVE_CACHED)

    def test_huge_fetch_cost_waits(self):
        system = desk_system(N=12, beta=4.0, M=4, c_f=10**6, c_w=0.01)
        tables = build_policy_tables(system, indices=False)
        s = fresh_state(system, tables, t=1.0)
        act = myopic_decide(s, system.M + 1, tables)
        assert act.kind is ActionKind.WAIT

    def test_eviction_targets_lowest_lookahead_value(self):
        # large waiting cost so admission beats pooling; the ancient copy's
        # retention value is zero and it must be the victim
        system = desk_system(N=12, beta=4.0, M=4, c_w=50.0)
        tables = build_policy_tables(system, indices=False)
        s = fresh_state(system, tables, t=0.0)
        s.fetch_time[1] = -1e6
        s.t = 1.0
        for n in s.cache_set:
            if n != 1:
                s.fetch_time[n] = s.t
        act = myopic_decide(s, system.M + 3, tables)
        assert act == Action(ActionKind.FETCH_SERVE_CACHE, evict=1)


class ReversedSet(set):
    """A set that iterates its members from the highest id down."""

    def __iter__(self):
        return iter(sorted(set.__iter__(self), reverse=True))


class TestCacheOrder:
    """No decision depends on the order in which the cache set iterates:
    the victim is the lowest id among the copies that tie."""

    @staticmethod
    def decide_both_ways(decide, s, r, tables):
        ids = set(s.cache_set)
        acts = []
        for cache in (set(ids), ReversedSet(ids)):
            s.cache_set = cache
            acts.append(decide(s, r, tables))
        assert acts[0] == acts[1]
        return acts[0]

    def test_whittle_victim_among_tied_keys(self):
        # equal popularity: copies fetched at the same time have equal keys
        system = desk_system(N=12, beta=4.0, M=4, alpha=0.0)
        tables = build_policy_tables(system)
        s = fresh_state(system, tables)
        s.preload({2, 5, 7, 9})
        tau_star = tables.content[0].tau_star
        s.t = 0.5 * tau_star
        s.fetch_time[2] = s.t  # fresh: the highest key, never the victim
        r = 10
        s.queue[r] = tables.content[r].q_hat  # index at its ceiling
        s.total_queue = s.queue[r]
        keys = {n: tables.content[n].cached_idle(0, s.t - s.fetch_time[n]) for n in s.cache_set}
        assert keys[5] == keys[7] == keys[9] < keys[2]
        act = self.decide_both_ways(whittle_decide, s, r, tables)
        assert act == Action(ActionKind.FETCH_SERVE_CACHE, evict=5)

    def test_myopic_victim_among_saturated_lookaheads(self):
        # fast updates: every copy's lookahead is p * c_f, so every
        # eviction gain is 0; costly waiting makes the rule admit
        system = desk_system(N=12, beta=4.0, M=4, lam=1e3, c_w=50.0)
        tables = build_policy_tables(system, indices=False)
        s = fresh_state(system, tables, t=1.0)
        s.preload({3, 6, 8, 11})
        act = self.decide_both_ways(myopic_decide, s, 0, tables)
        assert act == Action(ActionKind.FETCH_SERVE_CACHE, evict=3)


def counted_bound(monkeypatch, system) -> tuple[int, tuple[float, float]]:
    """``relaxed_lower_bound(system)`` and how many times it evaluated the
    dual: (evaluations, (C_h_star, bound))."""
    from aovcache import policies

    calls = 0
    real = policies.relaxed_batch

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(policies, "relaxed_batch", counted)
    result = relaxed_lower_bound(system)
    monkeypatch.undo()
    return calls, result


def dense_dual_max(system, points: int) -> float:
    """Largest dual value on ``points`` evenly spaced C_h in [0, max I],
    a few C_h per kernel call."""
    k = content_constants(system.contents, system.beta)
    grid = np.linspace(0.0, float(k.I.max()), points)
    best = -np.inf
    for chunk in np.array_split(grid, max(1, points * system.N // 25_000)):
        theta = relaxed_batch(chunk[:, None], k).theta
        best = max(best, float((theta.sum(axis=1) - chunk * system.M).max()))
    return best


# desk costs with one value changed so far that c_f/(c_a*lam) is 1e10 or
# 1e14: case 2 finds no floor-consistent Q_bar at C_h = I for many
# contents.  (c_f = 1e9 does so too, but its Q_hat of 421,673 queue
# candidates per content puts a dense grid of the dual out of reach.)
EXTREME_COSTS = {"lambda-1e-9": dict(lam=1e-9), "c_a-1e-12": dict(c_a=1e-12)}


@pytest.mark.parametrize("family", EXTREME_COSTS)
def test_never_cache_from_the_ceiling_on(family):
    # the thresholds at I and 2I are the never-cache regime's exactly, and
    # every passive set there is decided, for every content; solve_thresholds
    # and passive_set_member at I once raised on some of them
    system = desk_system(N=50, beta=4.0, M=10, **EXTREME_COSTS[family])
    k = content_constants(system.contents, system.beta)
    for i, c in enumerate(system.contents):
        I = float(k.I[i])
        for ch in (I, 2.0 * I):
            ts = solve_thresholds(c, system.beta, ch)
            assert (ts.tau_bar, ts.tau_tilde, ts.Q_bar, ts.theta) == (
                0.0, k.tau0[i], k.q_hat[i], k.theta1[i])
        states = default_state_grid(c, system.beta, n_tau=3)
        assert {type(passive_set_member(c, system.beta, I, s)) for s in states} == {bool}
        assert all(passive_set_member(c, system.beta, 2.0 * I, s) for s in states)


class TestRelaxedLowerBound:
    def test_zero_capacity_saturates(self):
        system = desk_system(N=20, M=0)
        ch, bound = relaxed_lower_bound(system)
        # never caching is optimal from I on, so at C_h = inf each set is never-cache's
        never = [solve_thresholds(c, system.beta, math.inf) for c in system.contents]
        ceilings = [ts.I for ts in never]
        case1 = sum(ts.theta for ts in never)
        assert ch == pytest.approx(max(ceilings))
        assert bound == pytest.approx(case1, rel=1e-9)

    def test_full_capacity_free_caching(self):
        system = desk_system(N=20, M=20)
        # M = N violates the capacity invariant for simulation, but the
        # dual is still well defined; bypass validation deliberately
        ch, bound = relaxed_lower_bound(system)
        always = sum(
            c.p * system.beta * c.costs.c_a * c.lam
            * solve_thresholds(c, system.beta).tau_star
            for c in system.contents
        )
        assert ch == pytest.approx(0.0, abs=1e-6)
        assert bound == pytest.approx(always, rel=1e-6)

    def test_desk_scale_golden_value_vs_dense_grid(self):
        system = desk_system()  # N=100, beta=4, zipf 1, M=25
        ch, bound = relaxed_lower_bound(system)
        assert bound == pytest.approx(1.1176835448, abs=1e-6)  # frozen on first computation
        ceilings = [solve_thresholds(c, system.beta).I for c in system.contents]
        grid = np.linspace(0.0, max(ceilings), 1000)
        dense = max(dual_value(system, float(x)) for x in grid)
        assert bound >= dense - 1e-9
        assert bound - dense < 1e-4

    @pytest.mark.parametrize("kw", [dict(M=90), dict(beta=40.0, M=96)])
    def test_slack_capacity_maximizer_is_zero(self, kw):
        # M is at least the relaxed occupancy at zero holding cost, so the
        # dual peaks at the endpoint C_h = 0, where its slope is <= 0
        system = desk_system(**kw)
        assert relaxed_lower_bound(system) == (0.0, dual_value(system, 0.0))

    def test_desk_bound_in_few_evaluations(self, monkeypatch):
        # each step of the search is one kernel call, which gives the dual's
        # value and slope; golden section took 64 value-only calls here
        assert counted_bound(monkeypatch, desk_system())[0] <= 20

    @pytest.mark.parametrize("family,beta,N,M", [
        *(("desk", 4.0, 100, m) for m in (5, 17, 29, 41, 50, 53, 65, 77, 89)),
        *(("paper-n100", 40.0, 100, m) for m in (5, 17, 29, 41, 53, 65, 77, 89)),
        ("paper", 40.0, 1000, 30),
        *((family, 4.0, 50, 10) for family in EXTREME_COSTS),
    ])
    def test_bound_tops_a_dense_grid(self, monkeypatch, family, beta, N, M):
        # desk M=50 and paper M=30 have their maximum on a Q_bar kink, where
        # the slope jumps across 0 and a secant alone only creeps
        system = desk_system(N=N, beta=beta, M=M, **EXTREME_COSTS.get(family, {}))
        evaluations, (ch, bound) = counted_bound(monkeypatch, system)
        assert evaluations <= 64
        assert bound == dual_value(system, ch)
        assert bound >= dense_dual_max(system, 2001) - 1e-12
        # never caching is feasible, and costs theta1 per content
        assert bound <= content_constants(system.contents, system.beta).theta1.sum()

    def test_concavity_sanity(self):
        system = desk_system(N=30, M=8)
        ceilings = [solve_thresholds(c, system.beta).I for c in system.contents]
        xs = np.linspace(0.0, max(ceilings), 40)
        vals = [dual_value(system, float(x)) for x in xs]
        d2 = np.diff(vals, 2)
        assert (d2 < 1e-6).all()  # concave up to float noise
