"""Decision rules mapping cache state and a request to an action.

Action numbering follows the event semantics: 0 serve the cached copy,
1 fetch+serve+cache (evicting a victim when the requester is uncached),
2 wait for more requests, 3 fetch+serve+discard.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .model import CacheSystemState, SystemParams
from .thresholds import ContentConstants, content_constants, relaxed_batch
from .whittle import PolicyTables, build_index_tables

__all__ = [
    "ActionKind",
    "Action",
    "PolicyKind",
    "PolicyTables",
    "build_policy_tables",
    "whittle_decide",
    "infinite_capacity_decide",
    "myopic_decide",
    "static_topm_decide",
    "relaxed_lower_bound",
    "dual_value",
]


class ActionKind(IntEnum):
    SERVE_CACHED = 0
    FETCH_SERVE_CACHE = 1
    WAIT = 2
    FETCH_SERVE_DISCARD = 3


class Action(NamedTuple):
    kind: ActionKind
    evict: int | None = None


class PolicyKind(Enum):
    WHITTLE = "whittle"
    MYOPIC = "myopic"
    STATIC_TOP_M = "static-top-m"
    INFINITE_CAPACITY = "infinite-capacity"


def build_policy_tables(system: SystemParams, indices: bool = True,
                        builds: list | None = None) -> PolicyTables:
    """The tables of ``system``, independent of its capacity M, so one
    build covers a whole capacity sweep: ``whittle.build_index_tables`` of
    its contents, with the Whittle indices, or with only the thresholds
    when ``indices`` is False, for policies that never evaluate an index.
    The build's ``whittle.BuildCounts`` go to the end of ``builds``, if
    given."""
    tables, counts = build_index_tables(system.contents, system.beta, indices)
    if builds is not None:
        builds.append(counts)
    return tables


def _min_cached_index(state: CacheSystemState, tables: PolicyTables) -> tuple[float, int]:
    """Smallest cached-copy index and the lowest id attaining it, whatever
    order the cache set iterates in."""
    best_w = math.inf
    best_id = -1
    t = state.t
    queue = state.queue
    fetch_time = state.fetch_time
    content = tables.content
    for n in state.cache_set:
        w = content[n].cached_idle(queue[n], t - fetch_time[n])
        if w < best_w or (w == best_w and n < best_id):
            best_w, best_id = w, n
    return best_w, best_id


def whittle_decide(state: CacheSystemState, requested: int,
                   tables: PolicyTables) -> Action:
    """Index policy: serve fresh-enough copies, pool requests, and admit
    an uncached content only when its index beats the cheapest cached one."""
    tb = tables.content[requested]
    q = state.queue[requested]
    if requested in state.cache_set:  # a stale copy is refreshed in place
        return infinite_capacity_decide(q, state.t - state.fetch_time[requested],
                                        tb.tau_star, tb.q_star)
    if q < tb.q_star:
        return Action(ActionKind.WAIT)
    w_req = tb.uncached(q)
    w_min, victim = _min_cached_index(state, tables)
    if w_req > w_min:
        return Action(ActionKind.FETCH_SERVE_CACHE, evict=victim)
    if q < tb.q_hat:
        return Action(ActionKind.WAIT)
    return Action(ActionKind.FETCH_SERVE_DISCARD)


def infinite_capacity_decide(Q: int, tau: float, tau_star: float, Q_star: int) -> Action:
    """Optimal single-content rule: serve below tau_star, wait below Q_star."""
    if tau <= tau_star:
        return Action(ActionKind.SERVE_CACHED)
    if Q < Q_star:
        return Action(ActionKind.WAIT)
    return Action(ActionKind.FETCH_SERVE_CACHE)


def static_topm_decide(state: CacheSystemState, requested: int,
                       tables: PolicyTables) -> Action:
    """Fixed top-M cache: refresh stale copies in place, never admit or wait."""
    if requested in state.cache_set:
        if state.t - state.fetch_time[requested] <= tables.content[requested].tau_star:
            return Action(ActionKind.SERVE_CACHED)
        return Action(ActionKind.FETCH_SERVE_CACHE)
    return Action(ActionKind.FETCH_SERVE_DISCARD)


# -- myopic (one-step lookahead) baseline -----------------------------------


def _lookahead(tables: PolicyTables, n: int, q: int, tau: float) -> float:
    """Cheapest way to serve content n's next request one epoch ahead."""
    c = tables.content[n]
    return min(c.c_f, (q + 1) * c.c_alam * (tau + 1.0 / tables.beta))


def myopic_decide(state: CacheSystemState, requested: int,
                  tables: PolicyTables) -> Action:
    """Minimize the single-stage plus terminal cost of the coming epoch.

    The summed one-epoch lookahead of every cached copy (its popularity
    times the cheaper of a fetch and its ageing cost) is common to every
    candidate action, so the rule leaves that carry out; only the
    victim's lookahead enters an admission, as the cost shift of evicting
    it.  The victim is the copy whose eviction costs least, the lowest id
    on ties, whatever order the cache set iterates in.
    """
    beta = tables.beta
    r = requested
    q = state.queue[r]
    c = tables.content[r]
    p_r, cf_r, cw_r, cal_r = c.p, c.c_f, c.c_w, c.c_alam
    t = state.t
    if r in state.cache_set:
        tau = t - state.fetch_time[r]
        c_serve = cal_r * tau * (q + 1) + p_r * min(cf_r, cal_r * (tau + 1.0 / beta))
        c_fetch = cf_r + p_r * min(cf_r, cal_r / beta)
        c_wait = (
            cw_r * (q + 1) / beta
            + p_r * min(cf_r, (q + 2) * cal_r * (tau + 1.0 / beta))
            + (1.0 - p_r) * min(cf_r, (q + 1) * cal_r * (tau + 1.0 / beta))
        )
        if c_serve <= c_fetch and c_serve <= c_wait:
            return Action(ActionKind.SERVE_CACHED)
        if c_fetch <= c_wait:
            return Action(ActionKind.FETCH_SERVE_CACHE)
        return Action(ActionKind.WAIT)
    # uncached: compare fetch-and-cache (with best eviction), wait,
    # fetch-discard
    best_evict_gain = math.inf
    victim = -1
    for l in state.cache_set:
        cl = tables.content[l]
        look = cl.p * _lookahead(tables, l, state.queue[l], t - state.fetch_time[l])
        gain = cl.p_cf - look  # cost shift if l is evicted
        if gain < best_evict_gain or (gain == best_evict_gain and l < victim):
            best_evict_gain, victim = gain, l
    c_cache = cf_r + p_r * min(cf_r, cal_r / beta) + best_evict_gain
    c_wait = cw_r * (q + 1) / beta
    c_discard = cf_r + p_r * cf_r
    if c_cache <= c_wait and c_cache <= c_discard:
        return Action(ActionKind.FETCH_SERVE_CACHE, evict=victim)
    if c_wait <= c_discard:
        return Action(ActionKind.WAIT)
    return Action(ActionKind.FETCH_SERVE_DISCARD)


# -- relaxed-problem dual bound ---------------------------------------------

# the bound's search: steps after the two end evaluations, and how many
# ulps of the best dual value the tangents may still promise above it
_MAX_STEPS = 62
_ULPS = 4


def dual_value(system: SystemParams, C_h: float,
               consts: ContentConstants | None = None) -> float:
    """Lagrangian dual at C_h: sum of per-content optima minus C_h * M.

    All contents are evaluated in one batched call; ``consts`` (from
    ``content_constants``) lets a caller that evaluates many C_h solve
    the per-content constants once.
    """
    if consts is None:
        consts = content_constants(system.contents, system.beta)
    return float(relaxed_batch(C_h, consts).theta.sum()) - C_h * system.M


def _dual(c: float, m: int):
    """One evaluation of a bound's search: yields C_h ``c`` and receives
    the sums ``(theta, occupancy)`` over the contents there; returns the
    dual's value and slope at ``c`` and the occupancy itself."""
    theta, occupancy = yield c
    return theta - c * m, occupancy - m, occupancy


def _search(m: int, hi: float):
    """The bound's search at capacity ``m`` on ``[0, hi]``, as a
    generator of the C_h values it evaluates (see ``_dual``); returns
    ``(C_h_star, bound, occupancy)``."""
    a, b = 0.0, hi
    fa, ga, oa = yield from _dual(a, m)
    if ga <= 0.0:
        return a, fa, oa  # slack capacity: dual_value(system, 0.0)
    fb, gb, ob = yield from _dual(b, m)
    if gb >= 0.0:
        return b, fb, ob
    wa, wb = ga, gb  # the secant's weights of the two ends
    kept = 0         # +1 / -1: the last step moved a / b
    kink = False
    for _ in range(_MAX_STEPS):
        # where the tangents at a and b meet, clamped to the bracket
        t = min(max((fb - fa + ga * a - gb * b) / (ga - gb), a), b)
        best = max(fa, fb)
        over = min(fa + ga * (t - a), fb + gb * (t - b)) - best
        if over <= _ULPS * math.ulp(best) and b - a <= 1e-12 * b:
            break
        c = t if kink else (a * wb - b * wa) / (wb - wa)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        fc, gc, oc = yield from _dual(c, m)
        kink = abs(gc) > 0.5 * (ga if gc > 0.0 else -gb)
        if gc > 0.0:
            if kept > 0:
                wb *= 0.5
            a, fa, ga, oa, wa, kept = c, fc, gc, oc, gc, 1
        elif gc < 0.0:
            if kept < 0:
                wa *= 0.5
            b, fb, gb, ob, wb, kept = c, fc, gc, oc, gc, -1
        else:
            return c, fc, oc
    return (a, fa, oa) if fa >= fb else (b, fb, ob)


def relaxed_lower_bound(system: SystemParams, capacities: Sequence[int] | None = None
                        ) -> tuple[float, float] | list[tuple[float, float, float]]:
    """Lower bound on the constrained optimum: max over C_h of the dual.

    The dual ``D(C_h) = sum_n theta_n(C_h) - C_h*M`` is concave (each
    theta_n is a pointwise minimum of affine functions of C_h), and its
    slope is ``g(C_h) = sum_n occupancy_n(C_h) - M``, the relaxed
    policy's mean number of cached contents less the capacity
    (``thresholds.relaxed_batch``, one kernel call for both).  So the
    maximizer is where g changes sign, on ``[0, max_n I_n]``: g is
    negative past ``max_n I_n``, where every occupancy is 0.

    * g(0) <= 0: the capacity is slack, and the maximizer is C_h = 0.
    * g(max I) >= 0: the maximizer is ``max I`` itself, as at M = 0,
      where g(max I) = 0 and the dual is flat from there on.
    * Otherwise the search keeps a bracket ``a < b`` with g(a) > 0 > g(b)
      and steps to the secant root of g, with the Illinois halving of
      the weight of an end kept twice (Dowell & Jarratt 1971, BIT 11).
      At a ``Q_bar`` kink g jumps, and the secant only creeps; a step
      whose slope did not fall to half of its end's is taken as a kink,
      and the next step goes to where the tangents at a and b meet,
      which is the kink itself up to the curvature of the two pieces.
      A step that would not land strictly inside the bracket bisects.

    A one-sided slope is still a supergradient of a concave function, so
    the tangents at a and b bound D from above on the bracket.  The
    search stops when that bound exceeds the better end's value by at
    most a few ulps, and the bracket is at most 1e-12 of C_h wide (or
    can no longer be split); at most 64 evaluations in all.  The bound
    is the dual at the better end: an evaluated value, so a valid lower
    bound by weak duality whatever the slope's accuracy, which only
    steers the search and certifies how close it is to the maximum.

    ``capacities`` lists the M values to bound in place of the system's
    own.  Their searches run in lockstep, one ``_search`` each: every
    round gathers the C_h that the unfinished searches ask for, and
    evaluates the distinct ones in one ``relaxed_batch`` call, as a
    ``(K, 1)`` column; each search is fed its row's ``theta.sum()`` and
    ``occupancy.sum()``.  The last search left runs alone on scalar C_h.
    The kernel solves every (C_h, content) element on its own, and a
    row of the ``(K, N)`` result is summed as the 1-D array of a
    separate call is, so each capacity gets what its own search would,
    bit for bit, and a call makes as many kernel calls as its longest
    search.  With one capacity the calls are a single search's.

    A bound solves its contents' constants once and keeps no other state
    between evaluations: ``relaxed_batch`` reads case 2 by
    ``thresholds.case2``'s search from the estimate, which ``aovcache
    verify``'s ``dual-window`` holds to the same search from candidate 0,
    bit for bit, with every pick of that reference certified.
    Returns (C_h_star, bound) at the system's M; with ``capacities``,
    a list of (C_h_star, bound, occupancy), one per capacity, where the
    occupancy is the relaxed policy's mean number of cached contents
    evaluated at C_h_star.
    """
    consts = content_constants(system.contents, system.beta)
    hi = float(consts.I.max())
    ms = [system.M] if capacities is None else capacities
    searches = {m: _search(m, hi) for m in ms}
    asked = {m: next(s) for m, s in searches.items()}
    done = {}
    while len(asked) > 1:
        cs = list(dict.fromkeys(asked.values()))
        r = relaxed_batch(np.array(cs)[:, None], consts)
        sums = {c: (float(t.sum()), float(o.sum())) for c, t, o in zip(cs, r.theta, r.occupancy)}
        for m, c in list(asked.items()):
            try:
                asked[m] = searches[m].send(sums[c])
            except StopIteration as stop:
                done[m] = stop.value
                del asked[m]
    for m, c in asked.items():  # the last search alone, with no bookkeeping
        try:
            while True:
                r = relaxed_batch(c, consts)
                c = searches[m].send((float(r.theta.sum()), float(r.occupancy.sum())))
        except StopIteration as stop:
            done[m] = stop.value
    if capacities is None:
        return done[system.M][:2]
    return [done[m] for m in ms]
