"""Decision rules mapping cache state and a request to an action.

Action numbering follows the event semantics: 0 serve the cached copy,
1 fetch+serve+cache (evicting a victim when the requester is uncached),
2 wait for more requests, 3 fetch+serve+discard.
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum
from typing import NamedTuple

from .model import CacheSystemState, SystemParams
from .thresholds import ContentConstants, average_cost_batch, content_constants
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


def build_policy_tables(system: SystemParams, indices: bool = True) -> PolicyTables:
    """The tables of ``system``, independent of its capacity M, so one
    build covers a whole capacity sweep: ``whittle.build_index_tables`` of
    its contents, with the Whittle indices, or with only the thresholds
    when ``indices`` is False, for policies that never evaluate an index."""
    return build_index_tables(system.contents, system.beta, indices)[0]


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


def dual_value(system: SystemParams, C_h: float,
               consts: ContentConstants | None = None) -> float:
    """Lagrangian dual at C_h: sum of per-content optima minus C_h * M.

    All contents are evaluated in one batched call; ``consts`` (from
    ``content_constants``) lets a caller that evaluates many C_h solve
    the per-content constants once.
    """
    if consts is None:
        consts = content_constants(system.contents, system.beta)
    return float(average_cost_batch(C_h, consts).sum()) - C_h * system.M


def relaxed_lower_bound(system: SystemParams) -> tuple[float, float]:
    """Lower bound on the constrained optimum: max over C_h of the dual.

    The dual is concave (each theta_n is a pointwise minimum of affine
    functions of C_h, and C_h * M is linear), so golden-section search
    over [0, max_n I_n] finds the maximizer without a grid pass, kinks
    included.  When the capacity is slack (the relaxed problem caches at
    most M contents even at zero holding cost) the maximizer is the
    endpoint C_h = 0, which the search approaches but never evaluates;
    so the endpoint is evaluated once and wins when strictly greater.
    The upper end needs no such check: for M > 0 the slope there is -M.
    Returns (C_h_star, bound).
    """
    consts = content_constants(system.contents, system.beta)
    hi = float(consts.I.max())
    if system.M == 0:
        return hi, dual_value(system, hi, consts)  # saturated: dual is flat past max I_n
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = dual_value(system, c, consts), dual_value(system, d, consts)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = dual_value(system, c, consts)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = dual_value(system, d, consts)
        if b - a <= 1e-12 * hi:
            break
    mid = 0.5 * (a + b)
    v_mid, v_zero = dual_value(system, mid, consts), dual_value(system, 0.0, consts)
    return (0.0, v_zero) if v_zero > v_mid else (mid, v_mid)
