"""Seeded discrete-event simulation of the cache serving Poisson requests.

Decision epochs are request arrivals.  Between epochs only waiting cost
accrues (piecewise-constant, integrated exactly); at an epoch the
policy picks an action and the event charges fetch or ageing cost.
Three RNG streams derive from the master seed -- inter-arrival times,
content selection, version-age realization -- so expected-mode and
realized-mode runs share the same arrival sample path.

Every policy in both ageing modes runs in a compiled C loop
(``_loop.c``, loaded by ``_ckernel``), called once per pre-drawn numpy
batch; realized-mode version ages are drawn in C by numpy's own Poisson
sampler on the run's version-age generator.  ``_python_loop`` is the
reference and the fallback: ``verify_every > 0`` and a machine where the
kernel cannot be built use it.  It inlines the Whittle and myopic index
comparisons as vectorized lookups over the cache slots (the
policy-module functions are pure but too slow to call per event), and
``verify_every=k`` re-derives every k-th decision through the public
policy functions and asserts agreement, which is how the tests pin the
inlined rules to the specified ones.  The two loops give bit-identical
metrics: a lockstep test in ``tests/test_simulator.py`` pins them
together for every policy and mode, and the CLI's ``verify`` command
compares them on the user's machine.

A run that finds the cache holding other than M contents raises
``SimulationError``; the metrics of a finished run therefore always come
from a run whose occupancy held at every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from multiprocessing import Pool

import numpy as np

from . import _ckernel
from .model import CacheSystemState, CostModel, SystemParams, validate
from .policies import (
    PolicyKind,
    PolicyTables,
    build_policy_tables,
    infinite_capacity_decide,
    myopic_decide,
    static_topm_decide,
    whittle_decide,
)

__all__ = ["AgeingMode", "SimConfig", "SimMetrics", "SimulationError", "run", "sweep",
           "SweepCell", "aggregate"]

_BATCH = 1 << 15


class AgeingMode(Enum):
    EXPECTED = "expected"
    REALIZED = "realized"


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    system: SystemParams
    policy: PolicyKind = PolicyKind.WHITTLE
    horizon_events: int | None = None
    horizon_time: float | None = None
    seed: int = 0
    ageing_mode: AgeingMode = AgeingMode.EXPECTED
    warmup: float = 0.1


@dataclass(frozen=True)
class SimMetrics:
    """Time-averaged costs over the post-warmup window."""

    avg_total_cost: float
    fetch_cost_rate: float
    ageing_cost_rate: float
    waiting_cost_rate: float
    avg_wait_time: float         # queue-time per request
    fetch_rate: float            # fetches per unit time
    event_count: int
    duration: float
    serve_after_wait: int        # serve-following-wait occurrences (expect 0)
    reconciliation: float        # relative gap, chronological vs per-component totals


def _top_m_ids(system: SystemParams) -> list[int]:
    order = np.argsort(-system.popularity(), kind="stable")
    return [int(i) for i in order[: system.M]]


def _verify_mismatch(what, event, got, want):
    raise SimulationError(f"inline/{what} decision mismatch at event {event}: "
                          f"fast={got} policy={want}")


def run(config: SimConfig, tables: PolicyTables | None = None,
        verify_every: int = 0) -> SimMetrics:
    """Simulate one seeded run and return its metrics.

    Deterministic: identical config (and tables) gives bit-identical
    metrics, whichever event loop runs.
    """
    system = config.system
    problems = validate(system)
    if problems:
        raise ValueError("; ".join(map(str, problems)))
    if config.horizon_events is None and config.horizon_time is None:
        raise ValueError("a horizon (events or time) is required")
    if config.horizon_events is not None and config.horizon_events <= 0:
        raise ValueError("horizon_events must be > 0")
    if config.horizon_time is not None and config.horizon_time <= 0:
        raise ValueError("horizon_time must be > 0")
    if not 0.0 <= config.warmup <= 0.5:
        raise ValueError("warmup must be in [0, 0.5]")

    whittle = config.policy is PolicyKind.WHITTLE
    if tables is None:
        tables = build_policy_tables(system, indices=whittle)
    ss = np.random.SeedSequence(config.seed)
    arr_rng, pick_rng, aov_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    cum_p = np.cumsum(system.popularity())
    cum_p[-1] = 1.0
    batches = _batches(arr_rng, pick_rng, cum_p, 1.0 / system.beta)

    # the warmup snapshot is taken right after the event that reaches
    # warm_events (event horizons) or warm_time (time horizons)
    warm_events, warm_time = None, math.inf
    if config.warmup > 0.0:
        if config.horizon_events is not None:
            warm_events = int(config.warmup * config.horizon_events)
        else:
            warm_time = config.warmup * config.horizon_time

    kernel = _ckernel.event_loop
    if kernel is not None and not verify_every:
        end, snap, violations = _compiled_loop(
            kernel, config, tables, batches, warm_events, warm_time, aov_rng)
    else:
        end, snap, violations = _python_loop(
            config, tables, batches, warm_events, warm_time, aov_rng, verify_every)
    return _metrics(end, snap, violations)


def _batches(arr_rng, pick_rng, cum_p, mean_dt):
    """Endless (inter-arrival times, content ids) batches of ``_BATCH`` draws."""
    while True:
        yield (arr_rng.exponential(mean_dt, _BATCH),
               np.searchsorted(cum_p, pick_rng.random(_BATCH), side="right"))


def _metrics(end, snap, violations) -> SimMetrics:
    """Metrics over the window from the warmup snapshot to the end.

    ``end`` and ``snap`` are (t, grand total, queue-time integral,
    waiting, fetch and ageing cost, fetches, events); ``snap`` is None
    when no warmup snapshot was taken.
    """
    t, grand, q_integral, wait_cost, fetch_cost_total, ageing_cost_total, \
        fetches, events = end
    if snap is None:
        snap = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    t0, grand0, qi0, wc0, fc0, ac0, f0, e0 = snap
    duration = t - t0
    n_req = events - e0
    if duration <= 0 or n_req <= 0:
        raise SimulationError("empty measurement window; lower warmup or extend horizon")
    d_grand = grand - grand0
    d_wait = wait_cost - wc0
    d_fetch = fetch_cost_total - fc0
    d_age = ageing_cost_total - ac0
    recon = abs(d_grand - (d_wait + d_fetch + d_age)) / max(1.0, abs(d_grand))
    if recon > 1e-9:
        raise SimulationError(f"cost accounting mismatch: {recon:g}")
    if min(d_wait, d_fetch, d_age) < 0:
        raise SimulationError("negative accrued cost")
    return SimMetrics(
        avg_total_cost=d_grand / duration,
        fetch_cost_rate=d_fetch / duration,
        ageing_cost_rate=d_age / duration,
        waiting_cost_rate=d_wait / duration,
        avg_wait_time=(q_integral - qi0) / n_req,
        fetch_rate=(fetches - f0) / duration,
        event_count=events,
        duration=duration,
        serve_after_wait=violations,
        reconciliation=recon,
    )


# indices into the compiled loop's running totals, its policy codes and
# its error statuses (enums in _loop.c)
_T, _N_ACC = 0, 7
_EVENTS, _VIOLATIONS, _N_CNT = 1, 2, 4
_POLICY_CODE = {PolicyKind.WHITTLE: 0, PolicyKind.MYOPIC: 1,
                PolicyKind.STATIC_TOP_M: 2, PolicyKind.INFINITE_CAPACITY: 3}
_OCCUPANCY_ERROR, _POISSON_DOMAIN_ERROR = -1, -2
_NO_LIMIT = 2**63 - 1


def _compiled_loop(kernel, config: SimConfig, tables: PolicyTables, batches,
                   warm_events, warm_time, aov_rng):
    """``_python_loop`` for every policy and ageing mode, one kernel call
    per batch.  The kernel stops at the warmup point so the snapshot is
    taken here, after the same event as in the Python loop."""
    system = config.system
    n, m = system.N, system.M
    ct = tables.content
    stride = len(ct[0].w_of_tau)
    if config.policy is PolicyKind.WHITTLE and any(
            len(c.w_of_tau) != stride or len(c.breakpoints) != c.q_hat - c.q_star
            for c in ct):
        raise ValueError("the Whittle policy needs tables built with indices=True")
    cdbl = np.array([
        (c.tau_star, c.ceiling, c.inv_step, cal, cf, cw, p, p * cf, lam, cp.costs.c_a)
        for c, cal, cf, cw, p, lam, cp in zip(ct, tables.c_alam, tables.c_f, tables.c_w,
                                              tables.p, tables.lam, system.contents)
    ]).ravel()
    bp_off = np.cumsum([0] + [len(c.breakpoints) for c in ct])[:-1]
    cint = np.array([(c.q_star, c.q_hat, off) for c, off in zip(ct, bp_off)],
                    dtype=np.int64).ravel()
    bps = np.array([b for c in ct for b in c.breakpoints], dtype=float)
    w_of_tau = np.concatenate([c.w_of_tau for c in ct])
    # under infinite capacity every content counts as cached and the
    # kernel reads no slot
    slots = np.array(sorted(_top_m_ids(system)), dtype=np.int64)
    slot_of = np.full(n, -1, dtype=np.int64)
    slot_of[slots] = np.arange(m)
    scratch = np.empty(m)
    queue = np.zeros(n, dtype=np.int64)
    fetch_time = np.zeros(n)
    waited = np.zeros(n, dtype=np.uint8)
    aov = np.zeros(n, dtype=np.int64)
    aov_time = np.zeros(n)
    acc = np.zeros(_N_ACC)
    cnt = np.zeros(_N_CNT, dtype=np.int64)
    realized = config.ageing_mode is AgeingMode.REALIZED
    bitgen = aov_rng.bit_generator.ctypes.bit_generator if realized else None
    policy = _POLICY_CODE[config.policy]
    f64, i64, ptr = np.float64, np.int64, _ckernel.address
    state = (ptr(cdbl, f64), ptr(cint, i64), ptr(bps, f64), ptr(w_of_tau, f64), stride,
             system.beta, ptr(queue, i64), ptr(fetch_time, f64), ptr(waited, np.uint8),
             ptr(aov, i64), ptr(aov_time, f64), ptr(slot_of, i64), ptr(slots, i64), m,
             ptr(scratch, f64), ptr(acc, f64), ptr(cnt, i64))

    def totals():
        return (*acc[:6].tolist(), *cnt[:2].tolist())

    end_events = config.horizon_events if config.horizon_events is not None else _NO_LIMIT
    end_time = config.horizon_time if config.horizon_time is not None else math.inf
    snap = None
    bi = blen = 0
    while cnt[_EVENTS] < end_events and acc[_T] < end_time:
        if bi == blen:
            dts, ids = next(batches)
            ids = ids.astype(i64, copy=False)
            batch = ptr(dts, f64), ptr(ids, i64)
            bi, blen = 0, len(dts)
        stop_events, stop_time = end_events, end_time
        if snap is None:
            if warm_events is not None:
                stop_events = min(stop_events, warm_events)
            stop_time = min(stop_time, warm_time)
        bi = kernel(policy, realized, bitgen, *batch, bi, blen, stop_events, stop_time,
                    *state)
        if bi == _OCCUPANCY_ERROR:
            raise SimulationError(f"occupancy violated at event {cnt[_EVENTS]}")
        if bi == _POISSON_DOMAIN_ERROR:
            # the error Generator.poisson raises in the Python loop
            raise ValueError("lam value too large")
        if snap is None and ((cnt[_EVENTS] == warm_events) if warm_events is not None
                             else (acc[_T] >= warm_time)):
            snap = totals()
    return totals(), snap, int(cnt[_VIOLATIONS])


def _python_loop(config: SimConfig, tables: PolicyTables, batches,
                 warm_events, warm_time, aov_rng, verify_every: int):
    """The event loop of every policy and ageing mode, and the reference
    the compiled loop is pinned to."""
    system = config.system
    policy = config.policy
    whittle = policy is PolicyKind.WHITTLE
    myopic = policy is PolicyKind.MYOPIC
    infinite = policy is PolicyKind.INFINITE_CAPACITY
    n = system.N
    m = system.M
    beta = system.beta
    state = CacheSystemState(n, m, tables.c_w, infinite=infinite)
    if not infinite:
        state.preload(_top_m_ids(system))

    realized = config.ageing_mode is AgeingMode.REALIZED
    # flat per-content parameter lists (hot-loop locals)
    ca_l = [c.costs.c_a for c in system.contents]
    lam_l = list(tables.lam)
    calam_l = list(tables.c_alam)
    cf_l = list(tables.c_f)
    cw_l = list(tables.c_w)
    ct = tables.content
    taustar_l = [c.tau_star for c in ct]
    qstar_l = [c.q_star for c in ct]
    qhat_l = [c.q_hat for c in ct]
    ceil_l = [c.ceiling for c in ct]
    bp_l = [c.breakpoints for c in ct]
    queue = state.queue
    fetch_time = state.fetch_time
    aov = state.aov
    aov_time = state.aov_time
    cache_set = state.cache_set

    # cache-slot structures for the vectorized index comparisons
    slot_ids: list[int] = sorted(cache_set) if not infinite else []
    id2slot = {cid: s for s, cid in enumerate(slot_ids)}
    queued_cached: set[int] = set()
    if whittle:
        stride = len(ct[0].w_of_tau)
        sentinel = stride - 1
        big_w = np.concatenate([c.w_of_tau for c in ct])
        inv_l = [c.inv_step for c in ct]
        a_fetch = np.zeros(len(slot_ids))
        a_inv = np.array([inv_l[i] for i in slot_ids])
        a_off = np.array([i * stride for i in slot_ids], dtype=np.int64)
        a_ids = np.array(slot_ids, dtype=np.int64)
    if myopic:
        m_fetch = np.zeros(len(slot_ids))
        m_qc = np.array([calam_l[i] for i in slot_ids])      # (Q+1) * c_a * lam
        m_cf = np.array([cf_l[i] for i in slot_ids])
        m_p = np.array([tables.p[i] for i in slot_ids])
        m_pcf = np.array([tables.p[i] * cf_l[i] for i in slot_ids])
        m_ids = np.array(slot_ids, dtype=np.int64)
    invb = 1.0 / beta
    horizon_events = config.horizon_events
    horizon_time = config.horizon_time

    # accumulators; the chronological grand total is kept separately from
    # the per-component sums so the reconciliation check is meaningful
    t = 0.0
    grand = 0.0
    q_integral = 0.0
    wait_cost = 0.0
    fetch_cost_total = 0.0
    ageing_cost_total = 0.0
    fetches = 0
    events = 0
    violations = 0
    total_q = 0
    wq_rate = 0.0
    waited = bytearray(n)
    snap = None

    dts: list[float] = []
    ids: list[int] = []
    bi = blen = 0

    while True:
        if horizon_events is not None and events >= horizon_events:
            break
        if horizon_time is not None and t >= horizon_time:
            break
        if bi == blen:
            dts, ids = (a.tolist() for a in next(batches))
            bi, blen = 0, _BATCH
        dt = dts[bi]
        r = ids[bi]
        bi += 1
        if total_q:
            q_integral += total_q * dt
            winc = wq_rate * dt
            wait_cost += winc
            grand += winc
        t += dt
        state.t = t
        events += 1

        # ---- decide: sets kind (0 serve, 1 fetch+cache, 2 wait, 3 fetch+discard)
        victim = None
        tau_r = 0.0
        if infinite:
            r_cached = True
            tau_r = t - fetch_time[r]
            if tau_r <= taustar_l[r]:
                kind = 0
            elif queue[r] < qstar_l[r]:
                kind = 2
            else:
                kind = 1
        elif whittle:
            r_cached = r in cache_set
            if r_cached:
                tau_r = t - fetch_time[r]
                if tau_r <= taustar_l[r]:
                    kind = 0
                elif queue[r] < qstar_l[r]:
                    kind = 2
                else:
                    kind = 1  # refresh in place
            else:
                q = queue[r]
                if q < qstar_l[r]:
                    kind = 2
                elif m == 0:  # nothing can be admitted
                    kind = 2 if q < qhat_l[r] else 3
                else:
                    w_req = ceil_l[r] if q >= qhat_l[r] else bp_l[r][q - qstar_l[r]]
                    wv = t - a_fetch
                    np.multiply(wv, a_inv, out=wv)
                    idx = wv.astype(np.int64)
                    np.minimum(idx, sentinel, out=idx)
                    np.add(idx, a_off, out=idx)
                    w = big_w[idx]
                    for qc in queued_cached:
                        w[id2slot[qc]] = 0.0
                    w_min = w.min()
                    if w_req > w_min:
                        kind = 1
                        victim = int(a_ids[w == w_min].min())
                    elif q < qhat_l[r]:
                        kind = 2
                    else:
                        kind = 3
        elif myopic:
            r_cached = r in cache_set
            if r_cached:
                act = myopic_decide(state, r, tables, include_common=False)
                kind = int(act.kind)
                tau_r = t - fetch_time[r]
            else:
                q = queue[r]
                tv = t - m_fetch
                tv += invb
                np.multiply(tv, m_qc, out=tv)
                np.minimum(tv, m_cf, out=tv)
                np.multiply(tv, m_p, out=tv)       # p_l * lookahead_l
                carry = tv.sum()
                gains = m_pcf - tv
                g_min = gains.min() if m else math.inf
                p_r, cf_r = tables.p[r], cf_l[r]
                c_cache = cf_r + p_r * min(cf_r, calam_l[r] / beta) + carry + g_min
                c_wait = cw_l[r] * (q + 1) / beta + carry
                c_disc = cf_r + p_r * cf_r + carry
                if c_cache <= c_wait and c_cache <= c_disc:
                    kind = 1
                    victim = int(m_ids[gains == g_min].min())
                elif c_wait <= c_disc:
                    kind = 2
                else:
                    kind = 3
        else:  # static top-M
            r_cached = r in cache_set
            act = static_topm_decide(state, r, tables)
            kind = int(act.kind)
            if r_cached:
                tau_r = t - fetch_time[r]

        if verify_every and events % verify_every == 0:
            _verify_decision(
                policy, state, r, tables, kind, victim, taustar_l, qstar_l, events)

        # ---- apply + charge
        if kind == 2:
            qn = queue[r] + 1
            queue[r] = qn
            total_q += 1
            wq_rate += cw_l[r]
            waited[r] = 1
            if qn == 1 and r_cached:
                if whittle:
                    queued_cached.add(r)
            if myopic and r_cached:
                s = id2slot[r]
                m_qc[s] = (qn + 1.0) * calam_l[r]
        else:
            q = queue[r]
            if q:
                queue[r] = 0
                total_q -= q
                wq_rate -= cw_l[r] * q
                if r_cached:
                    if whittle:
                        queued_cached.discard(r)
                    elif myopic:
                        m_qc[id2slot[r]] = calam_l[r]
            if kind == 0:
                served = q + 1
                if realized:
                    dtv = t - aov_time[r]
                    if dtv > 0.0:
                        aov[r] += int(aov_rng.poisson(lam_l[r] * dtv))
                        aov_time[r] = t
                    age = ca_l[r] * aov[r] * served
                else:
                    age = calam_l[r] * tau_r * served
                ageing_cost_total += age
                grand += age
                if waited[r]:
                    violations += 1
            else:
                if kind == 1:
                    if r_cached:
                        fetch_time[r] = t
                        if whittle:
                            a_fetch[id2slot[r]] = t
                        elif myopic:
                            m_fetch[id2slot[r]] = t
                    else:
                        cache_set.discard(victim)
                        cache_set.add(r)
                        fetch_time[r] = t
                        s = id2slot.pop(victim)
                        id2slot[r] = s
                        slot_ids[s] = r
                        if whittle:
                            queued_cached.discard(victim)
                            a_fetch[s] = t
                            a_inv[s] = inv_l[r]
                            a_off[s] = r * stride
                            a_ids[s] = r
                        elif myopic:
                            m_fetch[s] = t
                            m_qc[s] = calam_l[r]
                            m_cf[s] = cf_l[r]
                            m_p[s] = tables.p[r]
                            m_pcf[s] = tables.p[r] * cf_l[r]
                            m_ids[s] = r
                    aov[r] = 0
                    aov_time[r] = t
                fetch_cost_total += cf_l[r]
                grand += cf_l[r]
                fetches += 1
                waited[r] = 0
            if not infinite and len(cache_set) != m:
                raise SimulationError(
                    f"occupancy violated at event {events}: {len(cache_set)} != {m}")

        if snap is None and (
            (events == warm_events) if warm_events is not None else (t >= warm_time)
        ):
            snap = (t, grand, q_integral, wait_cost, fetch_cost_total,
                    ageing_cost_total, fetches, events)

    end = (t, grand, q_integral, wait_cost, fetch_cost_total, ageing_cost_total,
           fetches, events)
    return end, snap, violations


def _verify_decision(policy, state, r, tables, kind, victim,
                     taustar_l, qstar_l, events):
    """Check an inlined decision against the public policy functions.

    Whittle uses the same index tables on both routes, so agreement is
    exact.  The myopic fast path accumulates the carrying sum in slot
    order rather than set order, so totals can differ at float epsilon;
    action mismatches are tolerated only at such exact ties.
    """
    if policy is PolicyKind.WHITTLE:
        act = whittle_decide(state, r, tables)
        if int(act.kind) != kind or act.evict != victim:
            _verify_mismatch("whittle", events, (kind, victim), act)
    elif policy is PolicyKind.INFINITE_CAPACITY:
        act = infinite_capacity_decide(
            state.queue[r], state.t - state.fetch_time[r],
            taustar_l[r], qstar_l[r])
        if int(act.kind) != kind:
            _verify_mismatch("infinite", events, kind, act)
    elif policy is PolicyKind.MYOPIC:
        act = myopic_decide(state, r, tables, include_common=False)
        victim_differs = int(act.kind) == 1 and kind == 1 and act.evict != victim
        if int(act.kind) != kind or victim_differs:
            # per-slot eviction gains are bit-identical on both routes, so a
            # victim mismatch is a real bug; kind flips are tolerated only at
            # float-epsilon ties of the order-dependent carry sum
            if r in state.cache_set or victim_differs:
                _verify_mismatch("myopic", events, (kind, victim), act)
            costs = _myopic_uncached_costs(state, r, tables)
            got = costs[_MYOPIC_COST_POS[kind]]
            want = costs[_MYOPIC_COST_POS[int(act.kind)]]
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                _verify_mismatch("myopic", events, (kind, victim), act)
    else:
        act = static_topm_decide(state, r, tables)
        if int(act.kind) != kind:
            _verify_mismatch("static", events, kind, act)


_MYOPIC_COST_POS = {1: 0, 2: 1, 3: 2}


def _myopic_uncached_costs(state, r, tables):
    beta = tables.beta
    carry = 0.0
    best_gain = math.inf
    t = state.t
    for l in state.cache_set:
        look = tables.p[l] * min(
            tables.c_f[l],
            (state.queue[l] + 1) * tables.c_alam[l] * (t - state.fetch_time[l] + 1.0 / beta),
        )
        carry += look
        best_gain = min(best_gain, tables.p[l] * tables.c_f[l] - look)
    p_r, cf_r = tables.p[r], tables.c_f[r]
    q = state.queue[r]
    return (
        cf_r + p_r * min(cf_r, tables.c_alam[r] / beta) + carry + best_gain,
        tables.c_w[r] * (q + 1) / beta + carry,
        cf_r + p_r * cf_r + carry,
    )


# -- parameter sweeps --------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    axis: str
    value: object
    replication: int
    seed: int
    metrics: SimMetrics


def _with_c_w(system: SystemParams, c_w: float) -> SystemParams:
    contents = tuple(
        replace(c, costs=CostModel(c.costs.c_a, c.costs.c_f, c_w, c.costs.C_h))
        for c in system.contents
    )
    return replace(system, contents=contents)


def _run_cell(args) -> SweepCell:
    axis, value, rep, config, tables = args
    return SweepCell(axis, value, rep, config.seed, run(config, tables))


def sweep(
    base: SimConfig,
    axis: str,
    values,
    replications: int,
    processes: int | None = None,
    tables: PolicyTables | None = None,
) -> list[SweepCell]:
    """One run per (value, replication), seeds ``base.seed + rep``.

    Replication seeds repeat across axis values and policies (common
    random numbers), which tightens paired comparisons.  The ``M`` and
    ``policy`` axes share one table build; ``c_w`` rebuilds per value.
    """
    if axis not in ("M", "c_w", "policy"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not len(values):
        raise ValueError("sweep values must be nonempty")
    if replications < 1:
        raise ValueError("replications must be >= 1")

    jobs = []
    if axis == "c_w":
        for v in values:
            system = _with_c_w(base.system, float(v))
            vt = build_policy_tables(
                system, indices=base.policy is PolicyKind.WHITTLE)
            for rep in range(replications):
                cfg = replace(base, system=system, seed=base.seed + rep)
                jobs.append((axis, float(v), rep, cfg, vt))
    else:
        if tables is None:
            policies = ([PolicyKind(v) for v in values] if axis == "policy"
                        else [base.policy])
            tables = build_policy_tables(
                base.system, indices=PolicyKind.WHITTLE in policies)
        for v in values:
            if axis == "M":
                cfg0 = replace(base, system=replace(base.system, M=int(v)))
                key = int(v)
            else:
                cfg0 = replace(base, policy=PolicyKind(v))
                key = PolicyKind(v).value
            for rep in range(replications):
                cfg = replace(cfg0, seed=base.seed + rep)
                jobs.append((axis, key, rep, cfg, tables))

    if processes and processes > 1:
        with Pool(processes) as pool:
            cells = pool.map(_run_cell, jobs, chunksize=1)
    else:
        cells = [_run_cell(j) for j in jobs]
    return cells


def aggregate(cells: list[SweepCell]) -> list[dict]:
    """Mean and standard error of the key metrics per axis value."""
    byval: dict[object, list[SimMetrics]] = {}
    order = []
    for c in cells:
        if c.value not in byval:
            byval[c.value] = []
            order.append(c.value)
        byval[c.value].append(c.metrics)
    rows = []
    for v in order:
        ms = byval[v]
        k = len(ms)

        def mean_se(xs):
            mean = float(np.mean(xs))
            se = float(np.std(xs, ddof=1) / math.sqrt(k)) if k > 1 else 0.0
            return mean, se

        cost, cost_se = mean_se([x.avg_total_cost for x in ms])
        wait, wait_se = mean_se([x.avg_wait_time for x in ms])
        rows.append({
            "value": v,
            "replications": k,
            "avg_cost": cost,
            "avg_cost_se": cost_se,
            "fetch_cost": float(np.mean([x.fetch_cost_rate for x in ms])),
            "ageing_cost": float(np.mean([x.ageing_cost_rate for x in ms])),
            "waiting_cost": float(np.mean([x.waiting_cost_rate for x in ms])),
            "avg_wait_time": wait,
            "avg_wait_time_se": wait_se,
        })
    return rows
