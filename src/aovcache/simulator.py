"""Seeded discrete-event simulation of the cache serving Poisson requests.

Decision epochs are request arrivals.  Between epochs only waiting cost
accrues (piecewise-constant, integrated exactly); at an epoch the
policy picks an action and the event charges fetch or ageing cost.
Three random streams derive from the seed, any integer >= 0 -- inter-arrival
times, content selection, version-age realization -- so expected-mode and
realized-mode runs share the same arrival sample path.  Stream i is
numpy's ``PCG64(SeedSequence(seed).spawn(3)[i])``.

Every policy in both ageing modes runs in a compiled C loop
(``_loop.c``, loaded by ``_ckernel``) that seeds and steps those streams
itself, so a run makes no ``numpy.random`` object and this module does
not import ``numpy.random``; it hands the kernel the seed's words and a
zeroed block for the streams.  The kernel draws the events itself:
inter-arrival times by numpy's own exponential sampler and the contents'
uniforms in blocks of ``_ckernel.BLOCK``, the content by a guide-table
inverse CDF of its uniform, and realized-mode version ages one at a time
by numpy's own Poisson sampler.  A block drawn before the warmup stop is
run after it, and an event horizon is drawn no further than its stops.
``_reference_loop`` is the specification and the fallback where the
kernel cannot be built: it makes the streams with ``SeedSequence`` and
``default_rng`` (importing ``numpy.random`` as it runs), takes the same
draws from ``Generator`` batches (``_batches``), steps a
``CacheSystemState`` through its ``apply_*`` transitions and decides
with the public ``*_decide`` rules of ``policies``.  Its cache is a set, since no rule
depends on the order of the cached copies; an infinite cache holds all N
contents.  The two loops give bit-identical
metrics: a lockstep test in ``tests/test_simulator.py`` pins them
together for every policy and mode, and the CLI's ``verify`` command
compares them on the user's machine.

The reference loop finds a Whittle victim by scanning every cached
copy.  The compiled loop visits the copies in ascending order of a
lower bound of their index, valid up to a common horizon, and stops at
the first bound above the best index so far; ``_loop.c`` proves that
this finds the same victim.  The bounds are read from each ``w_of_tau``
row's running minimum (``PolicyTables.w_low``).

Both loops read every per-content value from the ``PolicyTables`` (the
compiled one its arrays, the reference one its ``content`` rows), and
``run`` rejects tables built for another system than the run's.  ``run``
validates each run's system unless the last run validated that very
object, so a sweep validates each distinct system once.  A parallel sweep
hands each worker process the tables once, at its start; its jobs carry
keys into them.

A run that finds the cache holding other than M contents raises
``SimulationError``; the metrics of a finished run therefore always come
from a run whose occupancy held at every epoch.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import _ckernel
from .model import CacheSystemState, CostModel, OccupancyError, SystemParams, validate
from .policies import (
    ActionKind,
    PolicyKind,
    PolicyTables,
    build_policy_tables,
    myopic_decide,
    static_topm_decide,
    whittle_decide,
)
from .whittle import GRID_SIZE, P

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


def _top_m_ids(p: np.ndarray, m: int) -> list[int]:
    """The m most popular ids of popularity ``p``, the lowest id first on
    ties: the initial cache."""
    order = np.argsort(-p, kind="stable")
    return [int(i) for i in order[:m]]


def run(config: SimConfig, tables: PolicyTables | None = None) -> SimMetrics:
    """Simulate one seeded run and return its metrics.

    Deterministic: identical config (and tables) gives bit-identical
    metrics, whichever event loop runs.
    """
    return _run(config, tables, _ckernel.event_loop)


def _run(config: SimConfig, tables: PolicyTables | None, kernel) -> SimMetrics:
    """``run`` on the compiled ``kernel``, or on the reference loop when
    ``kernel`` is None."""
    system = config.system
    _check_system(system)
    if config.horizon_events is None and config.horizon_time is None:
        raise ValueError("a horizon (events or time) is required")
    if config.horizon_events is not None and config.horizon_events <= 0:
        raise ValueError("horizon_events must be > 0")
    if config.horizon_time is not None and not 0 < config.horizon_time < math.inf:
        raise ValueError("horizon_time must be finite and > 0")  # inf would never end
    if not 0.0 <= config.warmup <= 0.5:
        raise ValueError("warmup must be in [0, 0.5]")
    # both loops take the seeds SeedSequence takes, except None (fresh
    # entropy, which no run can repeat)
    seed = _ckernel.seed_words(config.seed)

    whittle = config.policy is PolicyKind.WHITTLE
    if tables is None:
        tables = build_policy_tables(system, indices=whittle)
    elif ((tables.contents is not system.contents and tables.contents != system.contents)
          or tables.beta != system.beta):
        raise ValueError("the tables were built for another system: its contents or "
                         "beta differ from the run's")
    if whittle and tables.w_of_tau.shape[1] != GRID_SIZE + 1:
        raise ValueError("the Whittle policy needs tables built with indices=True")
    # the warmup snapshot is taken right after the event that reaches
    # warm_events (event horizons) or warm_time (time horizons)
    warm_events, warm_time = None, math.inf
    if config.warmup > 0.0:
        if config.horizon_events is not None:
            warm_events = int(config.warmup * config.horizon_events)
        else:
            warm_time = config.warmup * config.horizon_time

    if kernel is None:
        ss = np.random.SeedSequence(config.seed)
        arr_rng, pick_rng, aov_rng = (np.random.default_rng(s) for s in ss.spawn(3))
        batches = _batches(arr_rng, pick_rng, tables.cum_p, 1.0 / tables.beta)
        end, snap, violations = _reference_loop(
            config, tables, batches, warm_events, warm_time, aov_rng)
    else:
        end, snap, violations = _compiled_loop(kernel, config, tables, seed, warm_events,
                                               warm_time)
    return _metrics(end, snap, violations)


# the system the last run found valid, kept by identity
_valid_system: SystemParams | None = None


def _check_system(system: SystemParams) -> None:
    """Raise ValueError naming every problem ``validate`` finds in
    ``system``, unless the last run found that very object valid: the runs
    of a sweep, which run the cells of one system in a row, validate each
    distinct system once."""
    global _valid_system
    if system is _valid_system:
        return
    problems = validate(system)
    if problems:
        raise ValueError("; ".join(map(str, problems)))
    _valid_system = system


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
# its error statuses (enums in _loop.c); _ckernel reads the totals' sizes
_T, _EVENTS, _VIOLATIONS = 0, 1, 2
_POLICY_CODE = {PolicyKind.WHITTLE: 0, PolicyKind.MYOPIC: 1,
                PolicyKind.STATIC_TOP_M: 2, PolicyKind.INFINITE_CAPACITY: 3}
_OCCUPANCY_ERROR, _POISSON_DOMAIN_ERROR = -1, -2
_NO_LIMIT = 2**63 - 1

# the kernel's table arguments of each PolicyTables, taken once per tables
_table_args = weakref.WeakKeyDictionary()


def _kernel_tables(tables: PolicyTables) -> tuple:
    """The kernel's arguments from ``cum_p`` to ``beta`` for ``tables``."""
    args = _table_args.get(tables)
    if args is None:
        f64, i64, ptr = np.float64, np.int64, _ckernel.address
        args = _table_args[tables] = (
            ptr(tables.cum_p, f64), ptr(tables.guide, i64), len(tables.guide),
            ptr(tables.cdbl, f64), ptr(tables.cint, i64), ptr(tables.bps, f64),
            ptr(tables.w_of_tau, f64), ptr(tables.w_low, f64), tables.w_of_tau.shape[1],
            tables.beta)
    return args


def _block(dtype, sizes):
    """One zeroed block of ``dtype`` cut into arrays of ``sizes``, and the
    addresses of those arrays."""
    block = np.zeros(sum(sizes), dtype)
    start, itemsize = _ckernel.address(block, dtype), block.itemsize
    views, addresses, at = [], [], 0
    for size in sizes:
        views.append(block[at:at + size])
        addresses.append(start + at * itemsize)
        at += size
    return views, addresses


def _compiled_loop(kernel, config: SimConfig, tables: PolicyTables, seed: list[int],
                   warm_events, warm_time):
    """``_reference_loop`` for every policy and ageing mode, with every
    draw made in the kernel on the streams it seeds from ``seed``, the
    run's seed as 32-bit words (arrivals, content picks, version ages).
    The kernel stops at the warmup point so the snapshot is taken here,
    after the same event as in the reference loop."""
    system = config.system
    n, m = system.N, system.M
    (_, _, slot_of, slots, cnt, _, words), ints = _block(
        np.int64, (n, n, n, m, _ckernel.N_CNT, 3 * _ckernel.STREAM_WORDS, len(seed)))
    words[:] = seed
    (_, _, acc, _), dbls = _block(
        np.float64, (n, n, _ckernel.N_ACC, 2 * _ckernel.BLOCK + _ckernel.SCRATCH_WORDS * m))
    waited = np.zeros(n, dtype=np.uint8)
    # under infinite capacity every content counts as cached and the
    # kernel reads no slot
    slots[:] = sorted(_top_m_ids(tables.cdbl[:, P], m))
    slot_of[:] = -1
    slot_of[slots] = np.arange(m)
    realized = config.ageing_mode is AgeingMode.REALIZED
    policy = _POLICY_CODE[config.policy]
    state = (*_kernel_tables(tables), *ints, len(seed), *dbls,
             _ckernel.address(waited, np.uint8), m)

    def totals():
        return (*acc[:6].tolist(), *cnt[:2].tolist())

    end_events = config.horizon_events if config.horizon_events is not None else _NO_LIMIT
    end_time = config.horizon_time if config.horizon_time is not None else math.inf
    snap = None
    while cnt[_EVENTS] < end_events and acc[_T] < end_time:
        stop_events, stop_time = end_events, end_time
        if snap is None:
            if warm_events is not None:
                stop_events = min(stop_events, warm_events)
            stop_time = min(stop_time, warm_time)
        status = kernel(policy, realized, stop_events, stop_time, *state)
        if status == _OCCUPANCY_ERROR:
            raise SimulationError(f"occupancy violated at event {cnt[_EVENTS]}")
        if status == _POISSON_DOMAIN_ERROR:
            # the error Generator.poisson raises in the reference loop
            raise ValueError("lam value too large")
        if snap is None and ((cnt[_EVENTS] == warm_events) if warm_events is not None
                             else (acc[_T] >= warm_time)):
            snap = totals()
    return totals(), snap, int(cnt[_VIOLATIONS])


def _reference_loop(config: SimConfig, tables: PolicyTables, batches,
                    warm_events, warm_time, aov_rng):
    """Every event as ``CacheSystemState`` transitions chosen by the public
    decision rules.  Waiting cost accrues from the state's queue totals;
    the chronological grand total is kept apart from the per-component
    sums, so the reconciliation check is meaningful."""
    system = config.system
    # an infinite cache holds all N contents
    m = system.N if config.policy is PolicyKind.INFINITE_CAPACITY else system.M
    decide = _DECIDE[config.policy]
    realized = config.ageing_mode is AgeingMode.REALIZED
    content = tables.content
    state = CacheSystemState(system.N, m, [c.c_w for c in content])
    state.preload(_top_m_ids(tables.cdbl[:, P], m))
    end_events = config.horizon_events if config.horizon_events is not None else _NO_LIMIT
    end_time = config.horizon_time if config.horizon_time is not None else math.inf
    t = grand = q_integral = wait_cost = fetch_cost = ageing_cost = 0.0
    fetches = events = violations = 0
    waited = set()  # contents whose request waited since their last fetch
    snap = None
    dts, ids, bi = [], [], 0
    while events < end_events and t < end_time:
        if bi == len(dts):
            dts, ids = (a.tolist() for a in next(batches))
            bi = 0
        dt, r = dts[bi], ids[bi]
        bi += 1
        if state.total_queue:
            q_integral += state.total_queue * dt
            winc = state.queue_cost_rate * dt
            wait_cost += winc
            grand += winc
        t += dt
        state.t = t
        events += 1

        act = decide(state, r, tables)
        if act.kind is ActionKind.WAIT:
            state.apply_wait(r)
            waited.add(r)
        elif act.kind is ActionKind.SERVE_CACHED:
            if realized:
                age = content[r].c_a * state.realized_aov(r, content[r].lam, aov_rng)
            else:
                age = content[r].c_alam * state.tau(r)
            age *= state.apply_serve(r)
            ageing_cost += age
            grand += age
            violations += r in waited
        else:
            try:
                state.apply_fetch(r, act.kind is ActionKind.FETCH_SERVE_CACHE, act.evict)
                state.check_occupancy()
            except OccupancyError as e:
                raise SimulationError(f"occupancy violated at event {events}: {e}") from e
            fetch_cost += content[r].c_f
            grand += content[r].c_f
            fetches += 1
            waited.discard(r)

        if snap is None and ((events == warm_events) if warm_events is not None
                             else (t >= warm_time)):
            snap = (t, grand, q_integral, wait_cost, fetch_cost, ageing_cost, fetches, events)
    end = (t, grand, q_integral, wait_cost, fetch_cost, ageing_cost, fetches, events)
    return end, snap, violations


# under infinite capacity every request finds its copy cached, and
# whittle_decide's cached branch is the single-content rule
_DECIDE = {PolicyKind.WHITTLE: whittle_decide, PolicyKind.MYOPIC: myopic_decide,
           PolicyKind.STATIC_TOP_M: static_topm_decide,
           PolicyKind.INFINITE_CAPACITY: whittle_decide}


# -- parameter sweeps --------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    value: object
    replication: int
    seed: int
    metrics: SimMetrics


def _with_c_w(system: SystemParams, c_w: float) -> SystemParams:
    contents = tuple(
        replace(c, costs=CostModel(c.costs.c_a, c.costs.c_f, c_w))
        for c in system.contents
    )
    return replace(system, contents=contents)


def _run_cell(job, groups) -> SweepCell:
    """The sweep cell of ``job``, ``(group, replication)``: one run of the
    group's config on its tables, seeded by the replication; ``groups``
    holds each axis value's ``(value, config, tables)``."""
    g, rep = job
    value, config, tables = groups[g]
    config = replace(config, seed=config.seed + rep)
    return SweepCell(value, rep, config.seed, run(config, tables))


# a sweep worker process's groups, set once as it starts
_worker_groups: list = []


def _share_groups(groups) -> None:
    global _worker_groups
    _worker_groups = groups


def _run_shared(job) -> SweepCell:
    return _run_cell(job, _worker_groups)


def sweep(
    base: SimConfig,
    axis: str,
    values,
    replications: int,
    processes: int | None = None,
    tables: PolicyTables | None = None,
    builds: list | None = None,
) -> list[SweepCell]:
    """One run per (value, replication), seeds ``base.seed + rep``.

    Replication seeds repeat across axis values and policies (common
    random numbers), which tightens paired comparisons.  The ``M`` and
    ``policy`` axes share one table build; ``c_w`` rebuilds per value.
    With ``processes > 1`` each worker process gets every value's config
    and tables once, as it starts (inherited where processes fork), and
    each job only its cell's keys.  Each table build's counts go to the
    end of ``builds``, if given (``policies.build_policy_tables``).
    """
    if axis not in ("M", "c_w", "policy"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not len(values):
        raise ValueError("sweep values must be nonempty")
    if replications < 1:
        raise ValueError("replications must be >= 1")

    if axis == "c_w":
        groups = []
        for v in values:
            system = _with_c_w(base.system, float(v))
            groups.append((float(v), replace(base, system=system), build_policy_tables(
                system, indices=base.policy is PolicyKind.WHITTLE, builds=builds)))
    else:
        if tables is None:
            policies = ([PolicyKind(v) for v in values] if axis == "policy"
                        else [base.policy])
            tables = build_policy_tables(
                base.system, indices=PolicyKind.WHITTLE in policies, builds=builds)
        if axis == "M":
            groups = [(int(v), replace(base, system=replace(base.system, M=int(v))), tables)
                      for v in values]
        else:
            groups = [(PolicyKind(v).value, replace(base, policy=PolicyKind(v)), tables)
                      for v in values]
    jobs = [(g, rep) for g in range(len(groups)) for rep in range(replications)]

    if processes and processes > 1:
        from multiprocessing import Pool  # ~7 ms, paid only by parallel sweeps

        with Pool(processes, initializer=_share_groups, initargs=(groups,)) as pool:
            cells = pool.map(_run_shared, jobs, chunksize=1)
    else:
        cells = [_run_cell(j, groups) for j in jobs]
    return cells


def aggregate(cells: list[SweepCell]) -> list[dict]:
    """Mean and standard error of the key metrics per axis value, in the
    order the values first appear."""
    byval: dict[object, list[SimMetrics]] = {}
    for c in cells:
        byval.setdefault(c.value, []).append(c.metrics)

    def mean_se(xs):
        se = float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
        return float(np.mean(xs)), se

    rows = []
    for v, ms in byval.items():
        cost, cost_se = mean_se([x.avg_total_cost for x in ms])
        wait, wait_se = mean_se([x.avg_wait_time for x in ms])
        rows.append({
            "value": v,
            "replications": len(ms),
            "avg_cost": cost,
            "avg_cost_se": cost_se,
            "fetch_cost": float(np.mean([x.fetch_cost_rate for x in ms])),
            "ageing_cost": float(np.mean([x.ageing_cost_rate for x in ms])),
            "waiting_cost": float(np.mean([x.waiting_cost_rate for x in ms])),
            "avg_wait_time": wait,
            "avg_wait_time_se": wait_se,
        })
    return rows
