"""The checks the index policy's claims rest on, one function each.

Each check is a function of a content (or a system), its sizes and its
tolerance, returning a ``Result``.  ``verify`` runs them through
``battery`` at its sizes, and the acceptance tests call them at theirs.
Where the two once differed, the function checks the stronger property.
``cli`` imports this module only inside ``verify``: the oracle pulls in
``scipy.sparse``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import replace
from typing import NamedTuple

import numpy as np
from scipy.special import lambertw, wrightomega

from . import _ckernel
from .model import ContentParams, SingleContentState, SystemParams
from .oracle import Grid, solve_holding, solve_infinite, whittle_by_sweep
from .policies import PolicyKind, build_policy_tables, dual_value, relaxed_lower_bound
from .simulator import AgeingMode, SimConfig, SimulationError, _run
from .thresholds import (_NEAR, ConsistencyError, _gaps, _quadratic, breakpoint_estimate,
                         case2_residuals, content_constants, gap_value, relaxed_batch,
                         search_candidates, solve_thresholds, solve_thresholds_batch)
from .whittle import (BAND_ERRORS, BP_OFF, GRID_SIZE, Q_STAR, TAU_STAR, PolicyTables, _groups,
                      _omega_rows, build_index_tables, cached_indices, grid_taus,
                      verify_indexability, whittle_cached, whittle_uncached)


class Result(NamedTuple):
    """A verdict, what the check saw, and the measured quantity the
    verdict rests on, in the check's own units."""

    passed: bool
    detail: str = ""
    error: float = 0.0


def bits_differ(a, b) -> np.ndarray:
    """Where two float64 arrays differ in their bits (NaN equals NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.view(np.int64) != b.view(np.int64)) & ~(np.isnan(a) & np.isnan(b))


def theta_vs_oracle(content: ContentParams, beta: float, cells: int = 1) -> Result:
    """The closed forms against the oracle's exact solution of its grid at
    C_h = 0 (``tau_star``, ``Q_star``), 0.6 I (``tau_bar``, ``tau_tilde``,
    ``Q_bar``) and 1.5 I (``Q_hat``): theta within 0.5 % in each regime,
    the ages within ``cells`` tau cells, ``Q_star`` exact and the other
    queues within one.  ``error`` is the worst relative theta error."""
    cm = content.costs
    ts = solve_thresholds(content, beta, 0.0)
    vt = solve_infinite(content.p * beta, content.lam, cm.c_a, cm.c_f, cm.c_w)
    ch = 0.6 * ts.I
    ts2, ts1 = solve_thresholds_batch(content, beta, [ch, 1.5 * ts.I])
    vt2 = solve_holding(content, beta, ch)
    vt1 = solve_holding(content, beta, 1.5 * ts.I)
    worst = max(abs(v.theta - t.theta) / t.theta for v, t in ((vt, ts), (vt2, ts2), (vt1, ts1)))
    age_tol = cells * vt.grid.dtau + 1e-12  # the three share one grid
    off = [name for name, bad in (
        ("tau_star", abs(vt.tau_serve_end() - ts.tau_star) > age_tol),
        ("Q_star", vt.queue_fetch_threshold() != ts.Q_star),
        ("tau_bar", abs(vt2.tau_serve_keep_end() - ts2.tau_bar) > age_tol),
        ("tau_tilde", abs(vt2.tau_serve_end() - ts2.tau_tilde) > age_tol),
        ("Q_bar", abs(vt2.queue_fetch_threshold() - ts2.Q_bar) > 1),
        ("Q_hat", abs(vt1.queue_fetch_threshold() - ts.Q_hat) > 1)) if bad]
    return Result(worst < 5e-3 and not off,
                  f"rel={worst:.2e}" + (f"; off the oracle: {', '.join(off)}" if off else ""),
                  worst)


def residuals(content: ContentParams, beta: float, frac: float = 0.6) -> Result:
    """Case 2's three defining equations hold to 1e-9 at C_h = frac*I."""
    ch = frac * solve_thresholds(content, beta, 0.0).I
    ts = solve_thresholds(content, beta, ch)
    worst = max(map(abs, case2_residuals(ch, content, beta, ts.tau_bar, ts.tau_tilde, ts.Q_bar)))
    return Result(worst < 1e-9, f"max |residual| = {worst:.2e}", worst)


def indexability(content: ContentParams, beta: float, points: int, span: float) -> Result:
    """No state of ``default_state_grid`` leaves the passive set as C_h
    grows over ``points`` values in [0, span*I]."""
    grid = np.linspace(0.0, span * solve_thresholds(content, beta, 0.0).I, points)
    violations = verify_indexability(content, beta, grid)
    return Result(not violations, f"{len(violations)} violations", len(violations))


def threshold_monotonicity(content: ContentParams, beta: float, points: int,
                           low: float) -> Result:
    """Lemma 3 at ``points`` values of C_h in [low*I, I]: ``tau_bar``
    strictly falls, ``tau_tilde`` strictly rises, ``Q_bar`` never falls,
    and ``tau_bar <= tau_star <= tau_tilde <= tau0``,
    ``Q_star <= Q_bar <= Q_hat`` at each."""
    ts = solve_thresholds(content, beta, 0.0)
    tb, tt, qb, _, _ = relaxed_batch(np.linspace(low * ts.I, ts.I, points),
                                     content_constants((content,), beta))
    ordered = ((tb <= ts.tau_star + 1e-12) & (ts.tau_star <= tt + 1e-12)
               & (tt <= ts.tau0 + 1e-12) & (ts.Q_star <= qb) & (qb <= ts.Q_hat))
    monotone = (np.diff(tb) < 0.0) & (np.diff(tt) > 0.0) & (np.diff(qb) >= 0)
    bad = np.count_nonzero(~ordered) + np.count_nonzero(~monotone)
    return Result(bad == 0, f"{points} points, {bad} violations", bad)


def whittle_vs_sweep(content: ContentParams, beta: float, points: int, refine: float,
                     cells: int = 1) -> Result:
    """The indices of 20 cached ages in [0, tau_star] and of every uncached
    queue 0..Q_hat+2 against ``whittle_by_sweep`` (tau grid refined by
    ``refine``) on ``points`` values of C_h in [0, 1.02 I].  The
    tolerance is max(1e-3, ``cells`` sweep steps), plus the oracle's own
    accuracy of one step, as it resolves passive/active on the same grid.
    ``error``: the worst error as a fraction of that budget."""
    cm = content.costs
    ts = solve_thresholds(content, beta, 0.0)
    states = [SingleContentState(0, float(tau), True, False)
              for tau in np.linspace(0.0, ts.tau_star, 20)]
    states += [SingleContentState(q, 0.0, False, True) for q in range(ts.Q_hat + 3)]
    ch_grid = np.linspace(0.0, 1.02 * ts.I, points)
    step = ch_grid[1] - ch_grid[0]
    budget = max(1e-3, cells * step) + step
    grid = Grid.for_params(content.p * beta, content.lam, cm.c_a, cm.c_f, cm.c_w, refine=refine)
    found = whittle_by_sweep(content, beta, states, ch_grid, grid=grid)
    errors = [abs(got - (whittle_cached(content, beta, s.Q, s.tau) if s.cached
                         else whittle_uncached(content, beta, s.Q)))
              for s, got in zip(states, found)]
    j = int(np.argmax(errors))
    s = states[j]
    return Result(errors[j] <= budget + 1e-12,
                  f"worst |index - sweep| = {errors[j]:.3g} of budget {budget:.3g} over "
                  f"{len(states)} states, at Q={s.Q}, tau={s.tau:.4g}, cached={s.cached}",
                  errors[j] / budget)


def special_functions(system: SystemParams) -> Result:
    """The compiled Wright omega and Lambert W0 against ``scipy.special``,
    bit for bit, at this system's own arguments: content 0's cached-index
    grid and the gap equation's c = C_h / (p c_a lam) over every
    content's range (the identity rests on the host's libm)."""
    if _ckernel.special is None:
        return Result(True, "the library is not built: scipy.special in use")
    seen = []

    def omega(x):
        seen.append(x.ravel())
        return _ckernel.wright_omega(x)

    k = content_constants(system.contents, system.beta)
    tau_star = solve_thresholds(system.contents[0], system.beta, 0.0).tau_star
    cached_indices(k.take([0]), tau_star, grid_taus(tau_star), omega)
    x = np.concatenate(seen)
    c_max = max(float((k.I / (k.p * k.c_alam)).max()), 1e-3)
    z = -np.exp(-1.0 - np.geomspace(1e-3, c_max, 1000))
    n_omega = np.count_nonzero(bits_differ(_ckernel.wright_omega(x), wrightomega(x)))
    n_w0 = np.count_nonzero(bits_differ(_ckernel.lambert_w0(z), lambertw(z).real))
    return Result(n_omega == n_w0 == 0, f"{n_omega} of {x.size} omega and {n_w0} of {z.size} "
                  "W0 values differ from scipy.special", n_omega + n_w0)


# the interleaved part of random_streams' draws: five 32-bit draws a
# cycle, an odd number, so a buffered high half is read after a 64-bit
# word, after a double and at the start of the next cycle
_INTERLEAVED = (_ckernel.DRAW_UINT32, _ckernel.DRAW_UINT64, _ckernel.DRAW_UINT32,
                _ckernel.DRAW_UINT32, _ckernel.DRAW_DOUBLE, _ckernel.DRAW_UINT32,
                _ckernel.DRAW_UINT32, _ckernel.DRAW_UINT64, _ckernel.DRAW_DOUBLE)


def random_streams(seed: int, draws: int = 1000) -> Result:
    """The event loop's three streams against numpy's
    ``PCG64(SeedSequence(seed).spawn(3)[i])``, draw for draw: ``draws``
    64-bit words (``random_raw``), ``draws`` doubles (``Generator.random``),
    then ``draws`` draws interleaving 32-bit words with both.  The kernel
    restates numpy's seeding and PCG64, so a numpy that changes either
    fails here by name rather than as a lockstep difference."""
    if _ckernel.event_loop is None:
        return Result(True, "the library is not built: numpy.random in use")
    mixed = [_INTERLEAVED[j % len(_INTERLEAVED)] for j in range(draws)]
    got = _ckernel.stream_draws(
        seed, [_ckernel.DRAW_UINT64] * draws + [_ckernel.DRAW_DOUBLE] * draws + mixed)
    differ = 0
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(3)):
        bg = np.random.PCG64(child)
        gen, handle = np.random.Generator(bg), bg.ctypes
        draw = {_ckernel.DRAW_UINT64: bg.random_raw,
                _ckernel.DRAW_UINT32: lambda: handle.next_uint32(handle.state),
                _ckernel.DRAW_DOUBLE: lambda: np.float64(gen.random()).view(np.uint64)}
        want = np.concatenate([bg.random_raw(draws), gen.random(draws).view(np.uint64),
                               np.array([draw[k]() for k in mixed], np.uint64)])
        differ += int(np.count_nonzero(got[i] != want))
    return Result(differ == 0, f"{differ} of {got.size} draws of the 3 streams at seed {seed} "
                  "differ from numpy's PCG64", differ)


def _from_zero(evaluate, top: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """``thresholds.search_candidates`` started at candidate 0, not at an
    estimate, and each pick certified locally: it hits its cell or passes
    the near rule, P holds at the candidate below it (or it is 0) and
    fails at the one above it, with P the search's predicate.  Returns the
    picks, the evaluator's leading arrays there, and where a pick fails
    its certificate; raises ``ConsistencyError`` where none is near."""
    pick, dist, values = search_candidates(evaluate, top)
    if not (found := np.isfinite(dist)).all():
        raise ConsistencyError(f"no floor-consistent Q_bar in rows {np.flatnonzero(~found)}")
    q = pick + np.array([[-1.0], [0.0], [1.0]])
    *_, v, ok = evaluate(np.arange(top.size), np.minimum(np.maximum(q, 0.0), top))
    holds = (q < 0.0) | ((q <= top) & (~ok | (v >= q + 1.0)))
    v, ok = v[1], ok[1]
    passes = ok & ((np.floor(v) == q[1]) | (np.maximum(q[1] - v, v - q[2]) < _NEAR * q[2]))
    return pick, values, ~(passes & holds[0] & ~holds[2])


def _case2_from_zero(C_h: np.ndarray, k) -> tuple[tuple, np.ndarray]:
    """``thresholds.case2``'s ``(tau_bar, tau_tilde, Q_bar, theta)`` by
    ``_from_zero``, and where its picks fail their certificate."""
    g, xb = _gaps(C_h, k)
    qb, (tb, tt), bad = _from_zero(
        lambda rows, q: _quadratic(g[rows], xb[rows], k.take(rows), q), k.top)
    return (tb, tt, qb, k.rc * tt), bad


def reference_tables(system: SystemParams) -> tuple[np.ndarray, ...]:
    """``(tau_star, Q_star, w_of_tau)`` of the system's index tables by the
    search from candidate 0, and how many of its picks fail their
    certificate: the ``C_h = 0`` thresholds from ``_case2_from_zero``, and
    each cached-index row between the ceiling I and the 0 sentinel at the
    content's grid points.  The breakpoints have no reference:
    ``misplaced_breakpoints`` holds each to its definition."""
    k = content_constants(system.contents, system.beta)
    (tau_star, _, q_star, _), bad = _case2_from_zero(np.zeros(k.I.size), k)
    w_of_tau = np.empty((k.I.size, GRID_SIZE + 1))
    w_of_tau[:, 0], w_of_tau[:, -1] = k.I, 0.0
    uncertified = np.count_nonzero(bad)
    for i, t in enumerate(tau_star.tolist()):
        ki = k.take(np.full(GRID_SIZE - 1, i))
        _, (x,), bad = _from_zero(_omega_rows(ki, grid_taus(t), _ckernel.wright_omega), ki.top)
        w_of_tau[i, 1:-1] = np.minimum(k.pc[i] * gap_value(np.maximum(x, 0.0)), k.I[i])
        uncertified += np.count_nonzero(bad)
    return tau_star, q_star, w_of_tau, uncertified


def misplaced_breakpoints(tables: PolicyTables) -> np.ndarray:
    """Where the uncached breakpoints of ``tables`` miss their definition,
    the C_h at which ``Q_bar`` first exceeds the pair's q.  Breakpoint b of
    pair (content, q), ``Q_hat - Q_star`` of them per content, holds if it
    lies in (0, I) and ``_case2_from_zero`` reads ``Q_bar(b - d) <= q <
    Q_bar(b + d)`` with certified picks, a band end at or past 0 reading
    ``Q_star`` and one at or past I ``Q_hat``.  d is the root's band,
    ``BAND_ERRORS * err`` from ``breakpoint_estimate``, where that lies in
    (0, I), and at least the plain bisection's last bracket, ``I * 2**-60``
    plus two ulps of b, all that a pair whose band reaches 0 or I gets."""
    b, q_star = tables.bps, tables.cint[:, Q_STAR]
    k = content_constants(tables.contents, tables.beta)
    counts = np.maximum(k.q_hat - q_star, 0)
    if (np.diff(np.append(tables.cint[:, BP_OFF], b.size)) != counts).any():
        return np.ones(b.size, dtype=bool)
    idx, j = _groups(counts)
    k, q = k.take(idx), q_star[idx] + j
    root, d = breakpoint_estimate(k, q)
    d *= BAND_ERRORS
    d = np.maximum(np.where((root - d > 0.0) & (root + d < k.I), d, 0.0),
                   k.I * 2.0 ** -60 + 2.0 * np.spacing(np.abs(b)))
    bad = ~((b > 0.0) & (b < k.I))
    # an end at or past 0 reads Q_star <= q, one at or past I Q_hat > q
    for sign, miss in ((-1.0, np.greater), (1.0, np.less_equal)):
        end = b + sign * d
        i = (~bad & (end > 0.0) & (end < k.I)).nonzero()[0]
        (_, _, qb, _), uncertified = _case2_from_zero(end[i], k.take(i))
        bad[i] = miss(qb, q[i]) | uncertified
    return bad


def table_window(system: SystemParams) -> Result:
    """The index tables as the commands build them, from the estimates'
    first probes and the breakpoints' roots, against ``reference_tables``,
    the search from candidate 0 with every pick certified: ``w_of_tau``,
    ``tau_star`` and ``Q_star`` bit for bit, and every breakpoint held to
    its definition by ``misplaced_breakpoints``."""
    tables, counts = build_index_tables(system.contents, system.beta)
    tau_star, q_star, w_of_tau, uncertified = reference_tables(system)
    pairs = [(tables.w_of_tau, w_of_tau), (tables.cdbl[:, TAU_STAR], tau_star),
             (tables.cint[:, Q_STAR], q_star)]
    n = sum(x.size if x.shape != y.shape else np.count_nonzero(bits_differ(x, y))
            for x, y in pairs)
    n_bps = np.count_nonzero(misplaced_breakpoints(tables))
    bad = n + uncertified + n_bps
    return Result(bad == 0,
                  f"{n} of {sum(y.size for _, y in pairs)} table values differ from the "
                  f"search from candidate 0, {uncertified} of its picks fail their "
                  f"certificate and {n_bps} of {tables.bps.size} breakpoints miss their band; "
                  f"{counts.searched} points of the cached grid went on to the search, "
                  f"{counts.fallback} breakpoints to the plain bisection", bad)


def dual_bound(system: SystemParams, points: int) -> Result:
    """No dual value on ``points`` values of C_h in [0, max I], nor next to
    C_h*, lies above the bound.  The search relies on the dual being
    concave; a dual that is not would show as a grid point above the
    bound, and a wrong maximizer or bound as a neighbour of C_h* above it."""
    k = content_constants(system.contents, system.beta)
    ch_star, bound = relaxed_lower_bound(system)
    hi = float(k.I.max())
    delta = 1e-9 * hi
    probes = np.array([*np.linspace(0.0, hi, points), max(ch_star - delta, 0.0), ch_star + delta])
    # a few probes per kernel call; a row of theta sums as dual_value's
    # 1-D array does, so each value is dual_value's, bit for bit
    top = -math.inf
    for xs in np.array_split(probes, max(1, probes.size * system.N // 25_000)):
        theta = relaxed_batch(xs[:, None], k).theta
        top = max(top, float((theta.sum(axis=1) - xs * system.M).max()))
    margin = bound - top
    return Result(margin >= -1e-9 * max(1.0, abs(bound)),
                  f"C_h*={ch_star:.6g}, bound - max over {points} grid points and "
                  f"C_h* +- {delta:.2g} = {margin:.2e}", -margin)


def dual_window(system: SystemParams, points: int) -> Result:
    """``relaxed_batch``, which starts case 2's search at the estimate
    (``thresholds.case2``), against ``_case2_from_zero`` on the contents it
    solves, every field bit for bit and every pick of the reference
    certified, at C_h* and at ``points`` values of C_h in [0, max I].
    Where the reference raises ``ConsistencyError``, ``relaxed_batch``
    must raise it too."""
    k = content_constants(system.contents, system.beta)
    ch_star = relaxed_lower_bound(system)[0]
    n, total = 0, 0
    for c in sorted([*np.linspace(0.0, float(k.I.max()), points), ch_star]):
        solved = np.flatnonzero(c < k.I)
        try:
            full, bad = _case2_from_zero(np.full(solved.size, c), k.take(solved))
        except ConsistencyError:
            full = None
        try:
            r = relaxed_batch(c, k)
        except ConsistencyError:
            n += full is not None
            continue
        if full is None:
            n += 1
            continue
        total += len(full) * solved.size
        n += np.count_nonzero(bad)
        n += sum(np.count_nonzero(bits_differ(a[solved], b)) for a, b in zip(r, full))
    return Result(n == 0, f"{n} of {total} values at {points + 1} holding costs differ from "
                  "the search from candidate 0 or fail its certificate", n)


def dual_slope(system: SystemParams, points: int) -> Result:
    """The closed-form occupancy, which the bound's search steers by, is
    the dual's slope plus M: against central differences of the dual next
    to C_h* and at the inner ones of ``points`` values of C_h in
    [0, max I], where the step crosses neither a ``Q_bar`` jump nor an
    ``I_n`` (where theta_n has a kink).  The tolerance is the check's own
    error: the differences at steps h and h/2 are compared with the
    occupancy at h/2, within four times the largest gap between the two,
    which is three times the h/2 difference's error where truncation
    dominates and about its size where rounding does."""
    k = content_constants(system.contents, system.beta)
    ch_star = relaxed_lower_bound(system)[0]
    hi = float(k.I.max())
    step = 1e-6 * hi

    def piece(c: float) -> tuple:
        r = relaxed_batch(c, k)  # past its I_n, a content's occupancy is 0
        return tuple(r.Q_bar.tolist()), tuple((r.occupancy == 0.0).tolist())

    def central(c: float, h: float) -> float:
        return (dual_value(system, c + h, k) - dual_value(system, c - h, k)) / (2 * h)

    errors, gaps, kinked = [], [], 0
    for c in [ch_star * (1.0 - 1e-3), ch_star, ch_star * (1.0 + 1e-3),
              *np.linspace(0.0, hi, points)[1:-1]]:
        if c <= step:
            continue
        if piece(c - step) != piece(c + step):
            kinked += 1
            continue
        fine = central(c, step / 2)
        gaps.append(abs(central(c, step) - fine))
        errors.append(abs(float(relaxed_batch(c, k).occupancy.sum()) - system.M - fine))
    worst, tol = max(errors, default=math.inf), 4.0 * max(gaps, default=0.0)
    return Result(worst <= tol,
                  f"max |occupancy - M - central difference| = {worst:.2e} over {len(errors)} "
                  f"points, {kinked} more skipped at a kink (step {step:.2g}, tolerance "
                  f"{tol:.2e})",
                  worst)


def simulation(cfg: SimConfig, tables) -> Iterator[tuple[str, Result]]:
    """Named results of runs of ``cfg`` on ``tables``: its cost accounts
    and the no-serve-after-wait rule, the reference loop against the
    compiled one for every policy and ageing mode (at most 20k events),
    and last that every run held M contents (a run raises
    ``SimulationError`` when it does not, or its cost accounts disagree).
    Every row is emitted: a run of ``cfg`` that raises fails the first
    two, and a pair where either loop raises differs."""
    errors: list[str] = []
    compiled = _ckernel.event_loop

    def simulate(c: SimConfig, kernel):
        try:
            return _run(c, tables, kernel)
        except SimulationError as e:
            errors.append(f"{c.policy.value}/{c.ageing_mode.value}: {e}")

    m = simulate(cfg, compiled)
    recon, n = (math.inf, math.inf) if m is None else (m.reconciliation, m.serve_after_wait)
    yield "cost-reconciliation", Result(recon <= 1e-9, errors[0] if m is None else f"{recon:.2e}",
                                        recon)
    yield "no-serve-after-wait", Result(n == 0, errors[0] if m is None else f"{n} occurrences", n)
    differ = []
    for policy in PolicyKind:
        for mode in AgeingMode:
            c = replace(cfg, policy=policy, ageing_mode=mode,
                        horizon_events=min(cfg.horizon_events, 20_000))
            reference, run = simulate(c, None), simulate(c, compiled)
            if reference is None or run is None or reference != run:
                differ.append(f"{policy.value}/{mode.value}")
    loop = "compiled" if compiled is not None else "reference"
    yield "simulation-determinism", Result(
        not differ, f"reference vs {loop} loop, {len(PolicyKind) * len(AgeingMode)} policy/mode "
        "pairs" + (f"; differ: {', '.join(differ)}" if differ else ""), len(differ))
    yield "occupancy", Result(not errors, "; ".join(errors), len(errors))


def _verify_checks(system: SystemParams, cfg: SimConfig,
                   quick: bool) -> Iterator[tuple[str, Result]]:
    beta = system.beta
    for i, c in enumerate(system.contents[: 2 if quick else 4]):
        # ages within two cells: the oracle's sit up to 1.12 cells below the
        # closed forms' on configs/desk.json
        yield f"theta-vs-oracle[content {i}]", theta_vs_oracle(c, beta, cells=2)
        yield f"case2-residuals[content {i}]", residuals(c, beta)
        yield f"indexability[content {i}]", indexability(c, beta, 60 if quick else 200, 1.02)
        yield f"threshold-monotonicity[content {i}]", threshold_monotonicity(c, beta, 25, 1 / 50)
        if not quick:
            yield f"whittle-vs-sweep[content {i}]", whittle_vs_sweep(c, beta, 80, 1.0, cells=0)
    yield "special-functions", special_functions(system)
    yield "random-streams", random_streams(cfg.seed)
    yield "table-window", table_window(system)
    yield "dual-window", dual_window(system, 60 if quick else 200)
    yield "dual-bound", dual_bound(system, 60 if quick else 200)
    yield "dual-slope", dual_slope(system, 60 if quick else 200)
    horizon = min(cfg.horizon_events or 200_000, 200_000 if quick else 500_000)
    cfg = replace(cfg, system=system, horizon_events=horizon, horizon_time=None)
    try:
        yield from simulation(cfg, build_policy_tables(system))
    except Exception as e:  # pragma: no cover - battery failure path
        yield "simulation", Result(False, str(e))


def battery(system: SystemParams, cfg: SimConfig,
            quick: bool) -> Iterator[tuple[str, Result, float]]:
    """``verify``'s checks of ``system`` as (name, result, seconds), each
    as soon as it is decided; rows that one computation decides (the runs
    of ``simulation``) carry its seconds on the first.  ``cfg`` gives the
    runs' policy, seed, ageing mode, warmup and (capped) horizon, and
    ``quick`` the smaller sizes."""
    t0 = time.perf_counter()
    for name, result in _verify_checks(system, cfg, quick):
        yield name, result, time.perf_counter() - t0
        t0 = time.perf_counter()
