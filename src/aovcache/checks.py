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
from .thresholds import (ConsistencyError, breakpoint_estimate, case2_batch, case2_residuals,
                         content_constants, relaxed_batch, solve_thresholds,
                         solve_thresholds_batch, zero_holding_thresholds)
from .whittle import (BAND_ERRORS, BP_OFF, Q_STAR, PolicyTables, _groups, build_index_tables,
                      cached_indices, grid_taus, verify_indexability, whittle_cached,
                      whittle_uncached)


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
    k = content_constants((content,), beta)
    ts = zero_holding_thresholds(k)[0]
    tb, tt, qb, _, _ = relaxed_batch(np.linspace(low * ts.I, ts.I, points), k)
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


def misplaced_breakpoints(tables: PolicyTables, reference: PolicyTables) -> np.ndarray:
    """Where the uncached breakpoints of ``tables`` miss their definition,
    given ``reference``, the same system's tables from the plain bisection
    (``window=False``).  A breakpoint b of pair (content, q) holds if it is
    the reference's bit for bit, as a pair whose band was not confirmed
    gets, or if it is the root of a band: with ``d = BAND_ERRORS * err``
    from ``breakpoint_estimate``'s own error bound, the full-width
    ``case2_batch`` reads ``Q_bar(b - d) <= q < Q_bar(b + d)`` inside
    ``(0, I)``, and b lies within ``d + I * 2**-60`` of the reference's
    midpoint, the bisection's own error."""
    ref, b = reference.bps, tables.bps
    if b.shape != ref.shape:
        return np.ones(ref.size, dtype=bool)
    off = reference.cint[:, BP_OFF]
    idx, j = _groups(np.diff(np.append(off, ref.size)))
    k = content_constants(tables.contents, tables.beta).take(idx)
    q = reference.cint[idx, Q_STAR] + j
    d = BAND_ERRORS * breakpoint_estimate(k, q)[1]
    lo, hi = b - d, b + d
    band = (lo > 0.0) & (hi < k.I) & (np.abs(b - ref) <= d + k.I * 2.0 ** -60)
    i = band.nonzero()[0]
    ki = k.take(i)
    band[i] = (case2_batch(lo[i], ki)[2] <= q[i]) & (case2_batch(hi[i], ki)[2] > q[i])
    return ~band & bits_differ(b, ref)


def table_window(system: SystemParams) -> Result:
    """The index tables from windows of queue candidates and the
    breakpoints' roots against the plain bisection and a scan of every
    candidate: ``cdbl``, ``cint`` and ``w_of_tau`` bit for bit, and every
    breakpoint by ``misplaced_breakpoints``."""
    windowed, counts = build_index_tables(system.contents, system.beta)
    full = build_index_tables(system.contents, system.beta, window=False)[0]
    pairs = [(getattr(windowed, f), getattr(full, f)) for f in ("cdbl", "cint", "w_of_tau")]
    n = sum(x.size if x.shape != y.shape else np.count_nonzero(bits_differ(x, y))
            for x, y in pairs)
    n_bps = np.count_nonzero(misplaced_breakpoints(windowed, full))
    return Result(n + n_bps == 0,
                  f"{n} of {sum(y.size for _, y in pairs)} table values differ from the "
                  f"full-width scan and {n_bps} of {full.bps.size} breakpoints miss their band; "
                  f"{counts.full_width} points of the cached grid fell back to the scan, "
                  f"{counts.fallback} breakpoints to the plain bisection", n + n_bps)


def dual_bound(system: SystemParams, points: int) -> Result:
    """No dual value on ``points`` values of C_h in [0, max I], nor next to
    C_h*, lies above the bound.  The search relies on the dual being
    concave; a dual that is not would show as a grid point above the
    bound, and a wrong maximizer or bound as a neighbour of C_h* above it."""
    k = content_constants(system.contents, system.beta)
    ch_star, bound = relaxed_lower_bound(system)
    hi = float(k.I.max())
    delta = 1e-9 * hi
    probes = [*np.linspace(0.0, hi, points), max(ch_star - delta, 0.0), ch_star + delta]
    margin = bound - max(dual_value(system, float(x), k) for x in probes)
    return Result(margin >= -1e-9 * max(1.0, abs(bound)),
                  f"C_h*={ch_star:.6g}, bound - max over {points} grid points and "
                  f"C_h* +- {delta:.2g} = {margin:.2e}", -margin)


def dual_window(system: SystemParams, points: int) -> Result:
    """``relaxed_batch``, which reads case 2 off pairs of candidates
    (``thresholds.case2``), against the full scan, ``case2_batch`` on the
    contents it solves, every field bit for bit, at C_h* and at
    ``points`` values of C_h in [0, max I].  Where the full scan raises
    ``ConsistencyError``, ``relaxed_batch`` must raise it too."""
    k = content_constants(system.contents, system.beta)
    ch_star = relaxed_lower_bound(system)[0]
    n, total = 0, 0
    for c in sorted([*np.linspace(0.0, float(k.I.max()), points), ch_star]):
        solved = np.flatnonzero(c < k.I)
        try:
            full = case2_batch(c, k.take(solved))
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
        n += sum(np.count_nonzero(bits_differ(a[solved], b)) for a, b in zip(r, full))
    return Result(n == 0, f"{n} of {total} values at {points + 1} holding costs differ from "
                  "the full-width scan", n)


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
    ``SimulationError`` when it does not, or its cost accounts disagree)."""
    errors: list[str] = []
    compiled = _ckernel.event_loop

    def simulate(c: SimConfig, kernel):
        try:
            return _run(c, tables, kernel)
        except SimulationError as e:
            errors.append(f"{c.policy.value}/{c.ageing_mode.value}: {e}")

    m = simulate(cfg, compiled)
    if m is not None:
        yield "cost-reconciliation", Result(m.reconciliation <= 1e-9, f"{m.reconciliation:.2e}",
                                            m.reconciliation)
        n = m.serve_after_wait
        yield "no-serve-after-wait", Result(n == 0, f"{n} occurrences", n)
    differ = []
    for policy in PolicyKind:
        for mode in AgeingMode:
            c = replace(cfg, policy=policy, ageing_mode=mode,
                        horizon_events=min(cfg.horizon_events, 20_000))
            if simulate(c, None) != simulate(c, compiled):
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
