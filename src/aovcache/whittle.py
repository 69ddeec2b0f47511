"""Whittle indices for the two state families the caching policy needs.

The index of a state is the smallest holding cost that makes leaving
the content out of the cache optimal.

* cached idle copy ``(Q, tau, 1, 0)``: zero once ``Q > 0`` or
  ``tau >= tau_star``; otherwise the ``C_h`` at which the serve
  threshold ``tau_bar(C_h)`` (strictly decreasing) has dropped to
  ``tau``.  This has a closed form.  Fixing ``tau_bar = tau`` in the
  threshold system and substituting ``C_h = p*c_a*lam*(x + e^-x - 1)``
  cancels the ``x*tau`` terms and leaves ``B*x + A = C*e^-x`` for each
  queue candidate Q, with

      B = (Q+1)*c_a*lam/beta,   C = p*c_a*lam*tau,
      A = beta*p*c_a*lam*tau^2/2 + p*c_a*lam*tau + (Q+1)*c_a*lam*tau
          - c_f - c_w*Q*(Q+1)/(2*p*beta),

  whose root is ``x = omega(A/B + ln(C/B)) - A/B`` with the Wright omega
  function (Lawrence, Corless & Jeffrey 2012, "Algorithm 917: Complex
  double precision evaluation of the Wright omega function").  The
  floor-consistent candidate is kept, as in ``thresholds.case2_batch``.
* uncached requested ``(Q, 0, 1)``: zero below ``Q_star``, the index
  ceiling ``I`` from ``Q_hat`` up; in between, the ``C_h`` at which the
  fetch threshold ``Q_bar(C_h)`` (nondecreasing) first exceeds ``Q``.
  That jump has no closed form; a 60-step bisection on
  ``case2_batch``, batched over every (content, Q) pair at once, finds
  it.

The closed three-equation system is kept as a residual check
(``index_residual_*``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._ckernel import wright_omega
from .model import ContentParams, SingleContentState
from .thresholds import (
    ConsistencyError,
    ThresholdSet,
    case2_batch,
    compute_I,
    content_constants,
    first_consistent,
    gap_value,
    solve_case2,
    solve_thresholds,
)

__all__ = [
    "whittle_cached",
    "whittle_uncached",
    "uncached_breakpoints",
    "passive_set_member",
    "verify_indexability",
    "default_state_grid",
    "ContentTables",
    "build_content_tables",
    "grid_taus",
    "cached_indices",
    "index_residual_cached",
    "index_residual_uncached",
]

BISECT_ITERS = 60  # absolute error below I * 2**-60
GRID_SIZE = 1024   # cells of each content's cached-index table


def whittle_cached(params: ContentParams, beta: float, Q: int, tau: float) -> float:
    """Index of a cached, not-currently-requested copy in state (Q, tau, 1, 0)."""
    ts = solve_thresholds(params, beta, 0.0)
    if Q > 0 or tau >= ts.tau_star:
        return 0.0
    if tau <= 0.0:
        return ts.I
    return float(cached_indices(params, beta, ts, np.array([tau]))[0])


def grid_taus(tau_star: float) -> np.ndarray:
    """The interior grid points ``i * tau_star / GRID_SIZE``, ``0 < i <
    GRID_SIZE``, of a content's cached-index table."""
    return np.arange(1, GRID_SIZE) * (tau_star / GRID_SIZE)


def cached_indices(params: ContentParams, beta: float, ts: ThresholdSet,
                   taus: np.ndarray, omega=wright_omega) -> np.ndarray:
    """W(0, tau) at each ``0 < tau < tau_star``, by the Wright-omega form;
    ``omega`` evaluates Wright omega elementwise (``aovcache verify``
    passes one that records its arguments)."""
    cm = params.costs
    cal = cm.c_a * params.lam
    k = params.p * cal
    q = np.arange(ts.Q_hat + 3.0)
    tau = np.asarray(taus, dtype=float)[:, None]
    b = (q + 1.0) * cal / beta
    a = (beta * k * tau * tau / 2.0 + k * tau + (q + 1.0) * cal * tau
         - cm.c_f - cm.c_w * q * (q + 1.0) / (2.0 * params.p * beta)) / b
    x = omega(a + np.log(k * tau / b)) - a
    v = params.p * beta * cal * (tau + np.maximum(x, 0.0) / beta) / cm.c_w
    col, found = first_consistent(v, q, x > -1e-9)
    if not found.all():
        raise ConsistencyError(
            f"no floor-consistent Q_bar at tau={taus[~found]} "
            f"(params={params}, beta={beta})")
    x = np.maximum(np.take_along_axis(x, col[:, None], -1)[:, 0], 0.0)
    return np.minimum(k * gap_value(x), ts.I)


def whittle_uncached(params: ContentParams, beta: float, Q: int) -> float:
    """Index of an uncached content requested with Q pending, state (Q, 0, 1)."""
    ts = solve_thresholds(params, beta, 0.0)
    if Q < ts.Q_star:
        return 0.0
    if Q >= ts.Q_hat:
        return ts.I
    return uncached_breakpoints((params,), beta)[0][Q - ts.Q_star]


def uncached_breakpoints(contents: Sequence[ContentParams],
                         beta: float) -> list[tuple[float, ...]]:
    """Per content, the indices of uncached states ``Q_star..Q_hat-1``: for
    each such Q the smallest C_h at which Q_bar exceeds Q, from one
    bisection run on every (content, Q) pair at once."""
    k = content_constants(contents, beta)
    q_star = case2_batch(0.0, k)[2]  # Q_bar at C_h = 0
    pairs = [(i, q) for i in range(len(contents)) for q in range(q_star[i], k.q_hat[i])]
    idx, q = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    kp = k.take(idx)
    lo, hi = np.zeros(len(q)), kp.I.copy()  # Q_bar(0) = Q_star <= q < Q_hat = Q_bar(I)
    for _ in range(BISECT_ITERS if len(q) else 0):
        mid = 0.5 * (lo + hi)
        above = case2_batch(mid, kp)[2] > q
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    w = 0.5 * (lo + hi)
    return [tuple(w[idx == i].tolist()) for i in range(len(contents))]


def index_residual_cached(params: ContentParams, beta: float, tau: float, W: float) -> float:
    """Residual of the closed three-equation system at (tau, C_h=W).

    Solves the exponential-gap equation at W, plugs ``tau_bar := tau``
    into the quadratic-in-tau_bar form, and returns how far the implied
    tau_bar is from the queried tau.  Zero (to solver tolerance) iff W
    really is the holding cost whose serve threshold passes through tau.
    """
    tb, _, _, _ = solve_case2(W, params, beta)
    return abs(tb - tau)


def index_residual_uncached(params: ContentParams, beta: float, Q: int, W: float) -> float:
    """Floor-boundary residual of the closed system with Q_bar := Q at C_h=W.

    At the transition cost the fetch threshold moves past Q, i.e.
    ``p*beta*c_a*lam*tau_tilde(W) / c_w`` sits on the integer boundary
    Q+1; returns the distance from that boundary.
    """
    cm = params.costs
    _, tt, _, _ = solve_case2(W, params, beta)
    return abs(params.p * beta * cm.c_a * params.lam * tt / cm.c_w - (Q + 1))


# -- passive sets and indexability -----------------------------------------


def _classify_passive(ts: ThresholdSet, C_h: float, s: SingleContentState) -> bool:
    """Whether the optimal action at s leaves the content out of the cache.

    Follows the optimal-policy table for the given C_h regime plus the
    domain extension to (Q>0, tau, 1, b) states; "passive" counts every
    action that ends the epoch with the content uncached, including
    serve-and-evict.  Uncached idle states (Q, 0, 0) take no action and
    are trivially passive.
    """
    if not s.cached or s.Q > 0:
        if not s.requested:
            return True  # uncached idle, or extended (Q>0, tau, 1, 0): wait/evict
        # (Q, 0, 1) directly, or extended (Q>0, tau, 1, 1) which maps onto it
        if C_h == 0.0:
            return s.Q < ts.Q_star
        return s.Q < ts.Q_bar
    if s.requested:  # (0, tau, 1, 1)
        if C_h == 0.0:
            return s.tau > ts.tau_star and ts.Q_star > 0
        if s.tau <= ts.tau_bar:
            return False  # serve and keep
        if s.tau <= ts.tau_tilde:
            return True   # serve and evict
        return ts.Q_bar > 0  # wait-evict if waiting pays, else fetch and cache
    # (0, tau, 1, 0)
    if C_h == 0.0:
        return False  # keeping a free copy is always optimal
    return s.tau >= ts.tau_bar


def passive_set_member(params: ContentParams, beta: float, C_h: float,
                       state: SingleContentState) -> bool:
    """Membership of ``state`` in the passive set at holding cost C_h."""
    if C_h < 0:
        raise ValueError("C_h must be >= 0")
    I = compute_I(params, beta)
    if C_h > I:
        return True  # never caching is optimal; every state is passive
    ts = solve_thresholds(params, beta, C_h)
    return _classify_passive(ts, C_h, state)


def default_state_grid(params: ContentParams, beta: float,
                       n_tau: int = 12) -> list[SingleContentState]:
    """A grid spanning all four state families around the thresholds."""
    ts = solve_thresholds(params, beta, 0.0)
    taus = np.linspace(0.0, 1.3 * ts.tau_star, n_tau)
    states = []
    for tau in taus:
        states.append(SingleContentState(0, float(tau), True, False))
        states.append(SingleContentState(0, float(tau), True, True))
        states.append(SingleContentState(2, float(tau), True, False))
        states.append(SingleContentState(1, float(tau), True, True))
    for q in range(ts.Q_hat + 3):
        states.append(SingleContentState(q, 0.0, False, True))
        states.append(SingleContentState(q, 0.0, False, False))
    return states


def verify_indexability(
    params: ContentParams, beta: float,
    C_h_grid: np.ndarray | None = None,
    state_grid: list[SingleContentState] | None = None,
) -> list[tuple[SingleContentState, float]]:
    """Check that passive sets only grow with C_h.

    Returns one (state, C_h) entry per point where a state left the
    passive set as C_h increased; an indexable content yields [].
    """
    I = compute_I(params, beta)
    if C_h_grid is None:
        C_h_grid = np.linspace(0.0, 1.05 * I, 200)
    C_h_grid = np.sort(np.asarray(C_h_grid, dtype=float))
    if state_grid is None:
        state_grid = default_state_grid(params, beta)
    tables = [
        None if ch > I else solve_thresholds(params, beta, float(ch))
        for ch in C_h_grid
    ]
    violations = []
    for s in state_grid:
        seen_passive = False
        for ch, ts in zip(C_h_grid, tables):
            member = True if ts is None else _classify_passive(ts, float(ch), s)
            if member:
                seen_passive = True
            elif seen_passive:
                violations.append((s, float(ch)))
        # no need to scan past I: membership is constant True there
    return violations


# -- precomputed per-content tables for the simulation loop ----------------


@dataclass(frozen=True)
class ContentTables:
    """Monotone index tables for one content, built once per run.

    ``breakpoints[k]`` is the index of uncached state (Q_star + k, 0, 1).
    ``w_of_tau[i]`` is the exact cached-copy index W(0, tau_i) at the
    grid point ``tau_i = i * tau_star / GRID_SIZE``, for
    ``i < GRID_SIZE``; the trailing cell is the 0 sentinel for
    ``tau >= tau_star``.  Lookup is interpolation-free integer indexing:
    ``cached_idle`` returns W(tau_i) for tau in [tau_i, tau_{i+1}), so it
    never understates W(tau) and overstates it by at most
    W(tau_i) - W(tau_{i+1}) (W is nonincreasing in tau).
    """

    tau_star: float
    q_star: int
    q_hat: int
    ceiling: float               # the index upper bound I
    breakpoints: tuple[float, ...]
    w_of_tau: np.ndarray         # length GRID_SIZE + 1, read-only
    inv_step: float              # GRID_SIZE / tau_star

    def uncached(self, Q: int) -> float:
        if Q < self.q_star:
            return 0.0
        if Q >= self.q_hat:
            return self.ceiling
        return self.breakpoints[Q - self.q_star]

    def cached_idle(self, Q: int, tau: float) -> float:
        if Q > 0 or tau >= self.tau_star:
            return 0.0
        i = int(tau * self.inv_step)
        return float(self.w_of_tau[min(i, len(self.w_of_tau) - 1)])


def build_content_tables(params: ContentParams, beta: float, indices: bool = True,
                         breakpoints: tuple[float, ...] | None = None,
                         ts: ThresholdSet | None = None) -> ContentTables:
    """Tables for one content; with ``indices=False`` only the thresholds
    (tau_star, Q_star, Q_hat, I) are populated, for policies that never
    evaluate an index.  ``breakpoints`` takes this content's entry of
    ``uncached_breakpoints`` and ``ts`` its ``C_h = 0`` thresholds when a
    caller has batched them."""
    if ts is None:
        ts = solve_thresholds(params, beta, 0.0)
    if indices:
        if breakpoints is None:
            breakpoints = uncached_breakpoints((params,), beta)[0]
        w = np.concatenate(([ts.I], cached_indices(params, beta, ts, grid_taus(ts.tau_star)),
                            [0.0]))
    else:
        breakpoints, w = (), np.array([ts.I, 0.0])
    w.setflags(write=False)
    return ContentTables(
        tau_star=ts.tau_star, q_star=ts.Q_star, q_hat=ts.Q_hat, ceiling=ts.I,
        breakpoints=breakpoints, w_of_tau=w, inv_step=(len(w) - 1) / ts.tau_star,
    )
