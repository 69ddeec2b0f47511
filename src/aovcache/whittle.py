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
  floor-consistent candidate is kept by ``thresholds.search_candidates``,
  the one bracketed search, which case 2's quadratic shares.
* uncached requested ``(Q, 0, 1)``: zero below ``Q_star``, the index
  ceiling ``I`` from ``Q_hat`` up; in between, the ``C_h`` at which the
  fetch threshold ``Q_bar(C_h)`` (nondecreasing) first exceeds ``Q``.
  That jump is where case 2's floor test moves, and it also has a
  closed form: the root of ``thresholds.breakpoint_estimate``, found by
  Newton's method with a bound on its error.  The index is that root
  wherever two ``case2`` rounds confirm the band of ``BAND_ERRORS``
  error bounds either side of it; a pair whose band is not confirmed
  takes the midpoint that a 60-step bisection of ``[0, I]`` leaves
  (``_bisect``).  Every (content, Q) pair is solved in one batch, each
  by itself: a content's tables, which ``whittle_uncached`` reads, are
  the same, bit for bit, built alone or in its system.

The cached grid evaluates only the queue candidate at the ``Q_bar``
that the breakpoints predict, and the guard below it only next to the
lower edge of the candidate's cell (``cached_index_rows`` proves the
pair exact).  That pair is the first probe of the search, which goes on
from it at the grid points it does not decide, so the rows are the same
whatever the predictions.

``aovcache verify`` checks both on the user's config, the grid against
the same search from candidate 0 with each pick certified and each
breakpoint against its definition (``checks.table_window``), and
``BuildCounts`` reports how often each fell back.

The closed three-equation system is kept as a residual check
(``index_residual_*``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._ckernel import wright_omega
from .model import ContentParams, SingleContentState
from .thresholds import (
    ConsistencyError,
    ContentConstants,
    ThresholdSet,
    breakpoint_estimate,
    case2,
    case2_candidates,
    content_constants,
    gap_value,
    search_candidates,
    solve_thresholds,
    solve_thresholds_batch,
)

__all__ = [
    "whittle_cached",
    "whittle_uncached",
    "passive_set_member",
    "verify_indexability",
    "default_state_grid",
    "ContentTables",
    "PolicyTables",
    "BuildCounts",
    "build_content_tables",
    "build_index_tables",
    "cached_index_rows",
    "grid_taus",
    "cached_indices",
    "index_residual_cached",
    "index_residual_uncached",
]

BISECT_ITERS = 60  # absolute error below I * 2**-60
BAND_ERRORS = 64.0  # half-width of a breakpoint's band, in root error bounds
GRID_SIZE = 1024   # cells of each content's cached-index table
CHUNK_CONTENTS = 8  # contents per batch of the cached-index build


def whittle_cached(params: ContentParams, beta: float, Q: int, tau: float) -> float:
    """Index of a cached, not-currently-requested copy in state (Q, tau, 1, 0)."""
    if Q > 0:
        return 0.0
    k = content_constants((params,), beta)
    return float(cached_indices(k, case2(np.zeros(1), k)[0][0], np.array([tau]))[0])


def grid_taus(tau_star) -> np.ndarray:
    """The interior grid points ``i * tau_star / GRID_SIZE``, ``0 < i <
    GRID_SIZE``, of a content's cached-index table, a row each for a column."""
    return np.arange(1, GRID_SIZE) * (tau_star / GRID_SIZE)


def _omega_candidates(p, cal, c_f, c_w, beta: float, tau, q, omega):
    """``(x, v, ok)`` of queue candidates ``q`` at serve threshold ``tau``:
    the Wright-omega root x of ``B*x + A = C*e^-x`` (module docstring),
    the floor argument v and admissibility; all arguments broadcast."""
    k = p * cal
    b = (q + 1.0) * cal / beta
    a = (beta * k * tau * tau / 2.0 + k * tau + (q + 1.0) * cal * tau
         - c_f - c_w * q * (q + 1.0) / (2.0 * p * beta)) / b
    with np.errstate(divide="ignore"):  # log(0) = -inf where k*tau underflows
        x = omega(a + np.log(k * tau / b)) - a
    v = p * beta * cal * (tau + np.maximum(x, 0.0) / beta) / c_w
    return x, v, x > -1e-9


def _omega_rows(k: ContentConstants, tau: np.ndarray, omega):
    """``thresholds.search_candidates``' evaluator of the Wright-omega form
    of content i of ``k`` at serve threshold ``tau[i]``."""
    return lambda rows, q: _omega_candidates(k.p[rows], k.c_alam[rows], k.c_f[rows], k.c_w[rows],
                                             k.beta, tau[rows], q, omega)


def _omega_gaps(k: ContentConstants, tau: np.ndarray, omega, *first) -> np.ndarray:
    """The gap x of the cached index of content i of ``k`` at serve
    threshold ``tau[i]``, by the search from the first probe ``first``
    (``q, at``) where given, else from candidate 0."""
    _, dist, (x,) = search_candidates(_omega_rows(k, tau, omega), k.top, *first)
    if not (found := np.isfinite(dist)).all():
        raise ConsistencyError(f"no floor-consistent Q_bar at tau={tau[~found]} "
                               f"(p={k.p[~found]}, beta={k.beta})")
    return x


def cached_indices(k: ContentConstants, tau_star: float, taus: np.ndarray,
                   omega=wright_omega) -> np.ndarray:
    """W(0, tau) at each tau of ``taus`` for the one content of ``k``, whose
    ``C_h = 0`` serve threshold is ``tau_star``: the ceiling I at
    ``tau <= 0``, 0 from ``tau_star`` on, and in between the Wright-omega
    form, by the search from candidate 0; ``omega`` evaluates Wright
    omega elementwise, and sees only the taus in between (``aovcache
    verify`` passes one that records its arguments).
    ``cached_index_rows`` fills whole tables."""
    taus = np.asarray(taus, dtype=float)
    I = float(k.I[0])
    w = np.where(taus <= 0.0, I, 0.0)
    inner = (taus > 0.0) & (taus < tau_star)
    if inner.any():
        x = _omega_gaps(k.take(np.zeros(np.count_nonzero(inner), np.intp)), taus[inner], omega)
        w[inner] = np.minimum(k.p[0] * k.c_alam[0] * gap_value(np.maximum(x, 0.0)), I)
    return w


def cached_index_rows(k: ContentConstants, tau_star: np.ndarray, q_star: np.ndarray,
                      bps: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """``PolicyTables.w_of_tau``, one row per content of ``k``:
    ``cached_indices`` at every ``grid_taus`` point, between the ceiling I
    and the 0 sentinel, given the contents' ``C_h = 0`` thresholds
    ``tau_star`` and ``q_star`` and their uncached breakpoints (``bps``,
    flat, ``counts[i]`` of them for content i); and how many grid points
    the first probe left to the search and how many evaluated their guard.

    At tau the index W is the C_h whose serve threshold is tau, and
    ``Q_bar`` there is ``c = Q_star + #{j : tau < tau_bar(b_j)}`` over the
    breakpoints b_j (``Q_bar`` steps up at each b_j while ``tau_bar``
    falls).  Only candidate c is evaluated where it hits its cell away
    from the lower edge, and the guard c-1 with it at the edge or where
    c lies below its cell; the other points go on to
    ``thresholds.search_candidates`` from that pair, so a wrong
    prediction costs time, never a value.

    The pair is exact because the Wright-omega form has the structure
    of ``thresholds.case2``: with ``L_Q(x) = B_Q*x + A_Q - C*e^-x``,
    strictly increasing in x, ``L_{Q+1}(x) = L_Q(x) + (c_w/(p*beta))*(v(x)
    - (Q+1))`` where ``v(x) = p*beta*c_a*lam*(tau + x/beta)/c_w``.  Moving
    x by ``a/p`` (``a = c_w/(c_a*lam)``) moves v by 1, and
    ``L_{Q+1}(x_Q + a/p) > (c_w/(p*beta))*v_Q > 0`` for an admissible
    root, so ``v_{Q+1} < v_Q + 1``: the excess ``v_Q - Q`` is strictly
    decreasing.  Where Q+1 is admissible too its step is at least
    ``v_Q/(Q + 2 + p*beta*tau)``; next to a cell (``v_Q`` near Q, Q >= 1)
    that is about ``1/(2 + p*beta*tau)``, far above the near tolerance.
    And as in ``case2``, ``L_{Q+1} = L_Q`` where ``v = Q+1``, so
    candidate Q lies above its cell exactly when Q+1 lies at or above
    its own, and the roots are admissible (``x >= 0``) where ``L_Q(0) <=
    0``, whose steps ``L_{Q+1}(0) - L_Q(0) = (c_w/(p*beta))*(v(0) -
    (Q+1))`` fall with Q: the inadmissible candidates form one run, with
    the candidates before it above their cells, so P holds on a prefix
    of the candidates as it does for case 2.

    The guard is needed only at the edge: a hit ``v_c >= c`` gives
    ``L_{c-1}(x_c) = -(c_w/(p*beta))*(v_c - c) <= 0``, so ``x_{c-1} >=
    x_c`` and ``v_{c-1} >= v_c >= c``, the guard's condition, in exact
    arithmetic.  Computed, both floor arguments are off by the rounding
    of x's terms (``A/B`` cancels): relative to v, and absolutely about
    ``eps*p*beta*c_f/(c_w*(c+1))``.  So a hit more than ``1e-6*(c + 1 +
    p*beta*tau) + 1e-12*p*beta*c_f/c_w`` above its edge, thousands of
    times that rounding, is decided alone; each row uses its largest
    margin, which only evaluates a few more guards.

    Contents go ``CHUNK_CONTENTS`` at a time, and each chunk's predictions
    come from one ``bincount`` of its breakpoints' grid positions.  With
    one candidate per grid point a chunk holds as many elements as one of
    four contents did with the pair, so the build's peak memory stays
    where it was; and the temporaries of a
    chunk stay in cache: on a 2-core host, chunks of all 100 contents of
    desk.json, each temporary 800 kB, built its grid in 1.6 times the
    time of chunks of 8.
    """
    n = len(tau_star)
    w = np.empty((n, GRID_SIZE + 1))
    w[:, 0], w[:, -1] = k.I, 0.0
    # tau_bar at breakpoint b_j from candidate Q_star + j + 1, the Q_bar
    # just past the jump, in grid steps: grid point m lies below it for
    # m < t_j, so for m <= below_j; a prediction only, so neither needs
    # to be exact, nor finite
    idx, j = _groups(counts)
    tbar = case2_candidates(bps, k.take(idx), (q_star[idx] + j + 1.0)[:, None])[0][:, 0]
    t = np.nan_to_num(tbar * (GRID_SIZE / tau_star[idx]))
    below = np.clip(np.ceil(t) - 1.0, 0, GRID_SIZE - 1).astype(np.intp)
    ends = np.cumsum(counts)
    top = (q_star + counts).astype(float)
    searched = guards = 0
    for lo in range(0, n, CHUNK_CONTENTS):
        ids = slice(lo, min(lo + CHUNK_CONTENTS, n))
        size = ids.stop - lo
        tau = grid_taus(tau_star[ids, None])
        # c at point m: Q_star and the breakpoints with below_j >= m,
        # which are all the content's but those with below_j < m
        js = slice(ends[lo] - counts[lo], ends[ids.stop - 1])
        c = top[ids, None] - np.bincount(
            (idx[js] - lo) * GRID_SIZE + below[js], minlength=size * GRID_SIZE
        ).reshape(size, GRID_SIZE)[:, :-1].cumsum(1, dtype=float)
        kc = ContentConstants(k.beta, k.rows[:, ids], k.q_hat[ids])
        x, (n_searched, n_guard) = _cached_gaps(kc, tau, c)
        searched += n_searched
        guards += n_guard
        np.minimum(kc.pc[:, None] * gap_value(np.maximum(x, 0.0)), kc.I[:, None],
                   out=w[ids, 1:-1])
    return w, (searched, guards)


def _cached_gaps(k: ContentConstants, tau: np.ndarray,
                 c: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """The gap x of the cached index at each serve threshold ``tau[i]`` of
    content i of ``k``, by the search from the predicted ``Q_bar`` ``c``
    (nonincreasing along each row) and, where its edge margin asks for
    it, its guard (see ``cached_index_rows``); and how many taus that
    first probe left to the search, and how many evaluated their guard."""
    rows = tuple(a[:, None] for a in (k.p, k.c_alam, k.c_f, k.c_w))
    x, v, ok = _omega_candidates(*rows, k.beta, tau, c, wright_omega)
    # the margin, at its largest along each row: 1e-6 of v's size and
    # 1e-12 of p*beta*c_f/c_w, which bounds the rounding of x's terms in v
    margin = 1e-6 * (c[:, 0] + 1.0 + k.r * tau[:, -1]) + 1e-12 * k.r_cw * k.c_f
    f = v - c
    # a hit that far above its cell's lower edge has its guard above its
    # own, as has a hit at 0: the probe decides it alone
    rest = ~(ok & (f >= 0.0) & (f < 1.0) & ((c == 0.0) | (f >= margin[:, None])))
    rest = rest.ravel().nonzero()[0]
    if not rest.size:
        return x, (0, 0)
    kr = k.take(rest // c.shape[1])
    tau, c, xr, v, ok = (a.ravel()[rest] for a in (tau, c, x, v, ok))
    above = ~ok | (v >= c + 1.0)  # P at c
    guard = (~above & (c > 0.0)).nonzero()[0]
    # the guard's arrays where it is evaluated; elsewhere it reads as
    # inadmissible, which holds P, as the guard of a candidate above its
    # cell, or of candidate 0, does
    at = [np.zeros(c.size), np.zeros(c.size), np.zeros(c.size, dtype=bool)]
    if guard.size:
        for a, b in zip(at, _omega_rows(kr, tau, wright_omega)(guard, c[guard][None] - 1.0)):
            a[guard] = b[0]
    np.put(x, rest, _omega_gaps(kr, tau, wright_omega, (c - 1.0, c), list(zip(at, (xr, v, ok)))))
    holds = ~at[2] | (at[1] >= c)  # P at the guard
    return x, (int(np.count_nonzero(~holds | above)), guard.size)


def whittle_uncached(params: ContentParams, beta: float, Q: int) -> float:
    """Index of an uncached content requested with Q pending, state (Q, 0, 1):
    the one its tables hold, which the policy reads."""
    return build_content_tables(params, beta).uncached(Q)


def _bisect(k: ContentConstants, q: np.ndarray) -> tuple[np.ndarray, int]:
    """The smallest C_h at which ``Q_bar`` exceeds q, per (content of k,
    q) pair with ``Q_star <= q < Q_hat``, and how many pairs ran the plain
    bisection.

    The breakpoint is the root of ``thresholds.breakpoint_estimate``
    wherever two ``case2`` rounds confirm the band ``root +- d``, ``d =
    BAND_ERRORS * err`` with the root's error bound err, inside ``(0,
    I)``: ``Q_bar(root - d) <= q < Q_bar(root + d)``.  As ``Q_bar`` is
    nondecreasing in C_h, the jump that case 2 reads then lies within d of
    the root.  A pair whose band is not confirmed takes the midpoint of
    the bracket that ``BISECT_ITERS`` halvings of ``[0, I]`` leave, asking
    ``case2`` for ``Q_bar``.  ``checks.misplaced_breakpoints`` holds every
    breakpoint to the same definition: within its band, or within that
    last bracket, of the jump that the search from candidate 0 reads.
    Each pair's breakpoint is the one it gets alone, except where a band
    check raises ``ConsistencyError``: then every pair takes the plain
    bisection."""
    b, plain = np.empty(len(q)), np.ones(len(q), dtype=bool)
    if len(q):
        root, err = breakpoint_estimate(k, q)
        d = BAND_ERRORS * err
        lo, hi = root - d, root + d
        i = ((lo > 0.0) & (hi < k.I)).nonzero()[0]
        try:
            ki = k.take(i)
            ok = i[(case2(lo[i], ki)[2] <= q[i]) & (case2(hi[i], ki)[2] > q[i])]
            b[ok], plain[ok] = root[ok], False
        except ConsistencyError:
            pass  # every pair runs the plain bisection, which raises where it must
    j = plain.nonzero()[0]
    k, q = k.take(j), q[j]
    lo, hi = np.zeros(j.size), k.I.copy()  # Q_bar(0) = Q_star <= q < Q_hat = Q_bar(I)
    for _ in range(BISECT_ITERS if j.size else 0):
        mid = 0.5 * (lo + hi)
        above = case2(mid, k)[2] > q
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    b[j] = 0.5 * (lo + hi)
    return b, j.size


def _breakpoints(k: ContentConstants, q_star: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The indices of the uncached states ``Q_star..Q_hat-1`` of the
    contents of ``k``, given their ``Q_star``: for each such Q the smallest
    C_h at which ``Q_bar`` exceeds Q, from one ``_bisect`` of every
    (content, Q) pair at once; flat, in content order, with how many each
    content has, and how many pairs ran the plain bisection."""
    counts = np.maximum(k.q_hat - q_star, 0)
    idx, j = _groups(counts)
    bps, fallback = _bisect(k.take(idx), q_star[idx] + j)
    return bps, counts, fallback


def _groups(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[i]`` consecutive items per group i: each item's group
    and its rank within the group."""
    idx = np.repeat(np.arange(len(counts)), counts)
    return idx, np.arange(len(idx)) - np.repeat(np.cumsum(counts) - counts, counts)


def index_residual_cached(params: ContentParams, beta: float, tau: float, W: float) -> float:
    """Residual of the closed three-equation system at (tau, C_h=W).

    Solves the exponential-gap equation at W, plugs ``tau_bar := tau``
    into the quadratic-in-tau_bar form, and returns how far the implied
    tau_bar is from the queried tau.  Zero (to solver tolerance) iff W
    really is the holding cost whose serve threshold passes through tau.
    """
    return abs(solve_thresholds(params, beta, W).tau_bar - tau)


def index_residual_uncached(params: ContentParams, beta: float, Q: int, W: float) -> float:
    """Floor-boundary residual of the closed system with Q_bar := Q at C_h=W.

    At the transition cost the fetch threshold moves past Q, i.e.
    ``p*beta*c_a*lam*tau_tilde(W) / c_w`` sits on the integer boundary
    Q+1; returns the distance from that boundary.
    """
    cm = params.costs
    tt = solve_thresholds(params, beta, W).tau_tilde
    return abs(params.p * beta * cm.c_a * params.lam * tt / cm.c_w - (Q + 1))


# -- passive sets and indexability -----------------------------------------


def _classify_passive(ts: ThresholdSet, s: SingleContentState) -> bool:
    """Whether the optimal action at s leaves the content out of the cache.

    Follows the optimal-policy table for the regime of ``ts.C_h`` plus
    the domain extension to (Q>0, tau, 1, b) states; "passive" counts
    every action that ends the epoch with the content uncached, including
    serve-and-evict.  Uncached idle states (Q, 0, 0) take no action and
    are trivially passive, and above ``I`` never caching is optimal, so
    every state is.
    """
    if ts.C_h > ts.I:
        return True
    if not s.cached or s.Q > 0:
        if not s.requested:
            return True  # uncached idle, or extended (Q>0, tau, 1, 0): wait/evict
        # (Q, 0, 1) directly, or extended (Q>0, tau, 1, 1) which maps onto it
        return s.Q < ts.Q_bar
    if s.requested:  # (0, tau, 1, 1)
        if s.tau <= ts.tau_bar:
            return False  # serve and keep
        if s.tau <= ts.tau_tilde:
            return True   # serve and evict
        return ts.Q_bar > 0  # wait-evict if waiting pays, else fetch and cache
    # (0, tau, 1, 0)
    if ts.C_h == 0.0:
        return False  # keeping a free copy is always optimal
    return s.tau >= ts.tau_bar


def passive_set_member(params: ContentParams, beta: float, C_h: float,
                       state: SingleContentState) -> bool:
    """Membership of ``state`` in the passive set at holding cost C_h."""
    return _classify_passive(solve_thresholds(params, beta, C_h), state)


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
    if C_h_grid is None:
        C_h_grid = np.linspace(0.0, 1.05 * solve_thresholds(params, beta).I, 200)
    if state_grid is None:
        state_grid = default_state_grid(params, beta)
    tables = solve_thresholds_batch(params, beta, np.sort(np.asarray(C_h_grid, dtype=float)))
    violations = []
    for s in state_grid:
        seen_passive = False
        for ts in tables:
            if _classify_passive(ts, s):
                seen_passive = True
            elif seen_passive:
                violations.append((s, ts.C_h))
    return violations


# -- the tables of the index policy ----------------------------------------

# columns of PolicyTables.cdbl and .cint, in the order of _loop.c's enums
TAU_STAR, CEILING, INV_STEP, C_ALAM, C_F, C_W, P, P_CF, LAM, C_A = range(10)
Q_STAR, Q_HAT, BP_OFF = range(3)


@dataclass(frozen=True)
class ContentTables:
    """One content's row of a ``PolicyTables``, as Python values: what the
    reference event loop and the decision rules of ``policies`` read.  The
    fields are the columns of ``cdbl`` and the first two of ``cint``, in
    order, then the content's breakpoints and its row of ``w_of_tau``.

    ``breakpoints[k]`` is the index of uncached state (Q_star + k, 0, 1).
    ``w_of_tau`` is a read-only view of the content's row, not a copy:
    ``w_of_tau[i]`` is the exact cached-copy index W(0, tau_i) at the grid
    point ``tau_i = i * tau_star / GRID_SIZE``, for ``i < GRID_SIZE``, and
    the trailing cell is the 0 sentinel.  ``cached_idle`` reads cell
    ``int(tau * inv_step)``, or the last cell once that reaches it, which
    is the compiled loop's rule (``row_cell`` in ``_loop.c``, for both its
    keys and their lower bounds): for tau in [tau_i, tau_{i+1}) it returns
    W(tau_i), and W is nonincreasing in tau and 0 from tau_star on, so the
    lookup never understates W(tau) and overstates it by at most one
    cell's step.
    """

    tau_star: float
    ceiling: float               # the index upper bound I
    inv_step: float              # (len(w_of_tau) - 1) / tau_star
    c_alam: float                # c_a * lam, the ageing cost rate
    c_f: float
    c_w: float
    p: float
    p_cf: float                  # p * c_f
    lam: float
    c_a: float
    q_star: int
    q_hat: int
    breakpoints: tuple[float, ...]
    w_of_tau: np.ndarray

    def uncached(self, Q: int) -> float:
        if Q < self.q_star:
            return 0.0
        if Q >= self.q_hat:
            return self.ceiling
        return self.breakpoints[Q - self.q_star]

    def cached_idle(self, Q: int, tau: float) -> float:
        if Q > 0:
            return 0.0
        x, last = tau * self.inv_step, len(self.w_of_tau) - 1
        return float(self.w_of_tau[int(x) if x < last else last])


@dataclass(frozen=True, eq=False)
class PolicyTables:
    """The per-content tables of one system, shared by every policy and
    every capacity M, as the arrays the compiled event loop reads; made by
    ``build_index_tables``, once, and read-only.

    * ``contents`` and ``beta``: the system's, which ``simulator.run``
      checks a run's system against;
    * ``cdbl``, (N, 10) float64, and ``cint``, (N, 3) int64: per-content
      values in the columns ``TAU_STAR`` ... ``C_A`` and ``Q_STAR``,
      ``Q_HAT``, ``BP_OFF``;
    * ``bps``: every content's uncached breakpoints, flat, content n's from
      ``cint[n, BP_OFF]``;
    * ``w_of_tau``, (N, GRID_SIZE + 1): the cached-index rows; (N, 2) rows
      ``[I, 0]`` for tables built without indices.

    The rest is computed from those when the tables are made, so that a
    ``dataclasses.replace`` of an array reaches every reader alike:

    * ``w_low``: each row's running minimum, the lower bounds the compiled
      Whittle scan prunes with; ``w_of_tau`` itself when every row is
      nonincreasing, as the solvers build them;
    * ``cum_p`` and ``guide``: the content pick's popularity CDF
      (``_cum_p``) and guide table (``_guide_table``).

    ``content``, each content's ``ContentTables`` (whose ``w_of_tau`` is a
    view of its row), is made on first read: only the reference loop, the
    decision rules and ``aovcache whittle`` read it.
    """

    contents: tuple[ContentParams, ...]
    beta: float
    cdbl: np.ndarray
    cint: np.ndarray
    bps: np.ndarray
    w_of_tau: np.ndarray
    w_low: np.ndarray = field(init=False, repr=False)
    cum_p: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = self.w_of_tau
        w_low = rows if np.all(rows[:, 1:] <= rows[:, :-1]) else np.minimum.accumulate(rows, 1)
        cum_p = _cum_p(self.cdbl[:, P])
        for a in (self.cdbl, self.cint, self.bps, rows, w_low, cum_p):
            a.setflags(write=False)
        for name, value in (("w_low", w_low), ("cum_p", cum_p), ("guide", _guide_table(cum_p))):
            object.__setattr__(self, name, value)

    @cached_property
    def content(self) -> tuple[ContentTables, ...]:
        bps = self.bps.tolist()
        ends = [*self.cint[1:, BP_OFF].tolist(), len(bps)]
        return tuple(ContentTables(*d, q_star, q_hat, tuple(bps[off:end]), row)
                     for d, (q_star, q_hat, off), end, row
                     in zip(self.cdbl.tolist(), self.cint.tolist(), ends, self.w_of_tau))

    def __reduce__(self):
        # pickled as the arrays it is made from, so that an unpickled copy
        # computes the rest again and its rows are views, not copies
        return PolicyTables, (self.contents, self.beta, self.cdbl, self.cint, self.bps,
                              self.w_of_tau)


def _cum_p(p) -> np.ndarray:
    """The popularity CDF that content ids are picked from, its last entry
    clamped to 1.0 so that every uniform in [0, 1) picks an id."""
    cum_p = np.cumsum(p, dtype=float)
    cum_p[-1] = 1.0
    return cum_p


def _guide_table(cum_p: np.ndarray) -> np.ndarray:
    """``guide[k] = searchsorted(cum_p, k/K, side="right")`` for the least
    power of two K >= len(cum_p); ``_loop.c``'s ``pick`` explains why
    starting from it finds searchsorted's id for every uniform."""
    k = 1 << (len(cum_p) - 1).bit_length()
    guide = np.searchsorted(cum_p, np.arange(k) / k, side="right").astype(np.int64)
    guide.setflags(write=False)
    return guide


class BuildCounts(NamedTuple):
    """What one ``build_index_tables`` call did, as a run's manifest
    records it: its seconds, and the work of its two solvers."""

    seconds: float
    searched: int    # grid points that the first probe and its guard left to the search
    guards: int      # grid points that evaluated their guard
    fallback: int    # breakpoints whose band case2 did not confirm: the plain bisection's


def build_index_tables(contents: Sequence[ContentParams], beta: float,
                       indices: bool = True) -> tuple[PolicyTables, BuildCounts]:
    """The ``PolicyTables`` of ``contents`` at aggregate rate ``beta``, from
    the breakpoints' band-checked roots and the chunked cached-index
    build, and the build's ``BuildCounts``.  With ``indices=False`` only
    the ``C_h = 0`` thresholds are solved, for policies that never
    evaluate an index: no breakpoints, and rows ``[I, 0]``."""
    start = time.perf_counter()
    k = content_constants(contents, beta)
    tau_star, _, q_star, _ = case2(np.zeros(k.I.size), k)
    n = len(tau_star)
    if indices:
        bps, counts, fallback = _breakpoints(k, q_star)
        w_of_tau, grid = cached_index_rows(k, tau_star, q_star, bps, counts)
    else:
        bps, counts, fallback, grid = np.empty(0), np.zeros(n, dtype=np.int64), 0, (0, 0)
        w_of_tau = np.stack([k.I, np.zeros(n)], axis=1)
    cdbl = np.stack([tau_star, k.I, (w_of_tau.shape[1] - 1) / tau_star, k.c_alam, k.c_f,
                     k.c_w, k.p, k.p * k.c_f, [c.lam for c in contents],
                     [c.costs.c_a for c in contents]], axis=1)
    cint = np.stack([q_star, k.q_hat, np.cumsum(counts) - counts], axis=1)
    tables = PolicyTables(tuple(contents), beta, cdbl, cint, bps, w_of_tau)
    return tables, BuildCounts(time.perf_counter() - start, *grid, fallback)


def build_content_tables(params: ContentParams, beta: float) -> ContentTables:
    """The tables of one content: ``build_index_tables`` of it alone."""
    return build_index_tables((params,), beta)[0].content[0]
