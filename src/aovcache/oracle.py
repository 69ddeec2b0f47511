"""Brute-force value-iteration solvers used to cross-check the closed forms.

These discretize ``tau`` on a uniform grid, cap the queue, and run
relative value iteration on the embedded decision-epoch chain (epochs
arrive at the request rate, so the average cost per unit time is
``rate * average cost per epoch``).  The exponential-kernel integrals

    integral_0^inf rate * exp(-rate*t) * h(tau + t) dt

are evaluated exactly for a piecewise-linear ``h`` on the grid, with the
tail mass past ``tau_max`` lumped into the last cell.  Accuracy is
test-grade: first order in the grid step.

Deliberately shares no code with ``aovcache.thresholds`` /
``aovcache.whittle`` so the two routes fail independently; the few
closed-form expressions appearing in ``Grid.for_params`` size the grid
only and never feed the returned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.signal import lfilter

from .model import ContentParams, SingleContentState

__all__ = ["Grid", "ValueTable", "value_iterate_infinite", "value_iterate_holding",
           "whittle_by_sweep", "passive_in_table"]

# greedy action codes shared by both MDP families
SERVE_KEEP = 0
FETCH_KEEP = 1
WAIT = 2
FETCH_EVICT = 3
SERVE_EVICT = 4

# relaxation weight of value_iterate_holding's damped update, and the sweep
# budget of both value iterations
DAMPING = 0.5
MAX_SWEEPS = 100_000


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform tau grid [0, tau_max] with step dtau, queue capped at q_max."""

    tau_max: float
    dtau: float
    q_max: int

    @property
    def taus(self) -> np.ndarray:
        k = int(round(self.tau_max / self.dtau))
        return np.arange(k + 1) * self.dtau

    @staticmethod
    def for_params(rate: float, lam: float, c_a: float, c_f: float, c_w: float,
                   refine: float = 1.0) -> "Grid":
        """Default sizing from crude bounds on the thresholds.

        The batch-dispatch queue bound and the zero-queue serve
        threshold bound used here only pick the window; the solution is
        still read off the converged value table.
        """
        q_ross = int((math.sqrt(1.0 + 8.0 * rate * c_f / c_w) - 1.0) // 2)
        theta_nc = (2.0 * rate * c_f + c_w * q_ross * (q_ross + 1)) / (2.0 * (q_ross + 1))
        tau0_est = theta_nc / (rate * c_a * lam)
        a = 2.0 * rate * c_f / (c_a * lam)
        qq = q_ross + 2
        tau_star_lb = (math.sqrt(qq * qq + a) - qq) / rate
        dtau = tau_star_lb / (100.0 * refine)
        tau_max = 4.0 * tau0_est
        return Grid(tau_max=tau_max, dtau=dtau, q_max=q_ross + 10)


@dataclass
class ValueTable:
    """Converged relative costs, average cost, and the greedy policy."""

    theta: float
    grid: Grid
    # infinite-capacity family
    h: np.ndarray | None = None            # h[q, j]
    greedy: np.ndarray | None = None       # codes SERVE_KEEP / WAIT / FETCH_KEEP
    # holding-cost family
    h_cached_req: np.ndarray | None = None     # h(0, tau, 1, 1)
    h_cached_idle: np.ndarray | None = None    # h(0, tau, 1, 0)
    h_uncached_req: np.ndarray | None = None   # h(Q, 0, 1)
    h_uncached_idle: np.ndarray | None = None  # h(Q, 0, 0)
    greedy_cached_req: np.ndarray | None = None
    greedy_cached_idle: np.ndarray | None = None  # 0 = keep, 2 = evict
    greedy_uncached_req: np.ndarray | None = None

    # threshold read-off helpers (accurate to one grid cell)

    def _requested_row(self) -> np.ndarray:
        """The greedy actions of a requested cached copy with no queue, by tau."""
        return self.greedy[0] if self.greedy is not None else self.greedy_cached_req

    def tau_serve_end(self) -> float:
        """Largest grid tau where the requested cached copy is still served."""
        row = self._requested_row()
        served = np.nonzero((row == SERVE_KEEP) | (row == SERVE_EVICT))[0]
        return 0.0 if len(served) == 0 else served[-1] * self.grid.dtau

    def tau_serve_keep_end(self) -> float:
        """Largest grid tau with action serve-and-keep (tau_bar analogue)."""
        kept = np.nonzero(self._requested_row() == SERVE_KEEP)[0]
        return 0.0 if len(kept) == 0 else kept[-1] * self.grid.dtau

    def queue_fetch_threshold(self) -> int:
        """Smallest queue at which the greedy action fetches."""
        if self.greedy is not None:
            j = min(len(self.greedy[0]) - 1,
                    int(self.tau_serve_end() / self.grid.dtau) + 2)
            col = self.greedy[:, j]
            hit = np.nonzero(col == FETCH_KEEP)[0]
        else:
            col = self.greedy_uncached_req
            hit = np.nonzero((col == FETCH_KEEP) | (col == FETCH_EVICT))[0]
        return int(hit[0]) if len(hit) else len(col)


def _expint_kernel(rate: float, dtau: float, k: int):
    """The exponential-kernel integral of one solve on ``k`` tau cells:
    ``J(h)[..., j]`` = integral of rate*e^(-rate t) h(..., tau_j + t) dt
    for a piecewise-linear h.

    Backward recursion J_j = alpha*h_j + gamma*h_{j+1} + decay*J_{j+1},
    J_K = h_K, run as an IIR filter on the reversed axis.  The filter
    starts from rest, and the powers of decay that carry in the end
    condition are the same every sweep, so they are computed here, once.
    """
    r = math.exp(-rate * dtau)
    c1 = (1.0 - r) / (rate * dtau) - r
    alpha, gamma, decay = (1.0 - r) - c1, c1, r
    powers = decay ** np.arange(k)

    def expint_rows(h: np.ndarray) -> np.ndarray:
        u = h[..., ::-1]
        y = lfilter([alpha, gamma], [1.0, -decay], u, axis=-1)
        y = y + (1.0 - alpha) * u[..., :1] * powers
        return y[..., ::-1]

    return expint_rows


def _greedy(costs: list, codes: tuple[int, ...]) -> np.ndarray:
    """The code of each state's cheapest action; a tie goes to the first."""
    return np.asarray(codes)[np.argmin(np.broadcast_arrays(*costs), axis=0)]


def value_iterate_infinite(
    beta: float, lam: float, c_a: float, c_f: float, c_w: float,
    grid: Grid | None = None, tol: float = 1e-9,
) -> ValueTable:
    """Relative value iteration for the always-cached single content MDP.

    ``beta`` is the content's own request rate.  Actions per epoch:
    serve the copy (ageing ``c_a*lam*tau*(Q+1)``), wait (``c_w*(Q+1)/beta``),
    or fetch (``c_f``).  Reference state is (Q=0, tau=0).
    """
    if grid is None:
        grid = Grid.for_params(beta, lam, c_a, c_f, c_w)
    taus = grid.taus
    k = len(taus)
    qm = grid.q_max
    expint_rows = _expint_kernel(beta, grid.dtau, k)

    h = np.zeros((qm + 1, k))
    qcol = np.arange(qm + 1, dtype=float)[:, None]
    serve_age = c_a * lam * taus[None, :] * (qcol + 1.0)
    wait_cost = c_w * (qcol + 1.0) / beta
    up = np.arange(1, qm + 2)
    up[-1] = qm  # queue cap: waiting at q_max self-loops

    for _ in range(MAX_SWEEPS):
        J = expint_rows(h)
        costs = [serve_age + J[0][None, :], wait_cost + J[up], c_f + J[0, 0]]
        T = reduce(np.minimum, costs)
        g = T[0, 0]
        T -= g
        delta = T - h
        sp = delta.max() - delta.min()
        h = T
        if sp < tol:
            return ValueTable(theta=beta * g, grid=grid, h=h,
                              greedy=_greedy(costs, (SERVE_KEEP, WAIT, FETCH_KEEP)))
    raise ConvergenceError(f"no convergence after {MAX_SWEEPS} sweeps (span {sp:g})")


def value_iterate_holding(
    params: ContentParams, beta: float, C_h: float,
    grid: Grid | None = None, tol: float = 1e-9, warm: ValueTable | None = None,
) -> ValueTable:
    """Relative value iteration for the single content with holding cost.

    Decision epochs are all request arrivals (rate ``beta``); the
    tagged content is the requested one with probability ``p``.  State
    families: cached-and-requested (0,tau,1,1) with actions
    serve/fetch/wait-evict/fetch-evict/serve-evict, cached-idle
    (0,tau,1,0) with keep/evict, uncached-requested (Q,0,1) with
    fetch-cache/wait/fetch-discard, and uncached-idle (Q,0,0) with no
    action.  Reference state is (0, 0, 1, 0).

    Updates are damped (h <- (1-k) h + k (T h - g), k = ``DAMPING``):
    for p = 1 and C_h > I the greedy chain cycles deterministically
    between queue states, and the undamped iteration oscillates with
    period 2.  The stopping rule checks the span of ``T h - h - g``,
    which bounds ``|beta * g - theta|`` regardless of damping.
    """
    p, lam = params.p, params.lam
    cm = params.costs
    c_a, c_f, c_w = cm.c_a, cm.c_f, cm.c_w
    if grid is None:
        grid = Grid.for_params(p * beta, lam, c_a, c_f, c_w)
    taus = grid.taus
    qm = grid.q_max
    expint_rows = _expint_kernel(beta, grid.dtau, len(taus))

    if warm is not None and warm.grid == grid:
        h = [warm.h_cached_req, warm.h_cached_idle, warm.h_uncached_req, warm.h_uncached_idle]
    else:
        h = [np.zeros(len(taus)), np.zeros(len(taus)), np.zeros(qm + 1), np.zeros(qm + 1)]

    age = c_a * lam * taus
    chb = C_h / beta
    age_held = age + chb
    qs = np.arange(qm + 1, dtype=float)
    wait_costs = (qs + 1.0) * c_w / beta
    idle_costs = qs * c_w / beta
    up = np.arange(1, qm + 2)
    up[-1] = qm

    def actions(A, B, C, D):
        """Each decision family's action costs, in greedy-code order; an
        action that costs the same in every state is a scalar."""
        L = expint_rows(p * A + (1.0 - p) * B)
        evicted0 = p * C[0] + (1.0 - p) * D[0]
        cache = c_f + chb + L[0]       # fetch, serve & cache
        discard = c_f + evicted0       # fetch, serve & evict
        cached_req = [age_held + L,    # serve & keep
                      cache,
                      c_w / beta + p * C[up[0]] + (1.0 - p) * D[up[0]],  # wait & evict
                      discard,
                      age + evicted0]  # serve & evict
        cached_idle = [chb + L, evicted0]  # keep, evict
        uncached_req = [cache, wait_costs + p * C[up] + (1.0 - p) * D[up], discard]
        return cached_req, cached_idle, uncached_req

    for _ in range(MAX_SWEEPS):
        T = [reduce(np.minimum, a) for a in actions(*h)]
        T.append(idle_costs + p * h[2] + (1.0 - p) * h[3])
        g = T[1][0]
        T = [t - g for t in T]
        delta = [t - x for t, x in zip(T, h)]
        hi = max(d.max() for d in delta)
        lo = min(d.min() for d in delta)
        if hi - lo < tol:
            h = T
            break
        h = [x + DAMPING * d for x, d in zip(h, delta)]
    else:
        raise ConvergenceError(f"no convergence after {MAX_SWEEPS} sweeps (span {hi - lo:g})")

    cached_req, cached_idle, uncached_req = actions(*h)
    return ValueTable(
        theta=beta * g, grid=grid,
        h_cached_req=h[0], h_cached_idle=h[1], h_uncached_req=h[2], h_uncached_idle=h[3],
        greedy_cached_req=_greedy(
            cached_req, (SERVE_KEEP, FETCH_KEEP, WAIT, FETCH_EVICT, SERVE_EVICT)),
        greedy_cached_idle=_greedy(cached_idle, (SERVE_KEEP, WAIT)),
        greedy_uncached_req=_greedy(uncached_req, (FETCH_KEEP, WAIT, FETCH_EVICT)),
    )


def passive_in_table(table: ValueTable, state: SingleContentState) -> bool:
    """Whether the greedy action leaves the content out of the cache."""
    if not state.cached or state.Q > 0:
        if not state.requested:
            return True
        q = min(state.Q, len(table.greedy_uncached_req) - 1)
        return table.greedy_uncached_req[q] in (WAIT, FETCH_EVICT)
    j = min(int(round(state.tau / table.grid.dtau)), len(table.greedy_cached_idle) - 1)
    if state.requested:
        return table.greedy_cached_req[j] in (WAIT, FETCH_EVICT, SERVE_EVICT)
    return table.greedy_cached_idle[j] == WAIT


def whittle_by_sweep(
    params: ContentParams, beta: float, states: list[SingleContentState],
    C_h_grid: np.ndarray, grid: Grid | None = None, tol: float = 1e-8,
) -> list[float]:
    """Index estimates of ``states``: for each, the smallest grid C_h whose
    greedy action goes passive.

    Runs ``value_iterate_holding`` at the grid points in ascending order,
    warm-started along the sweep, until every state has gone passive; a
    state that never does gets the grid's last point.  A cached idle copy
    with requests queued is passive at every C_h and gets 0.0 without a
    solve.  Accuracy is one C_h grid step plus one tau cell.
    """
    found = [0.0 if s.cached and s.Q > 0 and not s.requested else None for s in states]
    cm = params.costs
    if grid is None:
        grid = Grid.for_params(params.p * beta, params.lam, cm.c_a, cm.c_f, cm.c_w)
    warm = None
    for ch in np.sort(np.asarray(C_h_grid, dtype=float)):
        if None not in found:
            break
        warm = value_iterate_holding(params, beta, float(ch), grid=grid, tol=tol, warm=warm)
        found = [float(ch) if x is None and passive_in_table(warm, s) else x
                 for x, s in zip(found, states)]
    last = float(C_h_grid[-1])
    return [last if x is None else x for x in found]
