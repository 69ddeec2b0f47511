"""Brute-force policy-iteration solvers used to cross-check the closed forms.

These discretize ``tau`` on a uniform grid, cap the queue, and solve the
embedded decision-epoch chain exactly by policy iteration (epochs
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

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .model import ContentParams, SingleContentState

__all__ = ["Grid", "ValueTable", "solve_infinite", "solve_holding",
           "whittle_by_sweep", "passive_in_table"]

# greedy action codes shared by both MDP families, the order in which each
# model lists its actions, so that a policy is an array of codes
SERVE_KEEP = 0
FETCH_KEEP = 1
WAIT = 2
FETCH_EVICT = 3
SERVE_EVICT = 4


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
        still read off the solved value table.
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
    """Relative costs, average cost, and the optimal (greedy) policy."""

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
    """The exponential-kernel integral on ``k`` tau cells as sparse rows
    ``(Z, U)``, ``Z @ J = U @ u``: J_j = integral of rate*e^(-rate t)
    u(tau_j + t) dt for a piecewise-linear u, by the backward recursion
    J_j - r*J_{j+1} = alpha*u_j + gamma*u_{j+1}, J_{k-1} = u_{k-1}."""
    r = math.exp(-rate * dtau)
    gamma = (1.0 - r) / (rate * dtau) - r
    alpha = np.full(k, 1.0 - r - gamma)
    alpha[-1] = 1.0
    off = np.ones(k - 1)
    return (sparse.diags([np.ones(k), -r * off], [0, 1], format="csr"),
            sparse.diags([alpha, gamma * off], [0, 1], format="csr"))


def _action_table(families: list) -> tuple[np.ndarray, np.ndarray]:
    """``(cost, succ)``, each (codes, states), of a model's state families
    in order.  A family is its size and its actions in greedy-code order:
    a (cost, successor) pair broadcast over the family, or None (cost inf)."""
    n = sum(size for size, _ in families)
    cost = np.full((max(len(a) for _, a in families), n), np.inf)
    succ = np.zeros(cost.shape, dtype=np.intp)
    start = 0
    for size, actions in families:
        for code, action in enumerate(actions):
            if action is not None:
                cost[code, start:start + size], succ[code, start:start + size] = action
        start += size
    return cost, succ


def _solve(cost: np.ndarray, succ: np.ndarray, kernel, ref: int, policy: np.ndarray):
    """``(g, h, policy)``: the average cost per epoch, the relative costs
    (``h[ref]`` = 0) and an optimal policy, by policy iteration.

    Action a in state s costs ``cost[a, s]`` plus ``z[succ[a, s]]``, the
    expected relative cost of the next epoch, an auxiliary unknown that
    the rows ``kernel = (Z, H)`` define by ``Z @ z = H @ h``.  Each
    iteration evaluates the policy exactly, one sparse solve: its
    equations h = c - g + z[nxt] turn those rows into
    (Z - H S) z + (H 1) g = H c, S the policy's selection of z, and
    h[ref] = 0 into z[nxt[ref]] - g = -c[ref].  Then each state moves to
    its cheapest action unless its own is within 1e-12 of it (relative to
    the largest value in use), so ties end the iteration.
    """
    Z, H = (x.tocoo() for x in kernel)
    m, n = H.shape
    states = np.arange(n)
    ones = H @ np.ones(n)
    rows = np.concatenate([Z.row, H.row, np.arange(m), [m, m]])
    data = np.concatenate([Z.data, -H.data, ones, [1.0, -1.0]])
    while True:
        c, nxt = cost[policy, states], succ[policy, states]
        cols = np.concatenate([Z.col, nxt[H.col], np.full(m, m), [nxt[ref], m]])
        A = sparse.csc_matrix((data, (rows, cols)), shape=(m + 1, m + 1))
        x = spsolve(A, np.append(H @ c, -c[ref]))
        if not np.isfinite(x).all():
            raise np.linalg.LinAlgError("policy evaluation has no unique solution")
        values = cost + x[:m][succ]
        current = values[policy, states]
        best = values.argmin(axis=0)
        moves = values[best, states] < current - 1e-12 * np.abs(current).max()
        if not moves.any():
            return x[m], current - x[m], policy
        policy = np.where(moves, best, policy)


def solve_infinite(
    beta: float, lam: float, c_a: float, c_f: float, c_w: float,
    grid: Grid | None = None,
) -> ValueTable:
    """Policy iteration for the always-cached single content MDP.

    ``beta`` is the content's own request rate.  Actions per epoch:
    serve the copy (ageing ``c_a*lam*tau*(Q+1)``), fetch (``c_f``) or
    wait (``c_w*(Q+1)/beta``), each followed by the kernel integral J of
    the next queue's row of h.  Reference state is (Q=0, tau=0); the
    first policy fetches.
    """
    if grid is None:
        grid = Grid.for_params(beta, lam, c_a, c_f, c_w)
    taus = grid.taus
    k, rows = len(taus), grid.q_max + 1
    Z, U = _expint_kernel(beta, grid.dtau, k)
    eye = sparse.identity(rows)
    qs = np.arange(rows)[:, None]
    up = np.minimum(qs + 1, rows - 1)  # queue cap: waiting at q_max self-loops
    j = np.arange(k)
    cost, succ = _action_table([(rows * k, [
        ((c_a * lam * taus * (qs + 1.0)).ravel(), np.tile(j, rows)),  # serve: J[0, j]
        (c_f, 0),                                                     # fetch: J[0, 0]
        (np.repeat(c_w * (qs + 1.0) / beta, k), (up * k + j).ravel()),  # wait: J[up, j]
    ])])
    g, h, policy = _solve(cost, succ, (sparse.kron(eye, Z), sparse.kron(eye, U)), 0,
                          np.full(rows * k, FETCH_KEEP))
    return ValueTable(theta=beta * g, grid=grid, h=h.reshape(rows, k),
                      greedy=policy.reshape(rows, k))


def solve_holding(
    params: ContentParams, beta: float, C_h: float,
    grid: Grid | None = None, warm: ValueTable | None = None,
) -> ValueTable:
    """Policy iteration for the single content with holding cost.

    Decision epochs are all request arrivals (rate ``beta``); the
    tagged content is the requested one with probability ``p``.  State
    families: cached-and-requested (0,tau,1,1) with actions
    serve/fetch/wait-evict/fetch-evict/serve-evict, cached-idle
    (0,tau,1,0) with keep/evict, uncached-requested (Q,0,1) with
    fetch-cache/wait/fetch-discard, and uncached-idle (Q,0,0) with no
    action.  Reference state is (0, 0, 1, 0).  A kept copy is next in
    the kernel integral L of ``p*h(0,.,1,1) + (1-p)*h(0,.,1,0)``, an
    uncached one in ``E_Q = p*h(Q,0,1) + (1-p)*h(Q,0,0)``.  The first
    policy is ``warm``'s, if solved on the same grid, else it discards.
    """
    p, lam = params.p, params.lam
    cm = params.costs
    c_a, c_f, c_w = cm.c_a, cm.c_f, cm.c_w
    if grid is None:
        grid = Grid.for_params(p * beta, lam, c_a, c_f, c_w)
    taus = grid.taus
    k, rows = len(taus), grid.q_max + 1
    Z, U = _expint_kernel(beta, grid.dtau, k)
    eye = sparse.identity(rows)
    # z = [L, E] of h = [cached_req, cached_idle, uncached_req, uncached_idle]
    kernel = (sparse.block_diag([Z, eye]),
              sparse.bmat([[p * U, (1.0 - p) * U, None, None],
                           [None, None, p * eye, (1.0 - p) * eye]]))
    age, chb = c_a * lam * taus, C_h / beta
    qs = np.arange(rows)
    L, E0, up = np.arange(k), k, k + np.minimum(qs + 1, rows - 1)  # E at the next queue
    cost, succ = _action_table([
        (k, [(age + chb, L), (c_f + chb, L[0]), (c_w / beta, up[0]), (c_f, E0), (age, E0)]),
        (k, [(chb, L), None, (0.0, E0)]),
        (rows, [None, (c_f + chb, L[0]), ((qs + 1.0) * c_w / beta, up), (c_f, E0)]),
        (rows, [(qs * c_w / beta, k + qs)]),
    ])
    cut = [k, 2 * k, 2 * k + rows]
    if warm is not None and warm.grid == grid:
        policy = np.concatenate([warm.greedy_cached_req, warm.greedy_cached_idle,
                                 warm.greedy_uncached_req, np.zeros(rows, dtype=np.intp)])
    else:
        policy = np.repeat([FETCH_EVICT, WAIT, FETCH_EVICT, 0], [k, k, rows, rows])
    g, h, policy = _solve(cost, succ, kernel, k, policy)
    hs, greedy = np.split(h, cut), np.split(policy, cut)
    return ValueTable(theta=beta * g, grid=grid, h_cached_req=hs[0], h_cached_idle=hs[1],
                      h_uncached_req=hs[2], h_uncached_idle=hs[3], greedy_cached_req=greedy[0],
                      greedy_cached_idle=greedy[1], greedy_uncached_req=greedy[2])


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
    C_h_grid: np.ndarray, grid: Grid | None = None,
) -> list[float]:
    """Index estimates of ``states``: for each, the smallest grid C_h whose
    greedy action goes passive.

    Runs ``solve_holding`` at the grid points in ascending order, each
    started from the last one's policy, until every state has gone
    passive; a state that never does gets the grid's last point.  A cached idle copy
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
        warm = solve_holding(params, beta, float(ch), grid=grid, warm=warm)
        found = [float(ch) if x is None and passive_in_table(warm, s) else x
                 for x, s in zip(found, states)]
    last = float(C_h_grid[-1])
    return [last if x is None else x for x in found]
