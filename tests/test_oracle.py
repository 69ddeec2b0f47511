import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from aovcache.model import SingleContentState
from aovcache.oracle import (
    FETCH_EVICT,
    FETCH_KEEP,
    SERVE_KEEP,
    WAIT,
    Grid,
    _expint_kernel,
    passive_in_table,
    solve_holding,
    solve_infinite,
    whittle_by_sweep,
)
from aovcache.thresholds import (
    compute_I,
    optimal_average_cost,
    solve_case2,
    solve_infinite_capacity,
    solve_thresholds,
)
from aovcache.whittle import whittle_cached
from conftest import random_content


def test_exponential_integral_matches_quadrature():
    rng = np.random.default_rng(0)
    beta, dtau = 1.7, 0.01
    h = np.cumsum(rng.random(400))
    Z, U = _expint_kernel(beta, dtau, len(h))
    J = spsolve(Z.tocsc(), U @ h)
    taus = np.arange(400) * dtau
    for j in (0, 17, 199, 398, 399):
        t = np.linspace(0.0, taus[-1] - taus[j], 200001)
        vals = np.interp(taus[j] + t, taus, h)
        brute = np.trapezoid(beta * np.exp(-beta * t) * vals, t)
        brute += math.exp(-beta * (taus[-1] - taus[j])) * h[-1]
        assert J[j] == pytest.approx(brute, abs=5e-8)


class TestInfiniteVI:
    def test_matches_closed_form_unit(self):
        vt = solve_infinite(1, 1, 1, 1, 0.5)
        tau, q, theta = solve_infinite_capacity(1, 1, 1, 1, 0.5)
        assert vt.theta == pytest.approx(theta, rel=1e-4)
        assert abs(vt.tau_serve_end() - tau) <= vt.grid.dtau
        assert vt.queue_fetch_threshold() == q

    def test_small_fetch_cost(self):
        vt = solve_infinite(1, 1, 1, 1e-4, 0.5)
        assert vt.theta < 0.02
        # greedy fetches once tau is past the (tiny) serve threshold
        assert vt.greedy[3, -1] == FETCH_KEEP

    def test_relative_costs_monotone(self):
        # h(Q+q, tau+t) >= h(Q, tau)
        vt = solve_infinite(1, 1, 1, 1, 0.5)
        h = vt.h
        assert (np.diff(h, axis=0) >= -1e-9).all()
        assert (np.diff(h, axis=1) >= -1e-9).all()

    def test_first_order_in_grid_step(self):
        base = Grid.for_params(1.0, 1.0, 1.0, 1.0, 0.5)
        coarse = Grid(base.tau_max, base.dtau * 16, base.q_max)
        fine = Grid(base.tau_max, base.dtau * 8, base.q_max)
        theta = solve_infinite_capacity(1, 1, 1, 1, 0.5)[2]
        e_coarse = abs(solve_infinite(1, 1, 1, 1, 0.5, grid=coarse).theta - theta)
        e_fine = abs(solve_infinite(1, 1, 1, 1, 0.5, grid=fine).theta - theta)
        assert e_fine <= 0.6 * e_coarse

    def test_threshold_shape_of_greedy_regions(self):
        vt = solve_infinite(1.3, 0.7, 0.9, 1.1, 0.3)
        g = vt.greedy
        for qrow in g:  # single switch out of serving along tau
            serve = qrow == SERVE_KEEP
            if serve.any():
                last = np.nonzero(serve)[0][-1]
                assert serve[: last + 1].all()
        j = min(g.shape[1] - 1, int(vt.tau_serve_end() / vt.grid.dtau) + 2)
        col = g[:, j]
        fetch = col == FETCH_KEEP
        if fetch.any():
            first = np.nonzero(fetch)[0][0]
            assert fetch[first:].all()


class TestHoldingVI:
    def test_zero_holding_cost_matches_row_one(self, unit_content):
        vt = solve_holding(unit_content, 1.0, 0.0)
        ts = solve_thresholds(unit_content, 1.0, 0.0)
        assert vt.theta == pytest.approx(ts.theta, rel=1e-4)
        assert abs(vt.tau_serve_end() - ts.tau_star) <= vt.grid.dtau
        assert vt.queue_fetch_threshold() == ts.Q_star
        # keeping an idle copy is strictly optimal below tau*; past it the
        # two options tie exactly at C_h = 0, so the greedy there is noise
        j = int(ts.tau_star / vt.grid.dtau) - 1
        assert (vt.greedy_cached_idle[:j] == SERVE_KEEP).all()

    def test_above_ceiling_matches_case1(self, unit_content):
        I = compute_I(unit_content, 1.0)
        vt = solve_holding(unit_content, 1.0, 2 * I)
        assert vt.theta == pytest.approx(0.75, rel=5e-3)
        used = set(vt.greedy_uncached_req.tolist())
        assert used == {WAIT, FETCH_EVICT}
        assert vt.queue_fetch_threshold() == 1  # Q_hat

    def test_mid_ch_cross_validates_case2(self, unit_content):
        vt = solve_holding(unit_content, 1.0, 0.1)
        tb, tt, qb, theta = solve_case2(0.1, unit_content, 1.0)
        assert vt.theta == pytest.approx(theta, rel=1e-4)
        assert abs(vt.tau_serve_keep_end() - tb) <= vt.grid.dtau
        assert abs(vt.tau_serve_end() - tt) <= vt.grid.dtau
        assert vt.queue_fetch_threshold() == qb

    def test_random_params_all_regimes(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            c, beta = random_content(rng)
            I = compute_I(c, beta)
            for ch in (0.0, 0.55 * I, 1.4 * I):
                want = optimal_average_cost(c, beta, ch)
                vt = solve_holding(c, beta, ch)
                assert vt.theta == pytest.approx(want, rel=5e-3)


def _expint(table, rate, u):
    Z, U = _expint_kernel(rate, table.grid.dtau, u.shape[-1])
    return np.array([spsolve(Z.tocsc(), U @ row) for row in np.atleast_2d(u)])


def _bellman_infinite(vt, beta, lam, c_a, c_f, c_w):
    """The average-cost Bellman operator of the always-cached model at
    ``vt.h``, written out action by action."""
    h = vt.h
    q = np.arange(len(h), dtype=float)[:, None]
    up = np.minimum(np.arange(1, len(h) + 1), len(h) - 1)
    J = _expint(vt, beta, h)
    return np.minimum.reduce(np.broadcast_arrays(
        c_a * lam * vt.grid.taus * (q + 1.0) + J[0], c_w * (q + 1.0) / beta + J[up],
        c_f + J[0, 0]))


def _bellman_holding(vt, c, beta, C_h):
    """The same for the holding-cost model, one family at a time."""
    p, cm, chb = c.p, c.costs, C_h / beta
    A, B, C, D = vt.h_cached_req, vt.h_cached_idle, vt.h_uncached_req, vt.h_uncached_idle
    L = _expint(vt, beta, p * A + (1.0 - p) * B)[0]
    E = p * C + (1.0 - p) * D
    q = np.arange(len(C), dtype=float)
    up = np.minimum(np.arange(1, len(C) + 1), len(C) - 1)
    age = cm.c_a * c.lam * vt.grid.taus
    cached_req = np.minimum.reduce(np.broadcast_arrays(
        age + chb + L, cm.c_f + chb + L[0], cm.c_w / beta + E[up[0]], cm.c_f + E[0],
        age + E[0]))
    cached_idle = np.minimum(chb + L, E[0])
    uncached_req = np.minimum.reduce(np.broadcast_arrays(
        cm.c_f + chb + L[0], (q + 1.0) * cm.c_w / beta + E[up], cm.c_f + E[0]))
    return cached_req, cached_idle, uncached_req, q * cm.c_w / beta + E


class TestPolicyIteration:
    def test_optimality_equation_infinite(self):
        rng = np.random.default_rng(5)
        cases = [(1.0, 1.0, 1.0, 1.0, 0.5)]
        for _ in range(3):
            c, beta = random_content(rng)
            cases.append((c.p * beta, c.lam, c.costs.c_a, c.costs.c_f, c.costs.c_w))
        for args in cases:
            vt = solve_infinite(*args)
            T = _bellman_infinite(vt, *args)
            scale = np.abs(vt.h).max()
            assert abs(vt.h[0, 0]) <= 1e-12 * scale
            np.testing.assert_allclose(T - vt.theta / args[0], vt.h, rtol=0, atol=1e-12 * scale)

    def test_optimality_equation_holding(self, unit_content):
        # at 2I the unit content (p = 1) cycles with period 2 between queue
        # states, which no iteration of the operator alone settles
        rng = np.random.default_rng(6)
        I = compute_I(unit_content, 1.0)
        cases = [(unit_content, 1.0, ch) for ch in (0.0, 0.1, 2 * I)]
        for _ in range(3):
            c, beta = random_content(rng)
            cases += [(c, beta, f * compute_I(c, beta)) for f in (0.6, 1.5)]
        for c, beta, ch in cases:
            vt = solve_holding(c, beta, ch)
            h = (vt.h_cached_req, vt.h_cached_idle, vt.h_uncached_req, vt.h_uncached_idle)
            scale = max(np.abs(x).max() for x in h)
            assert abs(vt.h_cached_idle[0]) <= 1e-12 * scale
            for T, x in zip(_bellman_holding(vt, c, beta, ch), h):
                np.testing.assert_allclose(T - vt.theta / beta, x, rtol=0, atol=1e-12 * scale)

    def test_warm_start_matches_cold(self, unit_content):
        rng = np.random.default_rng(7)
        cases = [(unit_content, 1.0, compute_I(unit_content, 1.0))]
        cases += [(*random_content(rng), None) for _ in range(3)]
        for c, beta, I in cases:
            I = compute_I(c, beta) if I is None else I
            prev = None
            for ch in (0.2 * I, 0.3 * I, 0.9 * I, 1.2 * I):
                cold = solve_holding(c, beta, ch)
                warm = solve_holding(c, beta, ch, warm=prev)
                assert warm.theta == pytest.approx(cold.theta, rel=1e-12)
                for f in ("greedy_cached_req", "greedy_cached_idle", "greedy_uncached_req"):
                    np.testing.assert_array_equal(getattr(warm, f), getattr(cold, f))
                prev = warm


class TestWhittleSweep:
    def test_extended_states_are_free(self, unit_content):
        s = SingleContentState(2, 0.3, True, False)
        grid = np.linspace(0, 0.23, 30)
        assert whittle_by_sweep(unit_content, 1.0, [s], grid) == [0.0]

    def test_saturating_branch(self, unit_content):
        I = compute_I(unit_content, 1.0)
        grid = np.linspace(0.0, 1.05 * I, 64)
        s = SingleContentState(5, 0.0, False, True)  # Q >= Q_hat = 1
        [w] = whittle_by_sweep(unit_content, 1.0, [s], grid)
        assert abs(w - I) <= grid[1] - grid[0] + 1e-9

    def test_matches_bisection_index(self, unit_content):
        tb = solve_case2(0.1, unit_content, 1.0)[0]
        s = SingleContentState(0, tb, True, False)
        grid = np.linspace(0.0, 0.227, 120)
        [w_sweep] = whittle_by_sweep(unit_content, 1.0, [s], grid)
        w = whittle_cached(unit_content, 1.0, 0, tb)
        assert abs(w_sweep - w) <= (grid[1] - grid[0]) + 1e-9

    def test_many_states_match_one_sweep_each(self, unit_content):
        # one sweep runs until its last state goes passive; each state's
        # index is the one its own sweep finds (Q_hat = 1 here)
        I = compute_I(unit_content, 1.0)
        grid = np.linspace(0.0, 1.05 * I, 64)
        states = [SingleContentState(0, 0.3, True, False),
                  SingleContentState(0, 0.0, False, True),
                  SingleContentState(3, 0.0, False, True),
                  SingleContentState(2, 0.3, True, False)]
        got = whittle_by_sweep(unit_content, 1.0, states, grid)
        assert got == [whittle_by_sweep(unit_content, 1.0, [s], grid)[0]
                       for s in states]
        assert got[3] == 0.0 and 0.0 < got[0] < got[2]


class TestPassiveInTable:
    def test_cached_copy_with_queue_reads_uncached_row(self, unit_content):
        # a cached copy with requests queued is decided as the uncached
        # request at that queue (capped at the table's q_max) and is
        # passive when not requested; at C_h = 0.1 the cached rows keep
        # at tau = 0.1 and evict at 0.3, while the uncached row fetches
        I = compute_I(unit_content, 1.0)
        seen = set()
        for ch in (0.1, 2 * I):
            vt = solve_holding(unit_content, 1.0, ch)
            cap = len(vt.greedy_uncached_req) - 1
            for q in (1, 2, cap, cap + 3):
                for tau in (0.1, 0.3):
                    passive = passive_in_table(vt, SingleContentState(q, tau, True, True))
                    assert passive == passive_in_table(vt, SingleContentState(q, 0.0, False, True))
                    assert passive == (vt.greedy_uncached_req[min(q, cap)] in (WAIT, FETCH_EVICT))
                    assert passive_in_table(vt, SingleContentState(q, tau, True, False))
                    seen.add(passive)
        assert seen == {False, True}
