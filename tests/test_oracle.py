import math

import numpy as np
import pytest

from aovcache.model import SingleContentState
from aovcache.oracle import (
    FETCH_EVICT,
    FETCH_KEEP,
    SERVE_KEEP,
    WAIT,
    Grid,
    _expint_kernel,
    passive_in_table,
    value_iterate_holding,
    value_iterate_infinite,
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
    J = _expint_kernel(beta, dtau, len(h))(h)
    taus = np.arange(400) * dtau
    for j in (0, 17, 199, 398, 399):
        t = np.linspace(0.0, taus[-1] - taus[j], 200001)
        vals = np.interp(taus[j] + t, taus, h)
        brute = np.trapezoid(beta * np.exp(-beta * t) * vals, t)
        brute += math.exp(-beta * (taus[-1] - taus[j])) * h[-1]
        assert J[j] == pytest.approx(brute, abs=5e-8)


class TestInfiniteVI:
    def test_matches_closed_form_unit(self):
        vt = value_iterate_infinite(1, 1, 1, 1, 0.5)
        tau, q, theta = solve_infinite_capacity(1, 1, 1, 1, 0.5)
        assert vt.theta == pytest.approx(theta, rel=1e-4)
        assert abs(vt.tau_serve_end() - tau) <= vt.grid.dtau
        assert vt.queue_fetch_threshold() == q

    def test_small_fetch_cost(self):
        vt = value_iterate_infinite(1, 1, 1, 1e-4, 0.5)
        assert vt.theta < 0.02
        # greedy fetches once tau is past the (tiny) serve threshold
        assert vt.greedy[3, -1] == FETCH_KEEP

    def test_relative_costs_monotone(self):
        # h(Q+q, tau+t) >= h(Q, tau)
        vt = value_iterate_infinite(1, 1, 1, 1, 0.5)
        h = vt.h
        assert (np.diff(h, axis=0) >= -1e-9).all()
        assert (np.diff(h, axis=1) >= -1e-9).all()

    def test_first_order_in_grid_step(self):
        base = Grid.for_params(1.0, 1.0, 1.0, 1.0, 0.5)
        coarse = Grid(base.tau_max, base.dtau * 16, base.q_max)
        fine = Grid(base.tau_max, base.dtau * 8, base.q_max)
        theta = solve_infinite_capacity(1, 1, 1, 1, 0.5)[2]
        e_coarse = abs(value_iterate_infinite(1, 1, 1, 1, 0.5, grid=coarse).theta - theta)
        e_fine = abs(value_iterate_infinite(1, 1, 1, 1, 0.5, grid=fine).theta - theta)
        assert e_fine <= 0.6 * e_coarse

    def test_threshold_shape_of_greedy_regions(self):
        vt = value_iterate_infinite(1.3, 0.7, 0.9, 1.1, 0.3)
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
        vt = value_iterate_holding(unit_content, 1.0, 0.0)
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
        vt = value_iterate_holding(unit_content, 1.0, 2 * I)
        assert vt.theta == pytest.approx(0.75, rel=5e-3)
        used = set(vt.greedy_uncached_req.tolist())
        assert used == {WAIT, FETCH_EVICT}
        assert vt.queue_fetch_threshold() == 1  # Q_hat

    def test_mid_ch_cross_validates_case2(self, unit_content):
        vt = value_iterate_holding(unit_content, 1.0, 0.1)
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
                vt = value_iterate_holding(c, beta, ch)
                assert vt.theta == pytest.approx(want, rel=5e-3)


class TestWhittleSweep:
    def test_extended_states_are_free(self, unit_content):
        s = SingleContentState(2, 0.3, True, False)
        grid = np.linspace(0, 0.23, 30)
        assert whittle_by_sweep(unit_content, 1.0, [s], grid) == [0.0]

    def test_saturating_branch(self, unit_content):
        I = compute_I(unit_content, 1.0)
        grid = np.linspace(0.0, 1.05 * I, 64)
        s = SingleContentState(5, 0.0, False, True)  # Q >= Q_hat = 1
        [w] = whittle_by_sweep(unit_content, 1.0, [s], grid, tol=1e-7)
        assert abs(w - I) <= grid[1] - grid[0] + 1e-9

    def test_matches_bisection_index(self, unit_content):
        tb = solve_case2(0.1, unit_content, 1.0)[0]
        s = SingleContentState(0, tb, True, False)
        grid = np.linspace(0.0, 0.227, 120)
        [w_sweep] = whittle_by_sweep(unit_content, 1.0, [s], grid, tol=1e-7)
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
        got = whittle_by_sweep(unit_content, 1.0, states, grid, tol=1e-7)
        assert got == [whittle_by_sweep(unit_content, 1.0, [s], grid, tol=1e-7)[0]
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
            vt = value_iterate_holding(unit_content, 1.0, ch)
            cap = len(vt.greedy_uncached_req) - 1
            for q in (1, 2, cap, cap + 3):
                for tau in (0.1, 0.3):
                    passive = passive_in_table(vt, SingleContentState(q, tau, True, True))
                    assert passive == passive_in_table(vt, SingleContentState(q, 0.0, False, True))
                    assert passive == (vt.greedy_uncached_req[min(q, cap)] in (WAIT, FETCH_EVICT))
                    assert passive_in_table(vt, SingleContentState(q, tau, True, False))
                    seen.add(passive)
        assert seen == {False, True}
