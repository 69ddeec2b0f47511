import json
import pickle
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wrightomega

from aovcache import _ckernel, checks, thresholds, whittle
from aovcache.checks import bits_differ, dual_window, misplaced_breakpoints, table_window
from aovcache.cli import build_system
from aovcache.model import ContentParams, CostModel, SingleContentState
from aovcache.policies import PolicyTables, build_policy_tables, relaxed_lower_bound
from aovcache.thresholds import (
    content_constants,
    solve_thresholds,
    solve_thresholds_batch,
)
from aovcache.whittle import (
    BP_OFF,
    GRID_SIZE,
    Q_STAR,
    TAU_STAR,
    _cached_gaps,
    _classify_passive,
    build_content_tables,
    build_index_tables,
    cached_index_rows,
    default_state_grid,
    grid_taus,
    index_residual_cached,
    index_residual_uncached,
    passive_set_member,
    verify_indexability,
    whittle_cached,
    whittle_uncached,
)
from conftest import (EXTREME_COSTS, assert_breakpoints_match, assert_same_bits, desk_system,
                      random_content, scan_case2, scan_omega, scan_tables)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SEARCH = thresholds.search_candidates

needs_special = pytest.mark.skipif(_ckernel.special is None,
                                   reason="compiled special functions unavailable")


def unconfirmed_band_system():
    """An N=5 box system where case2 does not confirm the band of content
    3's last breakpoint, whose root error bound is infinite."""
    return desk_system(N=5, beta=149012.44153056672, M=1, c_w=47670.66116786624,
                       lam=5.677277972544335e-05, c_a=6.814966662459335e-06,
                       c_f=177.02795736314903, alpha=1.8143057977679513)


def config_system(name: str):
    """A shipped config's system, or paper.json cut to N=100, with the
    capacities of its sweep (its own M where it has none)."""
    if name == "paper-n100":
        return desk_system(beta=40.0), [25]
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    system = build_system(doc)
    return system, doc.get("sweep", {}).get("values", [system.M])


class TestCachedIndex:
    def test_zero_at_and_past_tau_star(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0, 0.0)
        assert whittle_cached(unit_content, 1.0, 0, ts.tau_star) == 0.0
        assert whittle_cached(unit_content, 1.0, 0, 2 * ts.tau_star) == 0.0

    def test_zero_for_any_backlog(self, unit_content):
        for tau in (0.0, 0.1, 5.0):
            assert whittle_cached(unit_content, 1.0, 3, tau) == 0.0

    def test_inverse_of_serve_threshold(self, unit_content):
        tb = solve_thresholds(unit_content, 1.0, 0.1).tau_bar
        w = whittle_cached(unit_content, 1.0, 0, tb)
        assert w == pytest.approx(0.1, abs=1e-8)
        # the spec's rounded query point stays within coarse tolerance
        assert whittle_cached(unit_content, 1.0, 0, 0.2144) == pytest.approx(0.1, abs=1e-3)

    def test_boundary_values_and_monotonicity(self, unit_content):
        I = solve_thresholds(unit_content, 1.0).I
        ts = solve_thresholds(unit_content, 1.0, 0.0)
        assert whittle_cached(unit_content, 1.0, 0, 0.0) == pytest.approx(I, abs=1e-8)
        taus = np.linspace(0.0, ts.tau_star, 25)
        ws = [whittle_cached(unit_content, 1.0, 0, float(t)) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(ws, ws[1:]))
        assert ws[-1] == pytest.approx(0.0, abs=1e-8)

    def test_subnormal_tau_reads_the_ceiling(self):
        # k*tau underflows to 0 in the Wright-omega argument's log, which
        # reads -inf without a warning (the suite turns warnings into errors)
        c = ContentParams(lam=1.0, p=1.0, costs=CostModel(1.0, 1.0, 1.0))
        assert whittle_cached(c, 1.0, 0, 5e-324) == solve_thresholds(c, 1.0).I

    def test_residual_check(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            c, beta = random_content(rng)
            ts = solve_thresholds(c, beta, 0.0)
            for frac in (0.15, 0.5, 0.85):
                tau = frac * ts.tau_star
                w = whittle_cached(c, beta, 0, tau)
                assert index_residual_cached(c, beta, tau, w) < 1e-7


class TestUncachedIndex:
    def test_below_wait_threshold(self, unit_content):
        assert whittle_uncached(unit_content, 1.0, 0) == 0.0  # Q* = 1

    def test_saturates_at_ceiling(self, unit_content):
        I = solve_thresholds(unit_content, 1.0).I
        assert whittle_uncached(unit_content, 1.0, 1) == pytest.approx(I, abs=1e-9)
        assert whittle_uncached(unit_content, 1.0, 10**6) == pytest.approx(I, abs=1e-9)

    def test_monotone_in_queue_with_flat_ends(self):
        rng = np.random.default_rng(13)
        found_middle = 0
        for _ in range(12):
            c, beta = random_content(rng)
            ts = solve_thresholds(c, beta, 0.0)
            ws = [whittle_uncached(c, beta, q) for q in range(ts.Q_hat + 3)]
            assert all(b >= a - 1e-12 for a, b in zip(ws, ws[1:]))
            assert all(w == 0.0 for w in ws[: ts.Q_star])
            assert all(w == pytest.approx(ts.I, abs=1e-9) for w in ws[ts.Q_hat:])
            if ts.Q_star < ts.Q_hat:
                found_middle += 1
                for q in range(ts.Q_star, ts.Q_hat):
                    assert index_residual_uncached(c, beta, q, ws[q]) < 1e-6
        assert found_middle >= 3  # the interior branch was actually exercised


class TestPassiveSets:
    def test_everything_passive_above_ceiling(self, unit_content):
        I = solve_thresholds(unit_content, 1.0).I
        states = default_state_grid(unit_content, 1.0)
        assert all(passive_set_member(unit_content, 1.0, 1.5 * I, s) for s in states)

    def test_serving_fresh_requested_copy_is_active(self, unit_content):
        s = SingleContentState(0, 0.3, True, True)  # tau < tau* = 0.6458
        assert not passive_set_member(unit_content, 1.0, 0.0, s)

    def test_backlogged_idle_copy_always_passive(self, unit_content):
        s = SingleContentState(3, 0.4, True, False)
        for ch in (0.0, 0.05, 0.2, 1.0):
            assert passive_set_member(unit_content, 1.0, ch, s)

    def test_membership_flips_at_the_index(self, unit_content):
        eps = 1e-6
        cases = [
            SingleContentState(0, 0.3, True, False),
            SingleContentState(0, 0.1, True, False),
            SingleContentState(1, 0.0, False, True),
        ]
        for s in cases:
            w = (whittle_cached(unit_content, 1.0, s.Q, s.tau) if s.cached
                 else whittle_uncached(unit_content, 1.0, s.Q))
            if w > eps:
                assert not passive_set_member(unit_content, 1.0, w - eps, s)
            assert passive_set_member(unit_content, 1.0, w + eps, s)


class TestIndexability:
    def test_default_grids_unit(self, unit_content):
        assert verify_indexability(unit_content, 1.0) == []

    def test_single_point_grids(self, unit_content):
        s = [SingleContentState(0, 0.1, True, False)]
        assert verify_indexability(unit_content, 1.0, np.array([0.05]), s) == []

    def test_random_contents(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            c, beta = random_content(rng)
            assert verify_indexability(c, beta) == []

    @pytest.mark.parametrize("config", ["desk.json", "unit.json"])
    def test_batched_thresholds_match_one_c_h_at_a_time(self, config):
        # the one kernel call per content against solve_thresholds per C_h,
        # and the violations against the loop that used them
        system = build_system(json.loads((CONFIGS / config).read_text()))
        for c in system.contents[:5]:
            I = solve_thresholds(c, system.beta).I
            grid = np.linspace(0.0, 1.05 * I, 200)
            one_at_a_time = [solve_thresholds(c, system.beta, float(ch)) for ch in grid]
            assert solve_thresholds_batch(c, system.beta, grid) == one_at_a_time
            states = default_state_grid(c, system.beta)
            old = []
            for s in states:
                seen = False
                for ch, ts in zip(grid, one_at_a_time):
                    member = _classify_passive(ts, s)
                    seen |= member
                    if seen and not member:
                        old.append((s, float(ch)))
            assert verify_indexability(c, system.beta, grid, states) == old


def first_probe_only(evaluate, *args):
    """``thresholds.search_candidates`` where the caller's first probe must
    decide every row: the search may evaluate nothing more."""
    def unused(rows, q):
        raise AssertionError("a pair placed by the estimate did not decide")

    return SEARCH(unused, *args)


class TestContentTables:
    def test_matches_exact_bisection(self):
        # the table holds the exact index at its grid points, so the index
        # must sit inside the bracket spanned by the two neighbouring table
        # cells (W is nonincreasing in tau)
        rng = np.random.default_rng(31)
        for _ in range(5):
            c, beta = random_content(rng)
            tb = build_content_tables(c, beta)
            g = len(tb.w_of_tau) - 1
            ts = solve_thresholds(c, beta, 0.0)
            for tau in np.linspace(0.0, ts.tau_star * 0.999, 40):
                i = int(tau * tb.inv_step)
                hi = tb.w_of_tau[i]
                lo = tb.w_of_tau[min(i + 1, g)]
                w_exact = whittle_cached(c, beta, 0, float(tau))
                assert lo - 1e-12 <= w_exact <= hi + 1e-12
            for q in range(ts.Q_hat + 2):
                assert tb.uncached(q) == whittle_uncached(c, beta, q)

    @pytest.mark.parametrize("name", ["desk", "paper-n100", "paper", *EXTREME_COSTS,
                                      "unconfirmed-band"])
    def test_content_alone_equals_its_system_build(self, name):
        # a content's tables depend on that content and beta alone: its
        # breakpoints and cached-index row built alone are its system
        # build's, bit for bit (a breakpoint once moved by up to 24 ulps
        # with the contents solved beside it)
        if name in EXTREME_COSTS:
            system = desk_system(N=50, beta=4.0, M=10, **EXTREME_COSTS[name])
        elif name == "unconfirmed-band":
            system = unconfirmed_band_system()
        else:
            system = config_system(name)[0]
        tables = build_index_tables(system.contents, system.beta)[0]
        for c, row in zip(system.contents, tables.content):
            alone = build_index_tables((c,), system.beta)[0]
            assert_same_bits(alone.bps, np.array(row.breakpoints))
            assert_same_bits(alone.w_of_tau[0], row.w_of_tau)

    def test_zero_conditions(self, unit_content):
        tb = build_content_tables(unit_content, 1.0)
        assert tb.cached_idle(2, 0.1) == 0.0
        assert tb.cached_idle(0, tb.tau_star) == 0.0
        assert tb.cached_idle(0, 10.0) == 0.0

    @pytest.mark.parametrize("name", ["desk", "paper-n100", "paper", "unit"])
    def test_window_equals_full_width_scan(self, name):
        # against the reference from the full scan alone: the cached-index
        # rows, tau_star and Q_star bit for bit, and every breakpoint the
        # root of a band that the search confirms, within it of the plain
        # bisection; no point of the cached grid needs more than its first
        # probe, and no breakpoint the plain bisection
        system = config_system(name)[0]
        tables, counts = build_index_tables(system.contents, system.beta)
        tau_star, q_star, bps, w_of_tau = scan_tables(system)
        assert counts.searched == counts.fallback == 0
        assert w_of_tau.shape == (system.N, GRID_SIZE + 1)
        assert_same_bits(tables.w_of_tau, w_of_tau)
        assert_same_bits(tables.cdbl[:, TAU_STAR], tau_star)
        assert (tables.cint[:, Q_STAR] == q_star).all()
        assert not misplaced_breakpoints(tables).any()
        assert_breakpoints_match(tables, bps)

    @pytest.mark.parametrize("name", ["desk", "paper-n100", "paper", "unit"])
    def test_estimate_decides_every_window(self, name, monkeypatch):
        # the pair that the closed-form Q_bar estimate places decides every
        # content of every bound evaluation over the config's capacities and
        # of the tables' solves: the search evaluates nothing more; and
        # every row of the tables' solves, the bisection's included, has its
        # estimate within one of the full scan's Q_bar
        system, capacities = config_system(name)
        seen = []
        estimate = thresholds._q_bar_estimate

        def recorded(C_h, k, xb):
            est = estimate(C_h, k, xb)
            seen.append((C_h, k, est))
            return est

        with monkeypatch.context() as m:
            m.setattr(thresholds, "search_candidates", first_probe_only)
            for c in capacities:
                relaxed_lower_bound(replace(system, M=c))
            m.setattr(thresholds, "_q_bar_estimate", recorded)
            build_index_tables(system.contents, system.beta)
        assert seen
        for C_h, k, est in seen:
            assert np.abs(est - scan_case2(C_h, k)[2]).max() <= 1

    def test_wrong_breakpoints_cost_only_time(self):
        # the window predicts Q_bar from the breakpoints; shifted ones send
        # rows on to the search but leave every value as it was
        system = desk_system()
        k = content_constants(system.contents, system.beta)
        tables = build_index_tables(system.contents, system.beta)[0]
        tau_star, q_star = tables.cdbl[:, TAU_STAR], tables.cint[:, Q_STAR]
        bps = [t.breakpoints for t in tables.content]
        counts = np.array([len(b) for b in bps])

        def rows_from(bps):
            flat = np.array([w for b in bps for w in b])
            return cached_index_rows(k, tau_star, q_star, flat, counts)

        rows, (fallback, _) = rows_from(bps)
        moved, (moved_fallback, _) = rows_from([b[1:] + (0.0,) * min(len(b), 1) for b in bps])
        assert fallback == 0 < moved_fallback
        assert_same_bits(rows, moved)

    def test_wrong_roots_cost_only_time(self, monkeypatch):
        # roots shifted off the breakpoint fail the band check and send
        # every pair to the plain bisection, whose midpoints pass the
        # breakpoint check as the roots do; the rest of the tables stays
        system = desk_system()
        tables, counts = build_index_tables(system.contents, system.beta)
        bps = scan_tables(system)[2]
        assert counts.fallback == 0 < tables.bps.size
        estimate = whittle.breakpoint_estimate

        def shifted(k, q):
            root, err = estimate(k, q)
            return root * (1.0 + 1e-6), err

        monkeypatch.setattr(whittle, "breakpoint_estimate", shifted)
        moved, moved_counts = build_index_tables(system.contents, system.beta)
        assert moved_counts.fallback == tables.bps.size
        assert_same_bits(moved.bps, bps)
        assert_same_bits(moved.w_of_tau, tables.w_of_tau)
        assert not misplaced_breakpoints(tables).any()
        assert not misplaced_breakpoints(moved).any()
        assert_breakpoints_match(tables, bps)
        assert misplaced_breakpoints(replace(tables, bps=tables.bps * (1.0 + 1e-6))).all()

    def test_unconfirmed_band_takes_the_plain_bisection(self):
        # a box system where case2 does not confirm one breakpoint's band:
        # that pair takes the plain bisection's midpoint, the reference's
        # bit for bit, and the tables still pass their check
        system = unconfirmed_band_system()
        tables, counts = build_index_tables(system.contents, system.beta)
        bps = scan_tables(system)[2]
        assert counts.fallback == 1
        assert tables.bps.size == bps.size == 60
        assert np.count_nonzero(~bits_differ(tables.bps, bps)) == 1
        assert not misplaced_breakpoints(tables).any()
        assert_breakpoints_match(tables, bps)
        assert table_window(system).passed

    def test_moved_fallback_breakpoint_is_misplaced(self):
        # the same system's fallback pair has an infinite root error bound,
        # so its breakpoint is held to the plain bisection's last bracket:
        # moved twice that far either way, it alone misses its band
        system = unconfirmed_band_system()
        tables = build_index_tables(system.contents, system.beta)[0]
        k = content_constants(system.contents, system.beta)
        i = int(tables.cint[4, BP_OFF]) - 1  # content 3's last
        step = 2.0 * (k.I[3] * 2.0 ** -60 + 2.0 * np.spacing(tables.bps[i]))
        for sign in (-1.0, 1.0):
            bps = tables.bps.copy()
            bps[i] += sign * step
            assert misplaced_breakpoints(replace(tables, bps=bps)).nonzero()[0].tolist() == [i]

    def test_table_window_fails_on_a_changed_table(self, monkeypatch):
        # one cached-index cell one ulp up is one differing value; every
        # breakpoint scaled by 1 + 1e-6 misses its band
        system = desk_system()
        assert table_window(system).passed
        rows, breakpoints = whittle.cached_index_rows, whittle._breakpoints

        def nudged(*args):
            w, counts = rows(*args)
            w[3, 100] = np.nextafter(w[3, 100], np.inf)
            return w, counts

        def scaled(*args):
            bps, counts, fallback = breakpoints(*args)
            return bps * (1.0 + 1e-6), counts, fallback

        with monkeypatch.context() as m:
            m.setattr(whittle, "cached_index_rows", nudged)
            result = table_window(system)
        assert not result.passed and result.error == 1
        monkeypatch.setattr(whittle, "_breakpoints", scaled)
        result = table_window(system)
        assert not result.passed
        assert result.error == build_index_tables(system.contents, system.beta)[0].bps.size > 0

    def test_a_pick_one_up_fails_both_windows(self, monkeypatch):
        # a search that returns pick + 1 on one row, for the build, the bound
        # and the references alike: the tables and relaxed_batch still match
        # their references bit for bit, but the pick fails its certificate
        system = desk_system()
        search = thresholds.search_candidates

        def one_up(*args):
            pick, dist, values = search(*args)
            pick[:1] += 1
            return pick, dist, values

        for module in (thresholds, whittle, checks):
            monkeypatch.setattr(module, "search_candidates", one_up)
        result = table_window(system)
        assert not result.passed
        assert result.detail.startswith("0 of ") and " 0 of its picks fail" not in result.detail
        assert not dual_window(system, 20).passed

    def test_ill_conditioned_build_needs_no_full_scan(self, monkeypatch):
        # desk's costs with c_f = 1e5 over 2 contents: 8.7k breakpoints,
        # Q_hat to 7.3k; bisection steps next to a Q_bar jump once sent
        # such rows to the scan of every candidate, and the build took ~1 s.
        # Every band is confirmed, by the pairs alone
        system = desk_system(N=2, M=1, c_f=1e5)
        monkeypatch.setattr(thresholds, "search_candidates", first_probe_only)
        tables, counts = build_index_tables(system.contents, system.beta)
        assert counts.fallback == 0 < tables.bps.size

    def test_reference_row_in_bounded_memory(self):
        # the same system, Q_hat to 7.3k: cached_indices, the search from
        # candidate 0 as verify's table-window starts it, at tau = 0, every
        # grid point and tau_star, within 64 MB where one (taus x Q_hat+3)
        # scan took 239 MB; the tables' row bit for bit
        system = desk_system(N=2, M=1, c_f=1e5)
        k = content_constants(system.contents, system.beta)
        tables = build_index_tables(system.contents, system.beta)[0]
        t = tables.cdbl[0, TAU_STAR]
        assert k.q_hat[0] > 7000
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            w = whittle.cached_indices(k.take([0]), t, np.r_[0.0, grid_taus(t), t])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert_same_bits(w, tables.w_of_tau[0])

    def test_grid_point_at_a_jump_evaluates_its_guard(self):
        # just below the serve threshold of each breakpoint Q_bar has
        # stepped up, and its candidate's floor argument sits at the lower
        # edge of its cell: there the guard is evaluated, and the value is
        # the full scan's
        system = desk_system()
        k = content_constants(system.contents, system.beta)
        tables = build_index_tables(system.contents, system.beta)[0]
        tau_star, q_star = tables.cdbl[:, TAU_STAR], tables.cint[:, Q_STAR]
        bps = [t.breakpoints for t in tables.content]
        i = max(range(system.N), key=lambda i: len(bps[i]))
        b = np.array(bps[i])
        ki = k.take([i])
        q = q_star[i] + np.arange(len(b)) + 1.0
        tbar = thresholds.case2_candidates(b, ki.take(np.zeros(len(b), dtype=int)),
                                           q[:, None])[0][:, 0]
        tau = np.concatenate([tbar * (1.0 - m * 2.0 ** -52) for m in (1, 2, 4, 8)])
        keep = (tau > 0.0) & (tau < tau_star[i])
        tau, c = tau[keep][None], np.tile(q, 4)[keep][None]
        x, (_, guards) = _cached_gaps(ki, tau, c)
        assert guards >= 1
        assert_same_bits(x[0], scan_omega(ki.take(np.zeros(tau.size, np.intp)), tau[0]))

    @pytest.mark.parametrize("indices", [True, False])
    def test_policy_tables_are_read_only(self, indices):
        # also when replaced or unpickled, whose rows are views again
        built = build_policy_tables(desk_system(), indices)
        for tables in (built, replace(built, w_of_tau=2.0 * built.w_of_tau),
                       pickle.loads(pickle.dumps(built))):
            arrays = [getattr(tables, f.name) for f in fields(PolicyTables)
                      if isinstance(getattr(tables, f.name), np.ndarray)]
            assert len(arrays) == 7
            for a in arrays + [c.w_of_tau for c in tables.content]:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            assert all(np.shares_memory(c.w_of_tau, tables.w_of_tau) for c in tables.content)

    def test_scipy_fallback_gives_the_same_tables(self, monkeypatch):
        system = desk_system()
        compiled = build_policy_tables(system)
        monkeypatch.setattr(_ckernel, "special", None)
        fallback = build_policy_tables(system)
        assert compiled.w_of_tau.tobytes() == fallback.w_of_tau.tobytes()
        assert compiled.bps.tobytes() == fallback.bps.tobytes()


@needs_special
class TestWrightOmega:
    """The library's Wright omega is scipy.special.wrightomega, bit for bit."""

    def test_grid_and_branch_points(self):
        # where the algorithm switches: exp(x) below -50, its three initial
        # guesses split at -2 and 1, and x itself above 1e20
        edges = np.array([-50.0, -2.0, 1.0, 1e20])
        x = np.concatenate([
            np.linspace(-60.0, 60.0, 240_001),
            np.sinh(np.linspace(-49.0, 49.0, 20_001)),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300],
        ])
        assert_same_bits(_ckernel.wright_omega(x), wrightomega(x))

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_doubles(self, x):
        assert_same_bits(_ckernel.wright_omega(x), wrightomega(x))

    def test_keeps_shape(self):
        assert _ckernel.wright_omega(0.5).shape == ()
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert_same_bits(_ckernel.wright_omega(x), wrightomega(x))
