import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import lambertw

from aovcache import _ckernel, checks, thresholds
from aovcache.model import ContentParams, CostModel, zipf_popularity
from aovcache.thresholds import (
    case2_batch,
    case2_candidates,
    content_constants,
    gap_value,
    relaxed_batch,
    solve_gap,
    solve_thresholds,
    zero_holding_thresholds,
)
from aovcache.whittle import build_content_tables, build_index_tables
from conftest import assert_same_bits, desk_system, random_content


def brute_serve_wait_fetch(beta, lam, c_a, c_f, c_w, q_max=60):
    """Independent oracle: enumerate queue candidates and apply the floor check."""
    hits = []
    for q in range(q_max):
        tau = (-(q + 1) + math.sqrt(
            (q + 1) ** 2 + 2 * beta * c_f / (c_a * lam) + q * (q + 1) * c_w / (c_a * lam)
        )) / beta
        if math.floor(beta * c_a * lam * tau / c_w) == q:
            hits.append((tau, q))
    return hits


class TestInfiniteCapacity:
    def test_unit_example(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0)
        assert ts.tau_star == pytest.approx(-2.0 + math.sqrt(7.0), abs=1e-12)
        assert ts.Q_star == 1
        assert ts.theta == pytest.approx(ts.tau_star)
        hits = brute_serve_wait_fetch(1, 1, 1, 1, 0.5, q_max=11)
        assert hits == [(pytest.approx(ts.tau_star), 1)]

    def test_huge_waiting_cost_forces_no_wait(self):
        ts = solve_thresholds(ContentParams(1, 1, CostModel(1, 1, 1e9)), 1)
        assert ts.Q_star == 0
        assert ts.tau_star == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-12)

    def test_free_fetching_kills_cost(self):
        ts = solve_thresholds(ContentParams(1, 1, CostModel(1, 1e-9, 1.0)), 1)
        assert ts.Q_star == 0
        assert ts.tau_star < 1e-4 and ts.theta < 1e-4

    def test_unique_and_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            c, beta = random_content(rng)
            cm = c.costs
            rate = c.p * beta
            hits = brute_serve_wait_fetch(rate, c.lam, cm.c_a, cm.c_f, cm.c_w)
            assert len(hits) == 1
            ts = solve_thresholds(ContentParams(c.lam, 1.0, cm), rate)
            assert (ts.tau_star, ts.Q_star) == (pytest.approx(hits[0][0]), hits[0][1])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            solve_thresholds(ContentParams(1, 1, CostModel(1, 1, 1)), 0.0)
        with pytest.raises(ValueError):
            solve_thresholds(ContentParams(1, 1, CostModel(1, -1, 1)), 1)


class TestQHat:
    def test_unit_example(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0, math.inf)  # never-cache: theta_case1
        assert ts.Q_hat == 1
        assert ts.theta == pytest.approx(0.75)
        assert ts.tau0 == pytest.approx(0.75)
        # closed form before flooring: (sqrt(17)-1)/2 ~ 1.56
        assert (math.sqrt(17) - 1) / 2 == pytest.approx(1.5616, abs=1e-4)

    def test_free_fetch(self):
        ts = solve_thresholds(ContentParams(1, 1, CostModel(1, 1e-9, 0.5)), 1, math.inf)
        assert ts.Q_hat == 0 and ts.theta < 1e-8

    def test_paper_content_one(self):
        p1 = float(zipf_popularity(1000, 1.0)[0])
        c = ContentParams(lam=0.01, p=p1, costs=CostModel(0.1, 1.0, 0.01))
        assert solve_thresholds(c, 40.0).Q_hat == 32
        # independent fixed-point enumeration
        r = p1 * 40.0
        fixed = [q for q in range(200)
                 if math.floor((2 * r * 1.0 + 0.01 * q * (q + 1)) / (2 * 0.01 * (q + 1))) == q]
        assert fixed == [32]

    def test_fixed_point_on_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            c, beta = random_content(rng)
            cm = c.costs
            ts = solve_thresholds(c, beta, math.inf)
            q_hat, r = ts.Q_hat, c.p * beta
            assert math.floor((2 * r * cm.c_f + cm.c_w * q_hat * (q_hat + 1))
                              / (2 * cm.c_w * (q_hat + 1))) == q_hat
            assert ts.tau0 == pytest.approx(ts.theta / (r * cm.c_a * c.lam))

    def test_triangular_ratio_has_a_q_hat(self):
        # p*beta*c_f/c_w = 15 = 5*6/2: Q_hat = 5 exactly, where 4 and 5 cost
        # the same, but in floats 4's floor argument is 5.0 and 5's is
        # 4.999999999999999, so no candidate passes the floor test (this
        # raised ConsistencyError on a valid system)
        p, c_w = 0.05263157894736843, 0.0035087719298245623  # p: Zipf, N=19, alpha=0
        assert 1.0 * p / c_w == 15.0
        ts = solve_thresholds(ContentParams(1.0, p, CostModel(1.0, 1.0, c_w)), 1.0, math.inf)
        assert ts.Q_hat == 5
        assert ts.theta == pytest.approx(5.0 * c_w, rel=1e-15)


class TestComputeI:
    def test_unit_example(self, unit_content):
        I = solve_thresholds(unit_content, 1.0).I
        assert I == pytest.approx(0.75 - (1.0 - math.exp(-0.75)), abs=1e-12)
        assert I == pytest.approx(0.2224, abs=5e-5)

    def test_vanishes_with_free_fetch(self):
        c = ContentParams(lam=1.0, p=1.0, costs=CostModel(1.0, 1e-9, 0.5))
        assert solve_thresholds(c, 1.0).I < 1e-8

    def test_is_the_serve_collapse_point(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0, solve_thresholds(unit_content, 1.0).I)
        assert ts.tau_bar == pytest.approx(0.0, abs=1e-9)
        assert ts.tau_tilde == pytest.approx(ts.tau0, abs=1e-9)
        assert ts.Q_bar == ts.Q_hat


class TestCase2:
    def test_collapses_to_serve_wait_fetch_at_zero(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0, 0.0)
        [(tau, q)] = brute_serve_wait_fetch(1, 1, 1, 1, 0.5)
        assert ts.tau_bar == pytest.approx(tau, abs=1e-9)
        assert ts.tau_tilde == pytest.approx(tau, abs=1e-9)
        assert ts.Q_bar == q and ts.theta == pytest.approx(tau, abs=1e-9)  # theta = tau here

    def test_collapse_uses_content_request_rate(self):
        # with p < 1 the C_h = 0 solution matches the solver run at rate p*beta
        c = ContentParams(lam=0.3, p=0.35, costs=CostModel(0.7, 1.3, 0.2))
        ts = solve_thresholds(c, 3.0, 0.0)
        at_rate = solve_thresholds(ContentParams(0.3, 1.0, c.costs), 0.35 * 3.0)
        assert ts.tau_bar == pytest.approx(at_rate.tau_star, abs=1e-9)
        assert ts.theta == pytest.approx(at_rate.theta, abs=1e-9)

    def test_worked_example_ch_01(self, unit_content):
        ts = solve_thresholds(unit_content, 1.0, 0.1)
        tb, tt, qb, theta = ts.tau_bar, ts.tau_tilde, ts.Q_bar, ts.theta
        x = tt - tb
        assert x == pytest.approx(0.483, abs=1e-3)
        assert tb == pytest.approx(0.2143, abs=1e-3)
        assert tt == pytest.approx(0.6974, abs=1e-3)
        assert qb == 1
        assert theta == pytest.approx(tt)

    def test_residuals_below_1e9(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            c, beta = random_content(rng)
            for frac in (0.0, 0.1, 0.37, 0.8, 1.0):
                r = checks.residuals(c, beta, frac)
                assert r.passed, (frac, r.detail)

    def test_monotone_and_ordered_in_ch(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            r = checks.threshold_monotonicity(*random_content(rng), 100, low=1 / 100)
            assert r.passed, r.detail

    def test_domain_errors(self, unit_content):
        with pytest.raises(ValueError):
            solve_thresholds(unit_content, 1.0, -0.1)
        # above the ceiling I the content is never cached
        ts = solve_thresholds(unit_content, 1.0, 2 * solve_thresholds(unit_content, 1.0).I)
        assert (ts.tau_bar, ts.tau_tilde, ts.Q_bar, ts.theta) == (0.0, ts.tau0, ts.Q_hat, 0.75)

    def test_degenerate_popularity_rejected(self):
        c = ContentParams(lam=1.0, p=0.0, costs=CostModel(1, 1, 1))
        with pytest.raises(ValueError):
            solve_thresholds(c, 1.0, 0.0)


class TestBundle:
    def test_threshold_set_ordering(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            c, beta = random_content(rng)
            I = solve_thresholds(c, beta).I
            for ch in (0.0, 0.4 * I, I):
                ts = solve_thresholds(c, beta, ch)
                assert ts.tau_bar <= ts.tau_star + 1e-12
                assert ts.tau_star <= ts.tau_tilde + 1e-12
                assert ts.tau_tilde <= ts.tau0 + 1e-12
                assert ts.Q_star <= ts.Q_bar <= ts.Q_hat
                cm = c.costs
                qb_floor = math.floor(c.p * beta * cm.c_a * c.lam * ts.tau_tilde / cm.c_w)
                assert abs(qb_floor - ts.Q_bar) <= 1  # exact off boundary, +-1 at ties

    def test_batched_zero_holding_equals_scalar(self, unit_content):
        # the table build uses the batched form; seeded metrics rely on it
        # matching the scalar solver bit for bit
        rng = np.random.default_rng(31)
        for contents, beta in [
            (desk_system().contents, 4.0),
            (desk_system(N=100, beta=40.0).contents, 40.0),
            ((unit_content,), 1.0),
        ] + [((c,), b) for c, b in (random_content(rng) for _ in range(10))]:
            batched = zero_holding_thresholds(content_constants(contents, beta))
            assert batched == [solve_thresholds(c, beta, 0.0) for c in contents]

    def test_ceiling_is_free_of_cancellation(self):
        # beta*tau0 = 1e-9, where I's direct form beta*tau0 - 1 +
        # exp(-beta*tau0) cancels to 0: I is gap_value's series, so case 2
        # holds below it, and relaxed_batch, the tables and the scalar
        # solvers read one tau_star at C_h = 0
        c = ContentParams(lam=1.0, p=1.0, costs=CostModel(1.0, 1.0, 1.0))
        k = content_constants((c,), 1e-9)
        x = 1e-9 * float(k.tau0[0])
        assert x - 1.0 + math.exp(-x) == 0.0
        assert k.I[0] == gap_value(x) > 0.0
        tau_star = case2_batch(0.0, k)[0][0]
        assert tau_star > 0.0
        assert relaxed_batch(0.0, k).tau_bar[0] == tau_star
        assert zero_holding_thresholds(k)[0].tau_star == tau_star
        assert solve_thresholds(c, 1e-9, 0.0).tau_star == tau_star
        assert build_content_tables(c, 1e-9).tau_star == tau_star

    def test_ceiling_of_a_system_whose_direct_form_read_0(self):
        # beta*tau0 = 8.9e-14 and 2.2e-13, where the direct form of I read
        # exactly 0 and so never cached these contents at any C_h
        cm = CostModel(1.11e5, 0.00441, 2.1e-6)
        contents = [ContentParams(lam=3.47e4, p=float(p), costs=cm)
                    for p in zipf_popularity(2, 2.68)]
        k = content_constants(contents, 5.5)
        x = k.beta * k.tau0
        assert x.max() < 1e-12
        assert (k.I > 0.0).all()
        assert k.I.tolist() == [c.p * c.lam * cm.c_a * float(gap_value(y))
                                for c, y in zip(contents, x.tolist())]
        assert k.I.tolist() == pytest.approx([1.313e-17, 1.299e-17], rel=1e-3)

    def test_optimal_cost_continuous_at_I(self, unit_content):
        I = solve_thresholds(unit_content, 1.0).I
        below = solve_thresholds(unit_content, 1.0, I * (1 - 1e-9)).theta
        above = solve_thresholds(unit_content, 1.0, I * 2).theta
        assert below == pytest.approx(above, rel=1e-6)
        assert above == pytest.approx(0.75)


def test_pair_decides_a_hit_whose_guard_is_near_its_boundary():
    # just past each Q_bar jump of desk's contents, candidate Q hits its
    # cell and its guard Q-1 lies above its own by less than the near
    # tolerance: the pair decides those rows, and case2 reads the full
    # scan's bits there
    system = desk_system()
    k = content_constants(system.contents, system.beta)
    bps = [c.breakpoints for c in build_index_tables(system.contents, system.beta)[0].content]
    b = np.concatenate(bps)
    steps = [np.nextafter(b, np.inf)]
    for _ in range(7):
        steps.append(np.nextafter(steps[-1], np.inf))
    ch = np.concatenate(steps)
    kk = k.take(np.tile(np.repeat(np.arange(system.N), [len(x) for x in bps]), len(steps)))
    full = case2_batch(ch, kk)
    q = full[2].astype(float)
    _, _, v, ok = case2_candidates(ch, kk, np.stack([q - 1.0, q], 1))
    v, ok, pair = v.T, ok.T, np.stack([q - 1.0, q])
    hit = ok[1] & (np.floor(v[1]) == q)
    near = (q >= 1.0) & ok[0] & (v[0] >= q) & (v[0] - q < thresholds._NEAR * q)
    rows = np.flatnonzero(hit & near)
    assert rows.size > ch.size // 2
    assert thresholds.window_consistent(v, pair, ok)[rows].all()
    for a, b in zip(thresholds.case2(ch[rows], kk.take(rows)), full):
        assert_same_bits(a, b[rows])


def test_last_resort_scans_in_bounded_memory():
    # Zipf alpha = 1 over 15 contents whose Q_hat runs to 11.2M: at
    # C_h = 0.999 I the scan of every candidate 0..Q_hat+2 by case2_batch,
    # case2's last resort and the checks' reference, would take ~0.7 GB an
    # array; it goes in blocks, and answers within 64 MB what case2 reads
    # off its pairs
    cm = CostModel(3.60, 5.51e4, 1.14e-6)
    contents = [ContentParams(lam=3.72e5, p=float(p), costs=cm)
                for p in zipf_popularity(15, 1.0)]
    k = content_constants(contents, 4276.0)
    assert k.q_hat.max() > 11_000_000
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        full = case2_batch(0.999 * k.I, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    for a, b in zip(thresholds.case2(0.999 * k.I, k), full):
        assert_same_bits(a, b)


@pytest.mark.skipif(_ckernel.special is None,
                    reason="compiled special functions unavailable")
class TestLambertW0:
    """The library's Lambert W0 is scipy.special.lambertw(z).real, bit for
    bit, on the arguments ``solve_gap`` passes it."""

    def test_gap_equation_range(self):
        # solve_gap evaluates W0(-exp(-1 - c)) for c >= 1e-3 only
        c = np.concatenate([np.geomspace(1e-3, 800.0, 200_001),
                            np.linspace(1e-3, 3.0, 100_001)])
        z = -np.exp(-1.0 - c)
        assert_same_bits(_ckernel.lambert_w0(z), lambertw(z).real)

    def test_start_switch_and_signed_zero(self):
        # |z + 1/e| = 0.3 is where the branch-point series gives way to the
        # Pade start; step 8 doubles to either side of it
        z = [0.3 - math.exp(-1.0)]
        for _ in range(8):
            z = [np.nextafter(z[0], -np.inf), *z, np.nextafter(z[-1], np.inf)]
        z = np.array(z + [-0.0])
        assert_same_bits(_ckernel.lambert_w0(z), lambertw(z).real)
        assert math.copysign(1.0, float(_ckernel.lambert_w0(-0.0))) == -1.0

    def test_nan_outside_its_domain(self):
        # below the branch point -1/e, and above 0 where solve_gap never looks
        z = np.array([-1.0, -0.5, np.nextafter(0.0, 1.0), 0.5, 1.0, np.nan])
        assert np.isnan(_ckernel.lambert_w0(z)).all()

    def test_keeps_shape(self):
        assert _ckernel.lambert_w0(-0.1).shape == ()
        z = -np.exp(-1.0 - np.linspace(0.01, 5.0, 6)).reshape(2, 3)
        assert_same_bits(_ckernel.lambert_w0(z), lambertw(z).real)


def test_solve_gap_same_on_the_scipy_path(monkeypatch):
    # the series start below c = 1e-3 and W0 above it, either side of the switch
    c = np.concatenate([[0.0], np.geomspace(1e-9, 800.0, 4001),
                        np.nextafter(1e-3, [-np.inf, np.inf])])
    compiled = solve_gap(c)
    monkeypatch.setattr(_ckernel, "special", None)
    assert_same_bits(compiled, solve_gap(c))
    assert solve_gap(np.float64(0.25)).shape == ()
