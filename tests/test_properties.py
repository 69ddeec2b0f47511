"""Property tests for the closed-form and batched solvers.

Each closed form is checked against a direct reference kept here: the
bisections that defined the indices before the closed forms, a series
for the gap equation, and a scalar sum for the dual.  Examples are
derandomized, so every run draws the same cases.
"""

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aovcache import thresholds
from aovcache._ckernel import wright_omega
from aovcache.checks import misplaced_breakpoints
from aovcache.model import ContentParams, CostModel, SystemParams, zipf_popularity
from aovcache.policies import dual_value
from aovcache.thresholds import (
    ConsistencyError,
    case2_batch,
    case2_candidates,
    content_constants,
    first_consistent,
    gap_value,
    relaxed_batch,
    solve_gap,
    solve_thresholds,
    window_consistent,
)
from aovcache.whittle import (
    PolicyTables,
    _cached_gaps,
    _omega_candidates,
    build_content_tables,
    build_index_tables,
    whittle_cached,
    whittle_uncached,
)
from conftest import assert_same_bits

TOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def contents(draw, ratio_lo=0.1, ratio_hi=100.0):
    """One content and beta with p*beta*c_f/c_w inside [ratio_lo, ratio_hi]."""
    p = draw(st.floats(0.01, 1.0))
    beta = draw(st.floats(0.5, 50.0))
    lam = draw(st.floats(0.005, 1.0))
    c_a = draw(st.floats(0.1, 2.0))
    c_f = draw(st.floats(0.1, 2.0))
    ratio = math.exp(draw(st.floats(math.log(ratio_lo), math.log(ratio_hi))))
    c_w = p * beta * c_f / ratio
    return ContentParams(lam=lam, p=p, costs=CostModel(c_a, c_f, c_w)), beta


def bisect(pred, hi: float, iters: int = 60) -> float:
    """Smallest C_h in [0, hi] at which the monotone ``pred`` turns true."""
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def cached_reference(c, beta, tau: float) -> float:
    """W(0, tau): the smallest C_h whose serve threshold is at or below tau."""
    return bisect(lambda ch: solve_thresholds(c, beta, ch).tau_bar <= tau,
                  solve_thresholds(c, beta).I)


def uncached_reference(c, beta, q: int) -> float:
    """W(q, 0, 1): the smallest C_h whose fetch threshold exceeds q."""
    return bisect(lambda ch: solve_thresholds(c, beta, ch).Q_bar > q,
                  solve_thresholds(c, beta).I)


def gap_c(x: float) -> float:
    """``x + exp(-x) - 1``, summed as a series below 0.5."""
    if x >= 0.5:
        return x + math.expm1(-x)
    return math.fsum((-x) ** k / math.factorial(k) for k in range(2, 40))


@SETTINGS
@given(cb=contents(), frac=st.floats(1e-6, 1.0 - 1e-6))
def test_cached_index_matches_bisection(cb, frac):
    c, beta = cb
    ts = solve_thresholds(c, beta, 0.0)
    tau = frac * ts.tau_star
    w = whittle_cached(c, beta, 0, tau)
    assert abs(w - cached_reference(c, beta, tau)) <= TOL * ts.I


@SETTINGS
@given(cb=contents(ratio_lo=5.0, ratio_hi=400.0), pick=st.floats(0.0, 1.0),
       nudge=st.sampled_from([-1e-9, 0.0, 1e-9]))
def test_cached_index_at_queue_threshold_jumps(cb, pick, nudge):
    # at the serve threshold of an uncached breakpoint, Q_bar jumps, so the
    # floor test in the closed form sits on an integer boundary
    c, beta = cb
    ts = solve_thresholds(c, beta, 0.0)
    if ts.Q_hat <= ts.Q_star:
        return
    q = min(ts.Q_star + int(pick * (ts.Q_hat - ts.Q_star)), ts.Q_hat - 1)
    jump = whittle_uncached(c, beta, q)
    tau = solve_thresholds(c, beta, jump).tau_bar * (1.0 + nudge)
    if not 0.0 < tau < ts.tau_star:
        return
    w = whittle_cached(c, beta, 0, tau)
    assert abs(w - cached_reference(c, beta, tau)) <= TOL * ts.I
    if nudge == 0.0:
        assert abs(w - jump) <= 1e-9 * ts.I


@SETTINGS
@given(cbs=st.lists(contents(ratio_lo=1.0, ratio_hi=400.0), min_size=1, max_size=4),
       beta=st.floats(0.5, 50.0))
def test_batched_breakpoints_match_scalar_bisection(cbs, beta):
    cs = [c for c, _ in cbs]
    batched = [t.breakpoints for t in build_index_tables(cs, beta)[0].content]
    for c, bps in zip(cs, batched):
        ts = solve_thresholds(c, beta, 0.0)
        assert len(bps) == max(ts.Q_hat - ts.Q_star, 0)
        for k, w in enumerate(bps):
            assert abs(w - uncached_reference(c, beta, ts.Q_star + k)) <= TOL * ts.I


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_x=st.floats(math.log(1e-7), math.log(30.0)))
@example(log_x=0.5 * math.log(2e-12))   # c near 1e-12
@example(log_x=0.5 * math.log(2e-14))   # c near 1e-14
@example(log_x=math.log(1e-7))
@example(log_x=math.log(30.0))
def test_gap_root_round_trip(log_x):
    x = math.exp(log_x)
    assert abs(float(solve_gap(gap_c(x))) - x) <= TOL * x


def test_gap_root_at_zero_and_batched():
    assert float(solve_gap(0.0)) == 0.0
    xs = np.logspace(-7, math.log10(30.0), 64)
    cs = np.array([gap_c(x) for x in xs])
    np.testing.assert_allclose(solve_gap(cs), xs, rtol=TOL, atol=0.0)


@SETTINGS
@given(cbs=st.lists(contents(), min_size=1, max_size=6), beta=st.floats(0.5, 50.0),
       m_frac=st.floats(0.0, 1.0), ch_frac=st.floats(0.0, 1.2))
def test_batched_dual_matches_scalar_sum(cbs, beta, m_frac, ch_frac):
    n = len(cbs)
    weights = np.array([c.p for c, _ in cbs])
    pops = weights / weights.sum()
    contents_ = tuple(ContentParams(lam=c.lam, p=float(p), costs=c.costs)
                      for (c, _), p in zip(cbs, pops))
    system = SystemParams(beta=beta, contents=contents_, M=int(m_frac * (n - 1)))
    ch = ch_frac * max(solve_thresholds(c, beta).I for c in contents_)
    terms = [solve_thresholds(c, beta, ch).theta for c in contents_]
    scalar = sum(terms) - ch * system.M
    assert abs(dual_value(system, ch) - scalar) <= TOL * (sum(terms) + ch * system.M)


@SETTINGS
@given(cb=contents(ratio_lo=0.1, ratio_hi=400.0), frac=st.floats(0.0, 1.5))
@example(cb=(ContentParams(lam=1.0, p=1.0, costs=CostModel(1.0, 1.0, 0.5)), 1.0), frac=0.0)
def test_occupancy_is_the_slope_of_theta(cb, frac):
    c, beta = cb
    k = content_constants((c,), beta)
    I = float(k.I[0])
    ch = frac * I
    r = relaxed_batch(ch, k)
    theta, occupancy = float(r.theta[0]), float(r.occupancy[0])
    assert 0.0 <= occupancy <= 1.0
    if ch >= I:
        assert occupancy == 0.0
        return
    assert occupancy > 0.0  # finite, and positive at C_h = 0 too
    if ch < 1e-3 * I:
        return  # the slope of occupancy grows like C_h^-1/2 towards 0
    # five-point central difference of theta, where no Q_bar jump or I lies
    # within the stencil; theta carries rounding of ~1e-12 relative, hence
    # the second term
    h = 3e-3 * ch
    xs = ch + h * np.array([-2.0, -1.0, 1.0, 2.0])
    if xs[-1] >= I or np.ptp(case2_batch(xs[:, None], k)[2]) != 0:
        return
    t = relaxed_batch(xs, k).theta  # four C_h of one content, broadcast
    central = (t[0] - 8.0 * t[1] + 8.0 * t[2] - t[3]) / (12.0 * h)
    assert abs(occupancy - central) <= 1e-5 * occupancy + 1e-11 * theta / h


# -- windows of queue candidates against the scan of every candidate -------


def ulp_neighbours(xs, lo: float, hi: float) -> np.ndarray:
    """Each x and its two nextafter neighbours, kept inside [lo, hi]."""
    xs = np.asarray(xs, dtype=float)
    out = np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])
    return out[(out >= lo) & (out <= hi)]


def holding_costs(c, beta, fracs) -> tuple:
    """Constants of one content, and C_h at random fractions of I and at
    every uncached breakpoint and its neighbours (where Q_bar jumps)."""
    k = content_constants((c,), beta)
    I = float(k.I[0])
    bps = build_content_tables(c, beta).breakpoints
    return k, np.concatenate([np.array(fracs) * I, ulp_neighbours(bps, 0.0, I)])


@SETTINGS
@given(cb=contents(ratio_lo=1.0, ratio_hi=400.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_case2_window_matches_full_scan(cb, fracs):
    # every pair of a guard and the candidate above it, wherever it sits,
    # either defers or names the column of the full scan, and some pair
    # decides every row where the scan's candidate hits its cell
    c, beta = cb
    k, ch = holding_costs(c, beta, fracs)
    q = np.arange(-1.0, int(k.q_hat[0]) + 3)
    _, _, v, ok = case2_candidates(ch, k, q)
    col = first_consistent(v[:, 1:], q[1:], ok[:, 1:])[0]
    full = q[1:][col]
    hits = np.take_along_axis(ok[:, 1:] & (np.floor(v[:, 1:]) == q[1:]), col[:, None], 1)[:, 0]
    decided_any = np.zeros(len(ch), dtype=bool)
    for g in range(len(q) - 1):
        pair = slice(g, g + 2)
        decided = window_consistent(v[:, pair].T, np.broadcast_to(q[pair, None], (2, len(ch))),
                                    ok[:, pair].T)
        assert (full[decided] == q[g + 1]).all()
        decided_any |= decided
    assert decided_any[hits].all()


def displaced_estimates(q_bar):
    """``thresholds._q_bar_estimate`` itself, then stand-ins for it that
    place every window at 0, at ``Q_hat + 2``, or 1 or 7 off ``q_bar``
    (one entry per row the estimate sees)."""
    shifted = [lambda C_h, k, xb, d=d: np.clip(q_bar + d, 0.0, k.top)
               for d in (-7, -1, 1, 7)]
    return [thresholds._q_bar_estimate, lambda C_h, k, xb: np.zeros(len(C_h)),
            lambda C_h, k, xb: k.top.copy(), *shifted]


def full_or_error(solve, *args):
    try:
        return solve(*args)
    except ConsistencyError:
        return None


@SETTINGS
@given(cb=contents(ratio_lo=1.0, ratio_hi=400.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_bisection_step_matches_full_scan(cb, fracs):
    # the decision of each bisection step, Q_bar(C_h) > q, for every
    # uncached state q, by case2's pairs, placed by the estimate and
    # displaced from it, and by the scan; where the scan raises
    # ConsistencyError, so must the pairs
    c, beta = cb
    k, ch = holding_costs(c, beta, fracs)
    q_star = int(case2_batch(0.0, k)[2][0])
    q = np.arange(q_star, int(k.q_hat[0]))
    ch, q = (a.ravel() for a in np.meshgrid(ch, q))
    kp = k.take(np.zeros(len(q), dtype=np.int64))
    full = full_or_error(case2_batch, ch, kp)
    q_bar = np.zeros(len(q)) if full is None else full[2]
    for estimate in displaced_estimates(q_bar):
        with mock.patch.object(thresholds, "_q_bar_estimate", estimate):
            if full is None:
                with pytest.raises(ConsistencyError):
                    thresholds.case2(ch, kp)
                continue
            assert ((thresholds.case2(ch, kp)[2] > q) == (q_bar > q)).all()


@SETTINGS
@given(cb=contents(ratio_lo=1.0, ratio_hi=400.0),
       fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=6))
def test_cached_window_matches_full_width(cb, fracs):
    # at random tau and next to each breakpoint's serve threshold, where
    # Q_bar jumps, every predicted column gives the full scan's bits
    c, beta = cb
    k, _ = holding_costs(c, beta, [])
    ts = solve_thresholds(c, beta, 0.0)
    tbar = case2_batch(np.array(build_content_tables(c, beta).breakpoints), k)[0]
    tau = np.concatenate([np.array(fracs) * ts.tau_star,
                          ulp_neighbours(tbar, 1e-300, ts.tau_star)])
    tau = tau[(tau > 0.0) & (tau < ts.tau_star)][None, :]
    full = _cached_gaps(k, tau, None)[0]
    for col in range(ts.Q_hat + 3):
        x, _ = _cached_gaps(k, tau, np.full(tau.shape, float(col)))
        assert_same_bits(x, full)


@SETTINGS
@given(cb=contents(ratio_lo=1.0, ratio_hi=400.0), frac=st.floats(0.0, 1.0),
       tau_frac=st.floats(1e-6, 1.0 - 1e-6))
def test_excess_strictly_decreasing(cb, frac, tau_frac):
    # f_q = v_q - q falls between admissible neighbours, by the margins
    # that case2_batch and cached_index_rows prove
    c, beta = cb
    k = content_constants((c,), beta)
    q = np.arange(int(k.q_hat[0]) + 3.0)
    _, _, v, ok = case2_candidates(frac * float(k.I[0]), k, q)
    f, ok = v[0] - q, ok[0]
    pair = ok[:-1] & ok[1:]
    step = (f[:-1] - f[1:])[pair]
    assert (step > 1e-6).all()
    assert (step > (1.0 - 1e-9) / (q[:-1][pair] + 2.0)).all()
    tau = tau_frac * solve_thresholds(c, beta, 0.0).tau_star
    cm = c.costs
    x, v, ok = _omega_candidates(c.p, cm.c_a * c.lam, cm.c_f, cm.c_w, beta, tau, q, wright_omega)
    f = v - q
    pair = ok[:-1] & ok[1:]
    step = (f[:-1] - f[1:])[pair]
    assert (step > 1e-6).all()
    bound = v[:-1] / (q[:-1] + 2.0 + c.p * beta * tau)
    assert (step > (1.0 - 1e-9) * bound[pair]).all()


@SETTINGS
@given(cbs=st.lists(contents(ratio_lo=0.1, ratio_hi=400.0), min_size=1, max_size=6),
       beta=st.floats(0.5, 50.0))
def test_index_rows_fall_to_zero(cbs, beta):
    # the compiled Whittle scan bounds a cached copy's index from below by
    # its row at a later tau; that needs no prefix minimum when every row
    # is nonincreasing and ends in the 0 sentinel
    tables, _ = build_index_tables([c for c, _ in cbs], beta)
    w = tables.w_of_tau
    assert (w[:, 1:] <= w[:, :-1]).all()
    assert (w[:, -1] == 0.0).all()


# -- the box of small systems: costs, rates and beta over 12 decades -------

BOX = (-6.0, 6.0)  # log10 range of c_a, c_f, c_w, lambda and beta


def log_uniform(draw, lo: float = BOX[0], hi: float = BOX[1]) -> float:
    return 10.0 ** draw(st.floats(lo, hi))


def triangular_c_w(p: float, beta: float, c_f: float, m: int, ulps: int) -> float:
    """A c_w that puts p*beta*c_f/c_w on the triangular number m(m+1)/2,
    nudged by ``ulps``: where the closed-form ``Q_hat`` sits on its
    integer boundary and may need ``content_constants``' fixed-point repair."""
    c_w = p * beta * c_f / (m * (m + 1) / 2)
    for _ in range(abs(ulps)):
        c_w = math.nextafter(c_w, math.inf if ulps > 0 else 0.0)
    return c_w


@st.composite
def box_contents(draw, max_n: int = 50):
    """Up to ``max_n`` contents with Zipf popularity (alpha in [0, 4]) and
    their own costs and update rates, each log-uniform over the box, and
    beta; some c_w sit on a triangular ratio (``triangular_c_w``)."""
    n = draw(st.integers(1, max_n))
    beta = log_uniform(draw)
    pops = zipf_popularity(n, draw(st.floats(0.0, 4.0)))
    out = []
    for p in pops.tolist():
        c_a, c_f, lam = (log_uniform(draw) for _ in range(3))
        if draw(st.booleans()):
            c_w = triangular_c_w(p, beta, c_f, draw(st.integers(1, 10_000)),
                                 draw(st.integers(-2, 2)))
        else:
            c_w = log_uniform(draw)
        out.append(ContentParams(lam=lam, p=p, costs=CostModel(c_a, c_f, c_w)))
    return out, beta


def assert_constants_match_scalar(contents_, beta):
    # the array solver against its calls on one content each, and I against
    # its definition: with libm's exp, and gap_value's series where
    # beta*tau0 < 0.1; where a content has no Q_hat, both raise
    try:
        ones = [content_constants((c,), beta) for c in contents_]
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            content_constants(contents_, beta)
        return
    k = content_constants(contents_, beta)
    assert k.q_hat.dtype == np.int64
    assert k.q_hat.tolist() == [int(a.q_hat[0]) for a in ones]
    assert_same_bits(k.rows, np.concatenate([a.rows for a in ones], axis=1))
    assert_same_bits(k.I, np.array([c.p * c.lam * c.costs.c_a
                                    * (beta * t - 1.0 + math.exp(-beta * t) if beta * t >= 0.1
                                       else float(gap_value(beta * t)))
                                    for c, t in zip(contents_, k.tau0.tolist())]))


@SETTINGS
@given(cb=box_contents())
def test_array_constants_match_the_scalar_solver(cb):
    # content_constants on arrays against its calls on one content each and
    # math.exp per content, bit for bit, over the box
    assert_constants_match_scalar(*cb)


def test_array_constants_repair_q_hat_like_the_scalar_solver():
    # contents whose closed-form Q_hat lands on its integer boundary: the
    # fixed-point test fails for some of them, and the one-content repair
    # decides their Q_hat
    rng = np.random.default_rng(11)
    contents_, repaired = [], 0
    beta = 0.7
    for m in range(1, 400):
        p, c_f = float(rng.uniform(0.01, 1.0)), float(10.0 ** rng.uniform(-3, 3))
        for ulps in (-1, 0, 1):
            c_w = triangular_c_w(p, beta, c_f, m, ulps)
            r = p * beta
            q = math.floor((math.sqrt(1.0 + 8.0 * r * c_f / c_w) - 1.0) / 2.0)
            repaired += math.floor((2.0 * r * c_f + c_w * q * (q + 1))
                                   / (2.0 * c_w * (q + 1))) != q
            contents_.append(ContentParams(lam=0.3, p=p, costs=CostModel(0.2, c_f, c_w)))
    assert repaired > 100
    assert_constants_match_scalar(contents_, beta)


@pytest.mark.parametrize("field", ["p", "lam", "c_a", "c_f", "c_w", "beta"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_array_constants_name_a_non_positive_field(field, value):
    # the ValueError of the first content solve_thresholds rejects, word for word
    good = ContentParams(lam=0.5, p=0.25, costs=CostModel(0.1, 1.0, 0.01))
    beta = value if field == "beta" else 4.0
    bad = good
    if field in ("p", "lam"):
        bad = ContentParams(**{**vars(good), field: value})
    elif field != "beta":
        bad = ContentParams(good.lam, good.p, CostModel(**{**vars(good.costs), field: value}))
    with pytest.raises(ValueError) as scalar:
        solve_thresholds(bad, beta)
    with pytest.raises(ValueError) as batched:
        content_constants([good, bad, good], beta)
    assert str(batched.value) == str(scalar.value)
    assert str(scalar.value).startswith(f"{field} must be > 0")


@st.composite
def box_systems(draw, max_n: int = 50):
    """Systems of the box with one cost model: Zipf popularity, and c_a,
    c_f, lambda and beta log-uniform over it.  c_w is log-uniform over the
    box above beta*c_f/1e6, so that Q_hat stays below ~1400 and the full
    scan this is checked against stays small."""
    n = draw(st.integers(1, max_n))
    beta, c_a, c_f, lam = (log_uniform(draw) for _ in range(4))
    c_w = log_uniform(draw, max(BOX[0], math.log10(beta * c_f) - 6.0), BOX[1])
    pops = zipf_popularity(n, draw(st.floats(0.0, 4.0)))
    contents_ = tuple(ContentParams(lam=lam, p=p, costs=CostModel(c_a, c_f, c_w))
                      for p in pops.tolist())
    return SystemParams(beta=beta, contents=contents_, M=0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(costs=st.lists(st.floats(*BOX), min_size=5, max_size=5), alpha=st.floats(0.0, 4.0))
def test_thresholds_ordered_over_the_box(costs, alpha):
    # five contents with one cost model, c_a, c_f, c_w, lambda and beta each
    # log-uniform over the box, where the quadratic's root once cancelled:
    # case 2 is solved at 0, 0.3, 0.7 and 0.999 I without ConsistencyError,
    # and every row ordered, tau_bar <= tau_star <= tau_tilde <= tau0 within
    # rounding (4.5 ulps) and Q_star <= Q_bar <= Q_hat exactly
    beta, c_a, c_f, c_w, lam = (10.0 ** c for c in costs)
    k = content_constants([ContentParams(lam=lam, p=p, costs=CostModel(c_a, c_f, c_w))
                           for p in zipf_popularity(5, alpha).tolist()], beta)
    tau_star, _, q_star, _ = thresholds.zero_holding_batch(k)
    for frac in (0.0, 0.3, 0.7, 0.999):
        tb, tt, qb, _, _ = relaxed_batch(frac * k.I, k)
        for low, high in ((tb, tau_star), (tau_star, tt), (tt, k.tau0)):
            assert (low <= high * (1.0 + 1e-15)).all()
        assert ((q_star <= qb) & (qb <= k.q_hat)).all()


@SETTINGS
@given(system=box_systems(), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_windowed_evaluation_matches_full_width(system, fracs):
    # relaxed_batch off pairs of candidates against relaxed_batch with
    # case 2 solved by the full scan, case2_batch: every field bit for bit,
    # at 0, at the smallest and the largest I and their neighbours and at
    # fractions of max I, with pairs placed by the estimate and far or a
    # few off it; where the full scan raises ConsistencyError, so must the
    # pairs
    k = content_constants(system.contents, system.beta)
    hi = float(k.I.max())
    edges = ulp_neighbours([float(k.I.min()), hi], 0.0, 2.0 * hi)
    for ch in [0.0, *edges, *(f * hi for f in fracs)]:
        with mock.patch.object(thresholds, "case2", case2_batch):
            full = full_or_error(relaxed_batch, ch, k)
        # the estimate sees the contents below their I
        under = ch < k.I
        q_bar = np.zeros(under.sum()) if full is None else full.Q_bar[under]
        for estimate in displaced_estimates(q_bar):
            with mock.patch.object(thresholds, "_q_bar_estimate", estimate):
                if full is None:
                    with pytest.raises(ConsistencyError):
                        relaxed_batch(ch, k)
                    continue
                pairs = relaxed_batch(ch, k)
            for a, b in zip(pairs, full):
                assert a.dtype == b.dtype
                assert_same_bits(a, b)


@SETTINGS
@given(system=box_systems(max_n=5))
def test_index_tables_match_full_width(system):
    # the tables from the breakpoints' roots and the candidate-first grid
    # against the plain bisection and the scan of every candidate at every
    # step and grid point: every PolicyTables array but the breakpoints bit
    # for bit, and each breakpoint the plain bisection's or the root of a
    # band that the full scan confirms, on ill-conditioned draws too, where
    # bands fail their check and hits sit at their cell's edge; where the
    # full scan raises ConsistencyError, so must they
    full = full_or_error(build_index_tables, system.contents, system.beta, True, False)
    if full is None:
        with pytest.raises(ConsistencyError):
            build_index_tables(system.contents, system.beta)
        return
    tables = build_index_tables(system.contents, system.beta)[0]
    arrays = [f.name for f in fields(PolicyTables)
              if isinstance(getattr(tables, f.name), np.ndarray)]
    assert len(arrays) == 7
    for name in arrays:
        if name != "bps":
            assert_same_bits(getattr(tables, name), getattr(full[0], name))
    assert not misplaced_breakpoints(tables, full[0]).any()
