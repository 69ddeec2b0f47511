import numpy as np
import pytest

from aovcache._ckernel import wright_omega
from aovcache.checks import bits_differ
from aovcache.model import ContentParams, CostModel, SystemParams, zipf_popularity
from aovcache.thresholds import (_NEAR, ConsistencyError, _gaps, _quadratic, breakpoint_estimate,
                                 content_constants, gap_value)
from aovcache.whittle import (BAND_ERRORS, BISECT_ITERS, BP_OFF, GRID_SIZE, Q_STAR, _groups,
                              _omega_candidates, grid_taus)


UNIT = ContentParams(lam=1.0, p=1.0, costs=CostModel(c_a=1.0, c_f=1.0, c_w=0.5))


@pytest.fixture
def unit_content():
    """The worked example: p=beta=lam=c_a=c_f=1, c_w=0.5."""
    return UNIT


def desk_system(N=100, beta=4.0, M=25, c_w=0.01, lam=0.01, c_a=0.1, c_f=1.0,
                alpha=1.0) -> SystemParams:
    """Desk-scale analogue of the experimental setup (Zipf popularity)."""
    pops = zipf_popularity(N, alpha)
    contents = tuple(
        ContentParams(lam=lam, p=float(p), costs=CostModel(c_a, c_f, c_w))
        for p in pops
    )
    return SystemParams(beta=beta, contents=contents, M=M)


# (c_a, c_f, c_w, lambda, beta, Zipf alpha, M) of N=5 systems whose dual
# bound steps to one ulp below a content's I: there case 2's tau_bar falls
# to 0, and its quadratic's constant term cancels between terms up to ~1e6
# times larger, so rounding puts the root just below 0
BELOW_I_SYSTEMS = {
    "A": (5.0928518602616335e-06, 0.045533913447497285, 5.868912679542881,
          7.056858160008979e-06, 4.378788517124816e-05, 0.11058691711423485, 1),
    "B": (7.440241264212161, 208.17621353137903, 75032.40171474405,
          0.0008477113494562159, 0.9760556244740074, 0.6494619846936085, 2),
    "C": (0.003615983781489755, 1.281000603804122, 0.21009676485537968,
          0.00025474143381759784, 7.026392640764132, 2.1106791613625524, 1),
}


def below_i_system(name: str) -> SystemParams:
    """The system ``name`` of ``BELOW_I_SYSTEMS``."""
    c_a, c_f, c_w, lam, beta, alpha, M = BELOW_I_SYSTEMS[name]
    return desk_system(N=5, beta=beta, M=M, c_w=c_w, lam=lam, c_a=c_a, c_f=c_f, alpha=alpha)


def random_content(rng, ratio_lo=0.1, ratio_hi=100.0):
    """One random parameter set with p*beta*c_f/c_w inside [ratio_lo, ratio_hi]."""
    while True:
        p = float(rng.uniform(0.01, 1.0))
        beta = float(rng.uniform(0.5, 50.0))
        lam = float(rng.uniform(0.005, 1.0))
        c_a = float(rng.uniform(0.1, 2.0))
        c_f = float(rng.uniform(0.1, 2.0))
        c_w = float(rng.uniform(0.005, 1.0))
        if ratio_lo <= p * beta * c_f / c_w <= ratio_hi:
            return ContentParams(lam=lam, p=p, costs=CostModel(c_a, c_f, c_w)), beta


def corrupt_cache(monkeypatch, system):
    """Break the initial cache of the next run so that, some epochs in, it
    no longer holds M contents.  The compiled loop gets one id in two
    slots (the least popular cached id, so it is soon evicted from one and
    still a victim candidate in the other); the reference loop gets one
    more id in its cache set, M + 1 members."""
    from aovcache import _ckernel, simulator

    if _ckernel.event_loop is not None:
        top = simulator._top_m_ids(system.popularity(), system.M)
        monkeypatch.setattr(simulator, "_top_m_ids", lambda p, m: top[:-1] + [top[-2]])
    else:
        preload = simulator.CacheSystemState.preload

        def preload_one_extra(state, ids):
            preload(state, ids)
            state.cache_set.add(system.N - 1)

        monkeypatch.setattr(simulator.CacheSystemState, "preload", preload_one_extra)


def assert_same_bits(a, b):
    """The two float64 arrays hold the same bits, element for element (a
    NaN equals any NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    differ = bits_differ(a, b)
    assert not differ.any(), f"{differ.sum()} differ, first at {np.flatnonzero(differ)[:5]}"


# -- the tests' reference: a plain scan of every queue candidate -----------


def first_consistent(v, q, ok):
    """Column of the first admissible (``ok``) queue candidate ``q`` whose
    floor argument ``v`` hits its cell, ``floor(v) == q``, per row, the
    candidates on the last axis; where none hits, the candidate nearest
    its cell, within ``1e-9*(q+1)``.  Also returns each row's distance:
    -1 where a candidate hits, the taken candidate's distance outside its
    cell where none hits, and inf (column 0) where none is near."""
    hit = ok & (np.floor(v) == q)
    any_hit = hit.any(-1)
    if any_hit.all():
        return hit.argmax(-1), np.full(any_hit.shape, -1.0)
    dist = np.where(ok, np.maximum(q - v, v - (q + 1.0)), np.inf)
    near = np.where(dist < _NEAR * (q + 1.0), dist, np.inf)
    col = np.where(any_hit, hit.argmax(-1), near.argmin(-1))
    return col, np.where(any_hit, -1.0, near.min(-1))


def scan_candidates(evaluate, top: np.ndarray, block: int = 1 << 16):
    """``first_consistent``'s pick among the candidates ``0..top[i]`` of
    each row i, in blocks of about ``block`` elements over the rows still
    scanned, so that its memory stays bounded however large ``top`` is.
    ``evaluate(rows, q)`` is ``thresholds.search_candidates``' evaluator;
    returns what the search returns.  A row leaves at its first hit or
    past its ``top``; one with no hit takes the first minimum over all
    blocks, which is what one scan of every candidate picks."""
    pick = np.zeros(top.size, dtype=np.int64)
    best = np.full(top.size, np.inf)
    at = None  # the evaluator's leading arrays at each row's pick
    live = np.arange(top.size)  # rows without a hit whose candidates go on
    lo, end = 0, top.max(initial=0) + 1
    # one block at least, which makes ``at`` for no rows too
    while (live := live[top[live] >= lo]).size or at is None:
        q = np.arange(lo, min(lo + max(block // max(live.size, 1), 1), end), dtype=float)[:, None]
        *values, v, ok = evaluate(live, q)
        col, dist = first_consistent(v.T, q.T, (ok & (q <= top[live])).T)
        at = at or tuple(np.zeros(top.size, a.dtype) for a in values)
        take = dist < best[live]
        block_at, rows = (col[take], take.nonzero()[0]), live[take]
        for out, a in zip(at, values):
            out[rows] = a[block_at]
        pick[rows], best[rows] = block_at[0] + lo, dist[take]
        live, lo = live[dist >= 0.0], lo + len(q)
    return pick, best, at


def scan_case2(C_h, k):
    """Case 2's ``(tau_bar, tau_tilde, Q_bar, theta)`` at ``C_h`` broadcast
    against the contents of ``k``, by the scan of every candidate
    ``0..Q_hat+2``: the reference for ``thresholds.case2``, which raises
    ``ConsistencyError`` where it does."""
    C_h = np.asarray(C_h, dtype=float)
    g, xb = _gaps(C_h, k)
    shape = g.shape
    kr = k.take(np.broadcast_to(np.arange(k.q_hat.size), shape).ravel())
    g, xb = g.ravel(), xb.ravel()
    qb, dist, (tb, tt) = scan_candidates(
        lambda rows, q: _quadratic(g[rows], xb[rows], kr.take(rows), q), kr.top)
    if not np.isfinite(dist).all():
        raise ConsistencyError("no floor-consistent Q_bar")
    tt = tt.reshape(shape)
    return tb.reshape(shape), tt, qb.reshape(shape), k.rc * tt


def scan_omega(k, tau: np.ndarray) -> np.ndarray:
    """The gap x of the cached index of content i of ``k`` at serve
    threshold ``tau[i]``, by the scan of every candidate ``0..Q_hat+2``."""
    _, dist, (x,) = scan_candidates(
        lambda rows, q: _omega_candidates(k.p[rows], k.c_alam[rows], k.c_f[rows], k.c_w[rows],
                                          k.beta, tau[rows], q, wright_omega), k.top)
    if not np.isfinite(dist).all():
        raise ConsistencyError("no floor-consistent Q_bar")
    return x


def scan_tables(system: SystemParams) -> tuple[np.ndarray, ...]:
    """``(tau_star, Q_star, breakpoints, w_of_tau)`` of the system's index
    tables from the scan of every candidate alone: the ``C_h = 0``
    thresholds, each uncached breakpoint from the plain 60-step bisection
    asking the scan for ``Q_bar``, and each cached-index row between the
    ceiling I and the 0 sentinel at the content's grid points."""
    k = content_constants(system.contents, system.beta)
    tau_star, _, q_star, _ = scan_case2(0.0, k)
    idx, j = _groups(np.maximum(k.q_hat - q_star, 0))
    kp, q = k.take(idx), q_star[idx] + j
    lo, hi = np.zeros(len(q)), kp.I.copy()
    for _ in range(BISECT_ITERS if len(q) else 0):
        mid = 0.5 * (lo + hi)
        above = scan_case2(mid, kp)[2] > q
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    w_of_tau = np.empty((k.I.size, GRID_SIZE + 1))
    w_of_tau[:, 0], w_of_tau[:, -1] = k.I, 0.0
    for i, t in enumerate(tau_star.tolist()):
        x = scan_omega(k.take(np.full(GRID_SIZE - 1, i)), grid_taus(t))
        w_of_tau[i, 1:-1] = np.minimum(k.pc[i] * gap_value(np.maximum(x, 0.0)), k.I[i])
    return tau_star, q_star, 0.5 * (lo + hi), w_of_tau


def assert_breakpoints_match(tables, bps):
    """The uncached breakpoints of ``tables`` against ``bps``, the plain
    bisection's midpoints from ``scan_tables``: each is the midpoint bit
    for bit, as a pair whose band was not confirmed gets, or the root of
    ``thresholds.breakpoint_estimate``, within its band's half-width plus
    ``I * 2**-60`` of the midpoint."""
    b = tables.bps
    assert b.shape == bps.shape
    idx, j = _groups(np.diff(np.append(tables.cint[:, BP_OFF], b.size)))
    k = content_constants(tables.contents, tables.beta).take(idx)
    root, err = breakpoint_estimate(k, tables.cint[idx, Q_STAR] + j)
    near = ~bits_differ(b, root) & (np.abs(b - bps) <= BAND_ERRORS * err + k.I * 2.0 ** -60)
    held = near | ~bits_differ(b, bps)
    assert held.all(), f"{np.count_nonzero(~held)} breakpoints off, first at {np.flatnonzero(~held)[:5]}"
