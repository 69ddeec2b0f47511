"""Closed-form threshold solvers for the single-content caching problems.

Three regimes of the single-content problem with holding cost ``C_h``:

* ``C_h = 0``  -- serve below ``tau_star``, wait below ``Q_star``, else
  fetch; optimal cost ``p*beta*c_a*lam*tau_star``.
* ``0 < C_h < I`` -- serve below ``tau_bar``, serve-and-evict up to
  ``tau_tilde``, wait below ``Q_bar``, else fetch; optimal cost
  ``p*beta*c_a*lam*tau_tilde``.
* ``C_h >= I`` -- never cache; wait below ``Q_hat``, else fetch and
  discard; optimal cost ``(2*p*beta*c_f + c_w*Q_hat*(Q_hat+1)) / (2*(Q_hat+1))``.

``relaxed_batch`` decides the regime for every solver, case 2 below
``I`` and never-cache from ``I`` on, and ``case2`` solves case 2: one
numpy kernel batched over contents, the Lambert-W root of the gap
equation, then a quadratic in ``tau_bar`` per queue candidate
(``case2_candidates``), keeping the floor-consistent one.  Exactly one
candidate is, and the candidates above their cells or inadmissible form
a prefix of them (proved at ``case2``), so ``search_candidates``, which
``whittle``'s cached index shares, finds it by a bracketed search in
O(log Q_hat) evaluations.  ``case2`` starts it at ``_q_bar_estimate``,
the closed-form root of a quadratic in Q, whose pair of candidates
decides nearly every row in one evaluation: for ``relaxed_batch``, the
``C_h = 0`` thresholds and the index tables' breakpoints alike.  The
same quadratic in Q, written in the gap x, gives each breakpoint of
``Q_bar`` in C_h up to rounding (``breakpoint_estimate``), which
``whittle`` takes as the uncached index where ``case2`` confirms it.
``content_constants`` solves the ``C_h``-independent quantities of all
contents at once, and ``solve_thresholds`` (``solve_thresholds_batch``
over several ``C_h``) is the one entry for a content's thresholds and
cost, as a ``ThresholdSet``.  An independent cross-check, which solves a
discretized MDP exactly by policy iteration, lives in ``aovcache.oracle``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._ckernel import lambert_w0
from .model import ContentParams

__all__ = [
    "ThresholdSet",
    "ContentConstants",
    "content_constants",
    "gap_value",
    "solve_gap",
    "search_candidates",
    "case2_candidates",
    "case2",
    "breakpoint_estimate",
    "Relaxed",
    "relaxed_batch",
    "solve_thresholds",
    "solve_thresholds_batch",
    "zero_holding_thresholds",
    "case2_residuals",
]


class ConsistencyError(RuntimeError):
    """No queue candidate passes its floor test, nor lies within ``_NEAR``
    of its cell: once seen one or two ulps below an ``I`` that cancelled."""


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")


class ContentConstants(NamedTuple):
    """The ``C_h``-independent quantities of a batch of contents, one entry
    per content, solved once and shared by every ``C_h``: stacked in the
    rows of one array, so that taking a subset of contents is one
    indexing."""

    beta: float
    rows: np.ndarray            # the float quantities below, one row each
    q_hat: np.ndarray           # int64

    p = property(lambda k: k.rows[0])
    c_alam = property(lambda k: k.rows[1])   # c_a * lam
    c_f = property(lambda k: k.rows[2])
    c_w = property(lambda k: k.rows[3])
    theta1 = property(lambda k: k.rows[4])   # optimal cost of the never-cache regime
    tau0 = property(lambda k: k.rows[5])
    I = property(lambda k: k.rows[6])
    # the factors of case2_candidates' quadratic
    r = property(lambda k: k.rows[7])        # p * beta
    rc = property(lambda k: k.rows[8])       # r * c_a * lam
    cf_rc = property(lambda k: k.rows[9])    # c_f / rc
    den = property(lambda k: k.rows[10])     # 2 * r * rc
    pc = property(lambda k: k.rows[11])      # p * c_a * lam
    top = property(lambda k: k.rows[12])     # Q_hat + 2, the last admissible candidate
    # the factors of _q_bar_estimate's quadratic
    a1 = property(lambda k: k.rows[13])      # c_w / (c_a * lam) + 1
    r_cw = property(lambda k: k.rows[14])    # r / c_w

    def take(self, idx) -> ContentConstants:
        """The contents ``idx``."""
        return ContentConstants(self.beta, self.rows.take(idx, 1), self.q_hat.take(idx))


def _outside(q, r, c_f, c_w) -> np.ndarray:
    """How far each ``q``'s floor argument in the ``Q_hat`` fixed point
    lies outside its cell ``[q, q+1)``; -1 inside."""
    v = (2.0 * r * c_f + c_w * q * (q + 1)) / (2.0 * c_w * (q + 1))
    return np.where(np.floor(v) == q, -1.0, np.maximum(q - v, v - (q + 1)))


def content_constants(contents: Sequence[ContentParams], beta: float) -> ContentConstants:
    """``Q_hat``, ``theta_case1``, ``tau0`` and ``I`` of every content, and
    the factors of the case-2 quadratic that do not depend on ``C_h``.

    ``Q_hat`` solves the floor fixed point

        Q_hat = floor((2*p*beta*c_f + c_w*Q_hat*(Q_hat+1)) / (2*c_w*(Q_hat+1)))

    whose solution is the floor of ``(sqrt(1 + 8*p*beta*c_f/c_w) - 1)/2``
    (batch-dispatching a Poisson stream); ``theta_case1`` is the optimal
    cost for ``C_h > I`` and ``tau0 = theta_case1 / (p*beta*c_a*lam)``.
    ``I = p*c_a*lam*(x + expm1(-x))`` with ``x = beta*tau0`` takes libm's
    ``math.expm1``, as numpy's vectorized ``expm1`` may differ from it in
    the last bit, and ``gap_value``'s series where ``x < 0.1``, below which
    that form cancels.  Raises ``ValueError`` naming the first field that
    is not positive, of the first content with one.
    """
    costs = [c.costs for c in contents]
    fields = np.array([[c.p for c in contents], [c.lam for c in contents],
                       [m.c_a for m in costs], [m.c_f for m in costs],
                       [m.c_w for m in costs]], dtype=float).reshape(5, -1)
    bad = ~(fields.min(0) > 0) | (not beta > 0)
    if bad.any():
        c = contents[int(bad.argmax())]
        _check_positive(p=c.p, beta=beta, c_a=c.costs.c_a, lam=c.lam, c_f=c.costs.c_f,
                        c_w=c.costs.c_w)
    p, lam, c_a, c_f, c_w = fields
    r = p * beta
    q = np.floor((np.sqrt(1.0 + 8.0 * r * c_f / c_w) - 1.0) / 2.0)
    off = _outside(q, r, c_f, c_w)
    miss = (off >= 0.0).nonzero()[0]
    if miss.size:
        # float noise at an integer boundary; the fixed point is adjacent.
        # Where p*beta*c_f/c_w is a triangular number, rounding can push
        # every candidate out of its cell; the closed form's Q_hat then
        # stays if it is as near its cell as search_candidates asks of Q_bar
        # (there the two Q_hat next to the boundary cost the same).  Not by
        # search_candidates: at a ratio of 15 it picks 4 (v = 5.0, on its
        # cell's upper edge) over the closed form's 5 (v = 4.999999999999999)
        qm = q[miss]
        cand = qm[:, None] + np.array([-1.0, 1.0, 2.0])
        with np.errstate(all="ignore"):
            inside = (cand >= 0.0) & (_outside(cand, *(a[miss, None] for a in (r, c_f, c_w)))
                                      < 0.0)
        found = inside.any(1)
        far = ~found & (off[miss] >= _NEAR * (qm + 1.0))
        if far.any():
            raise ConsistencyError(f"no Q_hat fixed point near {int(qm[far.argmax()])}")
        q[miss] = np.where(found, cand[np.arange(miss.size), inside.argmax(1)], qm)
    theta1 = (2.0 * r * c_f + c_w * q * (q + 1)) / (2.0 * (q + 1))
    tau0 = theta1 / (r * c_a * lam)
    x = beta * tau0
    gap = x + np.fromiter(map(math.expm1, (-x).tolist()), float, x.size)
    small = x < _SERIES_BELOW
    gap[small] = gap_value(x[small])  # a series only there: it overflows for large x
    I = p * lam * c_a * gap
    c_alam = c_a * lam
    rc = r * c_alam
    rows = np.array([p, c_alam, c_f, c_w, theta1, tau0, I,
                     r, rc, c_f / rc, 2.0 * r * rc, p * c_alam, q + 2.0,
                     c_w / c_alam + 1.0, r / c_w])
    return ContentConstants(beta, rows, q.astype(np.int64))


# (-1)^j / (j+2)! for j < 12: x + exp(-x) - 1 = x^2 * sum_j (-1)^j x^j / (j+2)!,
# truncated below double precision for x < _SERIES_BELOW
_GAP_SERIES = tuple((-1.0) ** j / math.factorial(j + 2) for j in range(12))
_SERIES_BELOW = 0.1


def gap_value(x) -> np.ndarray:
    """``x + exp(-x) - 1`` elementwise for x >= 0, free of the cancellation
    the direct form suffers near 0 (summed as a series there)."""
    x = np.asarray(x, dtype=float)
    return _gap(x, np.expm1(-x))


def _gap(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``gap_value(x)`` given ``e = expm1(-x)``."""
    g = x + e
    small = x < _SERIES_BELOW
    if not small.any():
        return g
    s = 0.0
    for a in reversed(_GAP_SERIES):
        s = s * x + a
    return np.where(small, x * x * s, g)


def solve_gap(c) -> np.ndarray:
    """Root x >= 0 of ``x + exp(-x) = 1 + c``, elementwise for c >= 0.

    The closed form is ``x = 1 + c + W0(-exp(-(1+c)))`` with the Lambert W
    function (Corless et al. 1996, "On the Lambert W function"), evaluated
    only where c >= 1e-3.  It loses accuracy near the branch point c = 0,
    so below c = 1e-3 the start is the inverted series
    ``s + s^2/6 + s^3/36`` with ``s = sqrt(2c)`` instead (relative error
    below 4e-7); two Newton steps on ``gap_value`` then reach double
    precision everywhere.
    """
    c = np.asarray(c, dtype=float)
    far = c >= 1e-3
    if far.all():
        x = 1.0 + c + lambert_w0(-np.exp(-1.0 - c))
        slope = np.negative  # x > 0 from here on, so 1 - e^-x = -expm1(-x) > 0
    else:
        s = np.sqrt(2.0 * c)
        w = np.zeros(c.shape)
        w[far] = lambert_w0(-np.exp(-1.0 - c[far]))
        x = np.where(far, 1.0 + c + w, s * (1.0 + s / 6.0 + s * s / 36.0))

        def slope(e):
            return np.where(e < 0.0, -e, 1.0)
    for _ in range(2):
        e = np.expm1(-x)
        x = x - (_gap(x, e) - c) / slope(e)
    return x


# a candidate this close outside its cell, relative to q+1, still counts
# when no candidate lies inside one (``search_candidates``)
_NEAR = 1e-9


def search_candidates(evaluate, top: np.ndarray, q=None, at=None):
    """Each row's floor-consistent queue candidate among ``0..top[i]``:
    the first admissible one whose floor argument v hits its cell,
    ``floor(v) == q``, else the one nearest its cell within
    ``_NEAR*(q+1)``, as a scan of every candidate picks; the one function
    that picks a candidate, for case 2's quadratic and the cached index's
    Wright-omega form alike.

    ``evaluate(rows, q)`` gives arrays shaped like ``q`` (candidates laid
    out first against ``rows``), the last two v and the admissibility
    ok.  ``P(q) = q <= top and (not ok_q or v_q >= q + 1)`` holds on a
    prefix of ``0..top+1`` (proved at ``case2``), and at -1 by
    convention.  Each row keeps a bracket: ``lo`` with P, from -1, and
    ``hi`` without, from ``top+1``.  The first probe is the caller's: a
    pair of rows (or a ``(2, rows)`` array), ``q``, a candidate in
    ``0..top`` and the one below it laid out first, and evaluate's arrays
    ``at`` there as such pairs; a guard at -1, or one the caller knows to
    hold P, must read as P.  Without one the search starts at candidate
    0.  Later probes gallop from the known end, +-1, +-2, +-4, ..., then
    bisect (Bentley & Yao 1976, "An almost optimal algorithm for
    unbounded searching"): O(log top) rounds.  Once ``hi = lo + 1`` the
    pick is ``hi`` if it hits, else the nearer of ``hi - 1`` and ``hi``
    within the tolerance, the first on a tie.

    Returns each row's pick (int64), its distance outside its cell (-1
    for a hit; inf, and the pick 0, where none is near) and the leading
    arrays of ``evaluate`` at the pick (0 where none)."""
    n = top.size
    if q is None:
        lo, hi = np.full(n, -1.0), top + 1.0
    else:
        *values, v, ok = at
        guard = ~ok[0] | (v[0] >= q[1])
        if (guard & ok[1] & (np.floor(v[1]) == q[1])).all():  # the first probe decides
            return q[1].astype(np.int64), np.full(n, -1.0), [a[1] for a in values]
        above = ~ok[1] | (v[1] >= q[1] + 1.0)
        lo = np.where(guard, np.where(above, q[1], q[0]), -1.0)
        hi = np.where(guard, np.where(above, top + 1.0, q[1]), q[0])
    step = np.ones(n)
    while (live := (hi - lo > 1.0).nonzero()[0]).size:
        l, h, s = lo[live], hi[live], step[live]
        # gallop up from lo while hi is unknown, down from hi while lo is,
        # and bisect once both are known
        probe = np.where(h > top[live], l + s, np.where(l < 0.0, h - s, np.floor(0.5 * (l + h))))
        probe = np.minimum(np.maximum(probe, l + 1.0), h - 1.0)
        *_, v, ok = evaluate(live, probe[None])
        above = ~ok[0] | (v[0] >= probe + 1.0)
        lo[live], hi[live] = np.where(above, probe, l), np.where(above, h, probe)
        step[live] = 2.0 * s
    pair = np.stack([hi - 1.0, hi])
    # the pair's arrays, where the first probe did not evaluate them
    if q is None:
        at = evaluate(np.arange(n), np.minimum(np.maximum(pair, 0.0), top))
    else:
        at = [np.stack(a) for a in at]
        if (redo := (q[1] != hi).nonzero()[0]).size:
            got = evaluate(redo, np.minimum(np.maximum(pair[:, redo], 0.0), top[redo]))
            for a, b in zip(at, got):
                a[:, redo] = b
    *values, v, ok = at
    ok = ok & (pair >= 0.0) & (pair <= top)
    hit = ok[1] & (np.floor(v[1]) == hi)
    dist = np.where(ok, np.maximum(pair - v, v - (pair + 1.0)), np.inf)
    near = np.where(dist < _NEAR * (pair + 1.0), dist, np.inf)
    col = (np.where(hit, 1, near.argmin(0)), np.arange(n))
    dist = np.where(hit, -1.0, near.min(0))
    found = np.isfinite(dist)
    return (np.where(found, pair[col], 0.0).astype(np.int64), dist,
            [np.where(found, a[col], 0) for a in values])


def _constant_terms(xb, k: ContentConstants, q, q1):
    """The terms of ``d = t0 - t1 + t2`` in ``_quadratic``'s root
    ``2*d / (s + f)`` at candidates ``q`` (``q1 = q + 1``), each >= 0:
    their sum bounds the rounding of d."""
    return k.cf_rc, q1 * xb / k.r, k.c_w * q * q1 / k.den


def _quadratic(g, xb, k: ContentConstants, q):
    """``case2_candidates`` at queue candidates ``q``, given ``xb = x/beta``
    and ``g = xb - C_h/rc``; all arguments broadcast against the rows of
    ``k``.  The one implementation of the per-candidate quadratic."""
    q1 = q + 1.0
    f = g + q1 / k.r
    t0, t1, t2 = _constant_terms(xb, k, q, q1)
    d = t0 - t1 + t2
    d2 = 2.0 * d
    disc = f * f + d2
    s = np.sqrt(np.maximum(disc, 0.0))
    # the larger root s - f, as 2*d / (s + f) so that it does not cancel
    # where tb << f (Higham 2002, "Accuracy and Stability of Numerical
    # Algorithms", 2nd ed., 1.8).  f = (1 - e^-x)/beta + (q+1)/(p*beta) is
    # >= 0 for every candidate q >= -1, and |f| keeps a rounding just below
    # 0 from cancelling in the denominator.  f is 0 only for the guard -1
    # at C_h = 0, where d = c_f/rc > 0, so the denominator is not 0
    tb = d2 / (s + np.abs(f))
    admissible = tb >= -1e-12
    if not admissible.all():
        # a root that d's rounding puts below 0 is admissible: next to I,
        # where tb falls to 0, d cancels between terms up to ~1e6 times
        # larger, and 1e-15 of their sum bounds that rounding (as in
        # breakpoint_estimate)
        admissible |= d >= -1e-15 * (t0 + t1 + t2)
    ok = (disc >= 0.0) & admissible & (q <= k.top)
    tb = np.maximum(tb, 0.0)
    tt = tb + xb
    return tb, tt, k.rc * tt / k.c_w, ok


def _gaps(C_h: np.ndarray, k: ContentConstants):
    """``(g, xb)`` of ``_quadratic`` at ``C_h``, broadcast against the
    contents of ``k``."""
    xb = solve_gap(C_h / k.pc) / k.beta
    return xb - C_h / k.rc, xb


def case2_candidates(C_h, k: ContentConstants, q):
    """``(tau_bar, tau_tilde, v, ok)`` of queue candidates ``q`` at ``C_h``:
    the per-candidate quadratic of ``case2``.  ``q`` broadcasts against
    ``C_h[..., None]`` and the contents of ``k`` (also ``[..., None]``);
    ``v`` is the floor argument of (iii) and ``ok`` marks admissible
    roots."""
    g, xb = _gaps(np.asarray(C_h, dtype=float), k)
    return _quadratic(g[..., None], xb[..., None],
                      ContentConstants(k.beta, k.rows[..., None], k.q_hat), q)


def case2_residuals(
    C_h: float, params: ContentParams, beta: float,
    tau_bar: float, tau_tilde: float, Q_bar: int,
) -> tuple[float, float, float]:
    """Residuals of the three defining equations at a candidate solution."""
    p, lam = params.p, params.lam
    cm = params.costs
    r = p * beta
    x = beta * (tau_tilde - tau_bar)
    r1 = x + math.exp(-x) - 1.0 - C_h / (p * cm.c_a * lam)
    r2 = (
        beta * p * cm.c_a * lam * (tau_tilde * tau_bar - tau_bar * tau_bar / 2.0)
        - C_h * tau_bar
        + (Q_bar + 1) * cm.c_a * lam * tau_tilde
        - cm.c_f
        - cm.c_w * Q_bar * (Q_bar + 1) / (2.0 * r)
    )
    v = r * cm.c_a * lam * tau_tilde / cm.c_w
    r3 = 0.0 if math.floor(v) == Q_bar else v - Q_bar
    return r1, r2, r3


@dataclass(frozen=True)
class ThresholdSet:
    """All threshold quantities for one content at one holding cost.

    Satisfies ``tau_bar <= tau_star <= tau_tilde <= tau0`` and
    ``Q_star <= Q_bar <= Q_hat``; ``Q_bar = floor(p*beta*c_a*lam*tau_tilde/c_w)``.
    ``I``, the largest holding cost at which caching is still worthwhile,
    is the ``C_h`` at which the serve region collapses (``tau_bar = 0``,
    ``tau_tilde = tau0``); from it on the set is never-cache's, ``Q_bar =
    Q_hat`` and ``theta`` the never-cache cost.
    """

    tau_star: float
    Q_star: int
    tau_bar: float
    tau_tilde: float
    Q_bar: int
    Q_hat: int
    tau0: float
    I: float
    theta: float
    C_h: float


def solve_thresholds(params: ContentParams, beta: float, C_h: float = 0.0) -> ThresholdSet:
    """Bundle of every Theorem-level threshold for one content at one C_h."""
    return solve_thresholds_batch(params, beta, [C_h])[0]


def solve_thresholds_batch(params: ContentParams, beta: float,
                           C_h: Sequence[float]) -> list[ThresholdSet]:
    """``solve_thresholds`` at each holding cost of ``C_h``, from one
    ``relaxed_batch`` call that solves ``C_h = 0`` along with them, so case
    2 is solved once.  Where ``I`` underflows to 0, ``relaxed_batch``
    reads never-cache at 0 and solves no case 2, and the ``C_h = 0``
    thresholds come from ``zero_holding_thresholds``."""
    C_h = np.asarray(C_h, dtype=float)
    if (C_h < 0).any():
        raise ValueError(f"C_h must be >= 0, got {C_h[C_h < 0][0]}")
    k = content_constants((params,), beta)
    solved = relaxed_batch(np.concatenate([[0.0], C_h]), k)
    star = zero_holding_thresholds(k, solved[:4] if k.I[0] > 0.0 else None)[0]
    tb, tt, qb, theta, _ = (a[1:].tolist() for a in solved)
    return [replace(star, tau_bar=tb[j], tau_tilde=tt[j], Q_bar=qb[j], theta=theta[j], C_h=ch)
            for j, ch in enumerate(C_h.tolist())]


def zero_holding_thresholds(k: ContentConstants, zero=None) -> list[ThresholdSet]:
    """``solve_thresholds(params, beta, 0.0)`` for every content of ``k``,
    from ``zero``, the contents' ``case2`` at ``C_h = 0`` if the caller
    has solved it, or one call of it.  Holding is free there, so they are
    case 2's even where ``I`` underflows to 0 and ``relaxed_batch`` reads
    never-cache from ``C_h = 0 = I`` on.  With ``x = 0``, ``(tau_star,
    Q_star)`` jointly satisfies, at request rate ``r = p*beta``,

        tau = (-(Q+1) + sqrt((Q+1)^2 + 2*r*c_f/(c_a*lam)
                             + Q*(Q+1)*c_w/(c_a*lam))) / r
        Q   = floor(r*c_a*lam*tau / c_w)

    and ``theta = r*c_a*lam*tau_star``."""
    zero = case2(np.zeros(k.I.size), k) if zero is None else zero
    tb, tt, qb, theta = (a.tolist() for a in zero)
    return [
        ThresholdSet(tau_star=tb[i], Q_star=qb[i], tau_bar=tb[i], tau_tilde=tt[i],
                     Q_bar=qb[i], Q_hat=q_hat, tau0=tau0, I=I, theta=theta[i], C_h=0.0)
        for i, (q_hat, tau0, I) in enumerate(zip(k.q_hat.tolist(), k.tau0.tolist(),
                                                 k.I.tolist()))
    ]


class Relaxed(NamedTuple):
    """Per entry of ``relaxed_batch``: the optimal policy's thresholds, cost and occupancy."""

    tau_bar: np.ndarray
    tau_tilde: np.ndarray
    Q_bar: np.ndarray   # int64
    theta: np.ndarray
    occupancy: np.ndarray


def _q_bar_estimate(C_h: np.ndarray, k: ContentConstants, xb: np.ndarray) -> np.ndarray:
    """Each content's ``Q_bar`` at its ``C_h``, in closed form from
    ``xb = x/beta`` (``solve_gap``): where ``case2`` starts its search.

    ``case2`` writes (ii) as ``Psi_Q(v) = a*v^2/2 + (Q+1-c)*v + e
    - Q*(Q+1)/2`` with ``a = c_w/(c_a*lam)``, ``c = C_h/(c_a*lam)`` and

        e = (p*beta/c_w) * (C_h*xb - p*beta*c_a*lam*xb^2/2 - c_f),

    free of Q.  Candidate Q's root ``v_Q`` is the larger root of
    ``Psi_Q``, so ``v_Q >= Q`` where ``Psi_Q(Q) <= 0``, and ``v_Q < Q+1``
    where ``Psi_Q(Q+1) = Psi_{Q+1}(Q+1) > 0``.  At ``v = Q``

        F(Q) = Psi_Q(Q) = (a+1)*Q^2/2 + h*Q + e,   h = 1/2 - c,

    a convex quadratic in Q, and ``Q_bar``, the Q with
    ``F(Q) <= 0 < F(Q+1)``, is the floor of its larger root
    ``(s - h)/(a+1)`` with ``s = sqrt(h^2 - 2*(a+1)*e)``.  As
    ``h <= 1/2``, ``s - h`` loses at most an ulp of 1/2 to cancellation.
    The whole discriminant is clipped at 0, and the estimate to
    ``0..Q_hat+2``.  The floor test's rounding at a ``Q_bar`` jump and
    the admissibility of the roots, which ``F`` does not see, can put
    ``Q_bar`` off the estimate; the search then goes on from it, so the
    estimate moves only the time, never a value."""
    h = 0.5 - C_h / k.c_alam
    e = k.r_cw * (C_h * xb - 0.5 * k.rc * xb * xb - k.c_f)
    s = np.sqrt(np.maximum(h * h - 2.0 * k.a1 * e, 0.0))
    return np.minimum(np.maximum(np.floor((s - h) / k.a1), 0.0), k.top)


def breakpoint_estimate(k: ContentConstants, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each content's smallest ``C_h`` at which ``Q_bar`` exceeds its
    ``q`` (``Q_star <= q < Q_hat``), in closed form, and a bound on that
    value's error.

    ``Q_bar`` exceeds q where ``F(q+1) <= 0``, with ``F`` the quadratic of
    ``_q_bar_estimate``.  With ``C_h = p*c_a*lam*gap(x)`` (``gap_value``)
    and ``Q = q+1`` that is ``G(x) = 0`` for

        G(x) = (a+1)*Q^2/2 + Q/2 - p*beta*c_f/c_w - p*Q*gap(x)
               + A*(x^2/2 - x*(1 - e^-x)),   A = p^2*c_a*lam/c_w,

    and ``G'(x) = (1 - e^-x)*(A*(x - 1) - p*Q)``: G falls to a single
    minimum and rises after it.  ``G(0)`` is ``F(Q)`` at ``C_h = 0``,
    positive as ``Q_bar(0) <= q``, and ``G(beta*tau0) <= 0`` at ``I``, so
    the root is the one crossing in between.  Newton's method, kept
    inside the bracket that each step narrows, finds it; it starts from
    the smaller root of the quadratic that G becomes where ``e^-x`` is
    negligible (``gap(x) = x - 1``), which is where the roots lie on the
    shipped configs (x from 5 up), and stops once a step is below the
    rounding error of G's terms over ``|G'|``.

    The bound adds that error and the last step, carried to ``C_h``, to
    how far case 2's own rounding can move the jump it reads: candidate
    Q's ``tau_tilde`` comes from a quadratic, and the rounding of its
    terms over its slope in ``C_h`` (``relaxed_batch``) is that distance.
    Where the closed form is not what ``case2`` reads (an inadmissible
    root, the floor test's rounding, a regime the quadratic ``F`` does
    not see) the value is off or the bound infinite; ``whittle._bisect``
    checks both with ``case2`` before it uses them."""
    Q = q + 1.0
    A = k.p * k.pc / k.c_w
    pq = k.p * Q
    big = k.r_cw * k.c_f  # p*beta*c_f/c_w
    const = 0.5 * k.a1 * Q * Q + 0.5 * Q - big
    lo, hi = np.zeros(q.shape), k.beta * k.tau0
    s = A + pq
    with np.errstate(all="ignore"):
        x = np.clip((s - np.sqrt(np.maximum(s * s - 2.0 * A * (const + pq), 0.0))) / A, lo, hi)
        for _ in range(_NEWTON_STEPS):
            e = np.expm1(-x)
            t1, t2 = pq * _gap(x, e), A * (0.5 * x * x + x * e)
            g = const - t1 + t2
            slope = -e * (A * (x - 1.0) - pq)  # G'(x)
            err = 1e-15 * (np.abs(const) + big + t1 + np.abs(t2)) / np.abs(slope)
            lo, hi = np.where(g > 0.0, x, lo), np.where(g > 0.0, hi, x)
            step = g / slope
            x = x - step
            x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
            if (np.abs(step) <= err).all():
                break
        root, e = k.pc * gap_value(x), np.expm1(-x)
        # _quadratic's terms at the root, for candidate Q
        g, xb = _gaps(root, k)
        q1 = Q + 1.0
        f = g + q1 / k.r
        terms = _constant_terms(xb, k, Q, q1)
        sq = np.sqrt(f * f + 2.0 * (terms[0] - terms[1] + terms[2]))
        size = xb + root / k.rc + q1 / k.r + (f * f + 2.0 * sum(terms)) / sq
        tb = sq - f
        slope_tt = (tb + 1.0 / k.beta) / (k.c_alam * (k.r * tb - k.p * e + Q + 1.0))
        moved = np.where(sq > 0.0, 1e-15 * size / slope_tt, np.inf)
        return root, k.pc * -e * (err + np.abs(step)) + moved


_NEWTON_STEPS = 30  # at most; 0-5 on the shipped configs


def case2(C_h: np.ndarray, k: ContentConstants):
    """Thresholds ``(tau_bar, tau_tilde, Q_bar, theta)`` for ``0 <= C_h < I``
    of content i of ``k`` at ``C_h[i]``: the one case-2 solver.

    The triple is the unique solution of

        (i)   beta*(tt - tb) + exp(-beta*(tt - tb)) - 1 - C_h/(p*c_a*lam) = 0
        (ii)  beta*p*c_a*lam*(tt*tb - tb^2/2) - C_h*tb
                + (Qb+1)*c_a*lam*tt - c_f - c_w*Qb*(Qb+1)/(2*p*beta) = 0
        (iii) Qb = floor(p*beta*c_a*lam*tt / c_w)

    (i) gives ``x = beta*(tt - tb)`` through ``solve_gap``; substituting
    ``tt = tb + x/beta`` turns (ii) into a quadratic in ``tb`` for each
    queue candidate ``Qb = 0..Q_hat+2`` (``case2_candidates``), and
    ``search_candidates`` keeps the root that satisfies (iii), starting
    from the pair of candidates at ``_q_bar_estimate`` and the one below
    it, in one evaluation of the quadratic wherever that pair decides.
    Raises ``ConsistencyError`` where no candidate is near its cell.

    Why at most one candidate satisfies (iii), and why ``P(Q) = Q <= top
    and (not ok_Q or v_Q >= Q+1)`` holds on a prefix of ``0..top+1``, so
    that a bracketed search finds it: write (ii) in ``v =
    p*beta*c_a*lam*tt/c_w`` and multiply it by ``p*beta/c_w``.  With ``a
    = c_w/(c_a*lam)`` and ``c = C_h/(c_a*lam)`` it reads

        Psi_Q(v) = a*v^2/2 + (Q + 1 - c)*v + e - Q*(Q+1)/2 = 0,

    e free of Q, and candidate Q's ``v_Q`` is its larger root, where
    ``S_Q = Psi_Q'(v_Q) = a*v_Q + Q + 1 - c >= 0``.  Then

    * ``Psi_{Q+1}(v) = Psi_Q(v) + v - (Q+1)``, so ``Psi_{Q+1}(Q+1) =
      Psi_Q(Q+1)``: ``v_Q >= Q+1`` exactly when ``v_{Q+1} >= Q+1``, and
      no two candidates both satisfy (iii);
    * the root is admissible (``tb >= 0``) where ``v_Q >= v0 = p*x/a``,
      the v at ``tb = 0``; as ``a*v0 = p*x >= p*(x + e^-x - 1) = c`` by
      (i), ``Psi_Q'(v0) >= Q+1 > 0``, so that is where ``Psi_Q(v0) <= 0``
      (a negative discriminant is the case ``Psi_Q > 0`` everywhere);
    * ``Psi_{Q+1}(v0) - Psi_Q(v0) = v0 - (Q+1)`` falls with Q, so
      ``Psi_Q(v0)`` is unimodal in Q, and the inadmissible candidates, its
      positive part, form one run.  Before the run it rises, so ``Q+1 <
      v0 <= v_Q``: those candidates lie above their cells;
    * after the run ``Psi_Q(v0)`` falls, every candidate is admissible and
      ``Psi_{Q+1}(v_Q + 1) = S_Q + a/2 + f_Q = (1+a)*v_Q + 1 + a/2 - c``
      with ``f_Q = v_Q - Q``, which is at least ``1 + a/2 > 0`` as ``a*v_Q
      >= a*v0 >= c``.  So ``v_{Q+1} < v_Q + 1``: the excess f is strictly
      decreasing, and as ``Psi_{Q+1}`` is a quadratic, ``f_Q - f_{Q+1} =
      2*Psi_{Q+1}(v_Q+1) / (S_Q + S_{Q+1} + 1 + a)``, which exceeds 1/2
      where ``f_Q >= 0`` and ``1/(Q+2)`` everywhere: far above the
      ``1e-9*(Q+1)`` near tolerance.

    So P holds before and on the run and while ``f_Q >= 1`` after it,
    and fails from there on; the first candidate without it is the only
    one that can hit, and where it does not, it and the one below it are
    the nearest to their cells.  The one exception is a candidate just
    before the run within the tolerance above its cell, which needs
    ``v0`` within it of ``Q+1`` and ``Psi_Q(v0)`` within it of 0 at
    once; there the search and a scan of every candidate can differ.
    The same structure holds for the Wright-omega form of
    ``whittle.cached_index_rows``.

    Case 2 is solved only below ``I`` (``relaxed_batch`` decides the
    regime): at ``I`` a large ``c_f/(c_a*lam)`` can leave no candidate
    that passes the floor test, and where ``Q_bar`` jumps exactly at
    ``I`` this kernel reads the ``Q_bar`` below the jump, not ``Q_hat``.
    Within ulps below ``I``, where the dual bound's search can land,
    ``tau_bar`` falls to 0 and the quadratic's constant term cancels
    between terms up to ~1e6 times larger; ``_quadratic`` admits a root
    that this rounding puts below 0, so a candidate still passes there.
    """
    g, xb = _gaps(C_h, k)
    qb = _q_bar_estimate(C_h, k, xb)
    q = np.array([qb - 1.0, qb])  # laid out first; at -1 the quadratic gives v >= 0, so P
    qb, dist, (tb, tt) = search_candidates(
        lambda rows, q: _quadratic(g[rows], xb[rows], k.take(rows), q), k.top, q,
        _quadratic(g, xb, k, q))
    if not (found := np.isfinite(dist)).all():
        raise ConsistencyError(
            f"no floor-consistent Q_bar at C_h={C_h[~found]} (beta={k.beta})")
    return tb, tt, qb, k.rc * tt


def relaxed_batch(C_h, k: ContentConstants) -> Relaxed:
    """The optimal single-content policy at C_h (broadcast against the
    contents of ``k``): ``case2``'s thresholds and cost below
    ``I``, the never-cache ``(0, tau0, Q_hat, theta_case1)`` from ``I``
    on, and the slope of theta in C_h, which is the fraction of time the
    policy holds the content (envelope theorem: ``theta`` is a minimum
    over policies of a cost affine in C_h, whose slope is that policy's
    occupancy).

    ``case2`` decides how case 2 is solved, for every caller alike.

    The slope follows from (i)-(ii) of ``case2`` by implicit
    differentiation at fixed ``Q_bar``.  With ``x = beta*(tt - tb)``,
    (i) gives ``p*c_a*lam*(1 - e^-x)*x' = 1``; differentiating (ii) and
    substituting ``tb' = tt' - x'/beta`` and ``C_h = p*c_a*lam*(x + e^-x - 1)``
    leaves ``c_a*lam*(p*beta*tb + p*(1 - e^-x) + Q_bar + 1)*tt' = tb + 1/beta``,
    so, as ``theta = p*beta*c_a*lam*tt``,

        theta'(C_h) = p*(1 + beta*tb) / (p*(1 + beta*tb - e^-x) + Q_bar + 1)

    for ``C_h < I`` and 0 from ``I`` on (the never-cache cost is flat).  It
    lies in (0, 1], as ``p*e^-x <= 1 <= Q_bar + 1``, and has no
    singularity at ``C_h = 0`` (x = 0, the denominator is at least
    ``Q_bar + 1``).  At a ``Q_bar`` jump theta has a kink, and the value
    is the slope of the piece of the ``Q_bar`` that ``case2``
    picks there: a one-sided derivative.  At ``C_h = I`` the two regimes
    meet: ``theta_case1`` is the value there and 0 the right-hand slope.
    Case 2 is solved only below ``I`` (see ``case2``), so a content
    at or above it costs one comparison.
    """
    C_h = np.asarray(C_h, dtype=float)
    under = C_h < k.I
    n = np.nonzero(under)
    i = n[-1] % k.I.size  # the contents' axis is last, or one content broadcasts
    ki = k if i.size == under.size == k.I.size else k.take(i)
    ch = np.full(i.size, float(C_h)) if C_h.ndim == 0 else np.broadcast_to(C_h, under.shape)[n]
    tb, tt, qb, _ = solved = case2(ch, ki)
    p = ki.p
    u = p * (1.0 + k.beta * tb)
    occupancy = u / (u - p * np.exp(-k.beta * (tt - tb)) + qb + 1.0)
    out = Relaxed(np.zeros(under.shape), np.where(under, 0.0, k.tau0),
                  np.where(under, 0, k.q_hat), np.where(under, 0.0, k.theta1),
                  np.zeros(under.shape))
    for a, x in zip(out, (*solved, occupancy)):
        a[n] = x
    return out

