import numpy as np
import pytest

from aovcache.checks import bits_differ
from aovcache.model import ContentParams, CostModel, SystemParams, zipf_popularity


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
