import numpy as np
import pytest

from aovcache.model import (
    CacheSystemState,
    ContentParams,
    CostModel,
    OccupancyError,
    SingleContentState,
    SystemParams,
    validate,
    zipf_popularity,
)
from conftest import desk_system


class TestZipf:
    def test_single_content(self):
        assert zipf_popularity(1, 1.0).tolist() == [1.0]

    def test_uniform_for_alpha_zero(self):
        assert zipf_popularity(2, 0.0).tolist() == [0.5, 0.5]

    def test_harmonic_oracle_n1000(self):
        # independent oracle: direct harmonic summation
        h1000 = sum(1.0 / i for i in range(1, 1001))
        p = zipf_popularity(1000, 1.0)
        assert abs(p[0] - 1.0 / h1000) < 1e-12
        assert abs(p[0] - 0.1336) < 5e-4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_popularity(0, 1.0)
        with pytest.raises(ValueError):
            zipf_popularity(10, -0.5)

    @pytest.mark.parametrize("n,alpha", [(10, 0.0), (1000, 1.0), (10**6, 3.0),
                                         (10**6, 0.0), (17, 2.2)])
    def test_probability_vector(self, n, alpha):
        p = zipf_popularity(n, alpha)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p > 0).all()
        if alpha > 0:
            assert (np.diff(p) < 0).all()


class TestValidate:
    def test_paper_config_ok(self):
        system = desk_system(N=1000, beta=40.0, M=200, c_w=0.01)
        assert validate(system) == []

    def test_capacity_must_be_below_n(self):
        system = desk_system(N=10, M=10)
        names = [d.name for d in validate(system)]
        assert "capacity" in names

    def test_popularity_must_sum_to_one(self):
        base = desk_system(N=5, M=2)
        contents = tuple(
            ContentParams(lam=c.lam, p=2 * c.p, costs=c.costs)
            for c in base.contents
        )
        bad = SystemParams(beta=base.beta, contents=contents, M=2)
        names = [d.name for d in validate(bad)]
        assert "popularity" in names

    def test_reports_all_violations(self):
        c = ContentParams(lam=-1.0, p=2.0, costs=CostModel(-1, 0, 0))
        bad = SystemParams(beta=-1.0, contents=(c,), M=1)
        names = {d.name for d in validate(bad)}
        assert {"beta", "capacity", "lambda", "popularity",
                "c_a", "c_f", "c_w"} <= names


class TestSingleContentState:
    def test_uncached_tau_must_be_zero(self):
        with pytest.raises(ValueError):
            SingleContentState(0, 1.0, False, True)
        SingleContentState(0, 0.0, False, True)

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            SingleContentState(-1, 0.0, True, True)


class TestCacheSystemState:
    def make(self, n=6, m=3):
        return CacheSystemState(n, m, [0.5] * n)

    def test_initial_fill_and_occupancy(self):
        s = self.make()
        s.check_occupancy()
        s.preload([1, 3, 5])
        assert s.cache_set == {1, 3, 5}
        s.check_occupancy()

    def test_preload_wrong_size(self):
        with pytest.raises(OccupancyError):
            self.make().preload([0, 1])

    def test_wait_then_serve_queue_semantics(self):
        s = self.make()
        s.t = 1.0
        s.apply_wait(0)
        s.apply_wait(0)
        assert s.queue[0] == 2 and s.total_queue == 2
        assert s.queue_cost_rate == pytest.approx(1.0)
        served = s.apply_serve(0)
        assert served == 3 and s.queue[0] == 0 and s.total_queue == 0

    def test_fetch_resets_tau_only_when_kept(self):
        s = self.make()
        s.t = 2.0
        s.apply_fetch(0, cache=True)          # already cached: refresh
        assert s.fetch_time[0] == 2.0
        s.t = 5.0
        s.apply_fetch(4, cache=False)         # discard: tau untouched
        assert s.fetch_time[4] == 0.0
        s.apply_fetch(4, cache=True, evict=0)
        assert s.fetch_time[4] == 5.0
        assert s.cache_set == {1, 2, 4}
        s.check_occupancy()

    def test_admission_requires_eviction(self):
        s = self.make()
        with pytest.raises(OccupancyError):
            s.apply_fetch(5, cache=True)
        with pytest.raises(OccupancyError):
            s.apply_fetch(5, cache=True, evict=4)  # 4 not cached

    def test_mutations_preserve_occupancy(self):
        rng = np.random.default_rng(5)
        s = self.make(10, 4)
        for _ in range(500):
            s.t += 0.1
            n = int(rng.integers(10))
            op = rng.integers(3)
            if op == 0:
                s.apply_wait(n)
            elif n in s.cache_set:
                s.apply_serve(n) if op == 1 else s.apply_fetch(n, cache=True)
            else:
                victim = min(s.cache_set)
                s.apply_fetch(n, cache=bool(op == 1),
                              evict=victim if op == 1 else None)
            s.check_occupancy()

    def test_realized_aov_accumulates_and_resets(self):
        s = self.make()
        rng = np.random.default_rng(0)
        s.t = 50.0
        v = s.realized_aov(0, 1.0, rng)
        assert v > 0                      # Poisson(50): zero is essentially impossible
        assert s.realized_aov(0, 1.0, rng) == v  # no elapsed time, unchanged
        s.apply_fetch(0, cache=True)
        assert s.aov[0] == 0
