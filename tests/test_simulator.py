import ctypes
import math
import multiprocessing.pool
import os
import pickle
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aovcache import _ckernel, checks, simulator, whittle
from aovcache.model import ContentParams, CostModel, SystemParams, validate, zipf_popularity
from aovcache.policies import PolicyKind, build_policy_tables
from aovcache.simulator import (
    AgeingMode,
    SimConfig,
    SimulationError,
    aggregate,
    run,
    sweep,
)
from aovcache.thresholds import solve_thresholds
from aovcache.whittle import GRID_SIZE, INV_STEP, Q_HAT, Q_STAR, TAU_STAR
from conftest import UNIT, assert_same_bits, corrupt_cache, desk_system


def single_content_config(**kw):
    system = SystemParams(beta=1.0, contents=(UNIT,), M=0)
    defaults = dict(system=system, policy=PolicyKind.INFINITE_CAPACITY,
                    horizon_events=200_000, seed=11)
    defaults.update(kw)
    return SimConfig(**defaults)


@pytest.fixture(scope="module")
def desk():
    system = desk_system(N=40, beta=4.0, M=10)
    tables = build_policy_tables(system)
    return system, tables


class TestRunBasics:
    def test_deterministic(self, desk):
        system, tables = desk
        cfg = SimConfig(system=system, horizon_events=50_000, seed=99)
        assert run(cfg, tables) == run(cfg, tables)

    def test_seed_changes_trajectory(self, desk):
        system, tables = desk
        a = run(SimConfig(system=system, horizon_events=50_000, seed=1), tables)
        b = run(SimConfig(system=system, horizon_events=50_000, seed=2), tables)
        assert a != b

    def test_components_sum_to_total(self, desk):
        system, tables = desk
        m = run(SimConfig(system=system, horizon_events=50_000, seed=5), tables)
        total = m.fetch_cost_rate + m.ageing_cost_rate + m.waiting_cost_rate
        assert m.avg_total_cost == pytest.approx(total, rel=1e-9)
        assert m.reconciliation <= 1e-9

    def test_time_horizon(self, desk):
        system, tables = desk
        m = run(SimConfig(system=system, horizon_time=2000.0, seed=5), tables)
        assert m.duration <= 2000.0
        assert m.event_count > 0

    def test_config_validation(self, desk):
        system, tables = desk
        with pytest.raises(ValueError):
            run(SimConfig(system=system, seed=1))  # no horizon
        with pytest.raises(ValueError):
            run(SimConfig(system=system, horizon_events=10, warmup=0.9))
        bad = replace(system, M=system.N)
        with pytest.raises(ValueError):
            run(SimConfig(system=bad, horizon_events=10))

    @pytest.mark.parametrize("horizon_time", [math.inf, math.nan])
    def test_non_finite_horizon_time_raises(self, desk, horizon_time):
        # an infinite time horizon alone would never end
        system, tables = desk
        with pytest.raises(ValueError, match="horizon_time"):
            run(SimConfig(system=system, horizon_events=100, horizon_time=horizon_time),
                tables)

    def test_invalid_system_raises_on_validated_tables(self, desk):
        # a run remembers the last system it validated on the tables; a
        # different, invalid system still raises
        system, tables = desk
        run(SimConfig(system=system, horizon_events=10), tables)
        with pytest.raises(ValueError, match="capacity"):
            run(SimConfig(system=replace(system, M=system.N), horizon_events=10), tables)

    @pytest.mark.parametrize("loop", ["compiled", "python"])
    def test_tables_of_another_system_raise(self, monkeypatch, loop):
        # the kernel would index the run's N-long state arrays by the
        # tables' ids, and pick ids from the tables' popularity
        if loop == "compiled" and _ckernel.event_loop is None:
            pytest.skip("compiled event loop unavailable")
        if loop == "python":
            monkeypatch.setattr(_ckernel, "event_loop", None)
        small = desk_system(N=40, beta=4.0, M=10)
        for built, system in [
            (desk_system(N=400, beta=4.0, M=10), small),        # more contents
            (desk_system(), desk_system(alpha=0.0)),            # other popularity
            (replace(small, beta=8.0), small),                  # other beta
        ]:
            tables = build_policy_tables(built, indices=False)
            cfg = SimConfig(system=system, policy=PolicyKind.STATIC_TOP_M,
                            horizon_events=200_000, seed=1)
            with pytest.raises(ValueError, match="another system"):
                run(cfg, tables)
        # equal contents in another tuple are the same system
        cfg = SimConfig(system=small, policy=PolicyKind.STATIC_TOP_M, horizon_events=1_000)
        tables = build_policy_tables(desk_system(N=40, beta=4.0, M=10), indices=False)
        assert run(cfg, tables) == run(cfg)

    @pytest.mark.parametrize("loop", ["compiled", "python"])
    def test_corrupted_cache_raises(self, monkeypatch, desk, loop):
        # a run whose cache stops holding M contents raises, so the
        # metrics of a finished run always come from a valid one
        system, tables = desk
        if loop == "compiled" and _ckernel.event_loop is None:
            pytest.skip("compiled event loop unavailable")
        if loop == "python":
            monkeypatch.setattr(_ckernel, "event_loop", None)
        corrupt_cache(monkeypatch, system)
        with pytest.raises(SimulationError, match="occupancy violated"):
            run(SimConfig(system=system, horizon_events=20_000, seed=1), tables)

    def test_zero_warmup_counts_everything(self, desk):
        system, tables = desk
        m = run(SimConfig(system=system, horizon_events=20_000, seed=3,
                          warmup=0.0), tables)
        assert m.event_count == 20_000
        assert m.duration == pytest.approx(m.event_count / system.beta, rel=0.05)


class TestSingleContentTheorem:
    def test_average_cost_near_closed_form(self):
        # medium-horizon version of the long acceptance run
        theta = solve_thresholds(UNIT, 1.0).theta
        m = run(single_content_config(horizon_events=500_000))
        assert m.avg_total_cost == pytest.approx(theta, rel=0.02)
        assert m.serve_after_wait == 0

    def test_tiny_fetch_cost_kills_cost(self):
        c = ContentParams(lam=1.0, p=1.0, costs=CostModel(1.0, 1e-12, 0.5))
        system = SystemParams(beta=1.0, contents=(c,), M=0)
        m = run(SimConfig(system=system, policy=PolicyKind.INFINITE_CAPACITY,
                          horizon_events=100_000, seed=2))
        assert m.avg_total_cost < 1e-5


needs_kernel = pytest.mark.skipif(
    _ckernel.event_loop is None,
    reason="compiled event loop unavailable (no C compiler, no writable cache "
           "or no libnpyrandom.a in numpy)")

LOCKSTEP_SYSTEMS = {
    "desk": lambda: desk_system(N=40, beta=4.0, M=10),
    "paper-like": lambda: desk_system(N=100, beta=40.0, M=25),
    "unit-M0": lambda: SystemParams(beta=1.0, contents=(UNIT,), M=0),
    "desk-M1": lambda: desk_system(N=40, beta=4.0, M=1),
    # equal popularity: some evictions tie, which exercises the lowest-id rule
    "uniform": lambda: desk_system(N=40, beta=4.0, M=10, alpha=0.0),
}


@pytest.fixture(scope="module")
def lockstep_tables():
    return {name: (make(), build_policy_tables(make()))
            for name, make in LOCKSTEP_SYSTEMS.items()}


# the kernel's draws per block (test_one_draw_per_event_from_each_stream
# checks it)
BLOCK = 256

# a popularity summing to 1 + 6e-10, which validation accepts: its
# cumsum passes 1.0 before the last entry, which the clamp sets below it
OVERSHOOT = [0.25, 0.5, 0.25 + 5e-10, 1e-10]


def _generators(streams: np.ndarray) -> list:
    """The kernel's three streams, the ``3 * STREAM_WORDS`` words of a
    run's stream block, as numpy Generators in the same state: each
    stream's first six words are its PCG64 state and increment (high word
    first), ``has_uint32`` and ``uinteger``."""
    gens = []
    for w in streams.view(np.uint64).reshape(3, -1).tolist():
        bg = np.random.PCG64()
        bg.state = {"bit_generator": "PCG64",
                    "state": {"state": w[0] << 64 | w[1], "inc": w[2] << 64 | w[3]},
                    "has_uint32": w[4], "uinteger": w[5]}
        gens.append(np.random.Generator(bg))
    return gens


def _rngs_of(monkeypatch):
    """The three streams of each run, as numpy Generators: the reference
    loop's as it creates them with ``default_rng``, the compiled loop's,
    which makes no Generator, read from its stream block as the run ends."""
    made, blocks = [], []

    def default_rng(seed):
        made.append(real_rng(seed))
        return made[-1]

    def block(dtype, sizes):
        views, addresses = real_block(dtype, sizes)
        if dtype is np.int64:  # the streams, then the seed's words
            blocks.append(views[-2])
        return views, addresses

    def compiled_loop(*args):
        result = real_loop(*args)
        assert blocks[-1].size == 3 * _ckernel.STREAM_WORDS
        made.extend(_generators(blocks[-1]))
        return result

    real_rng, real_block, real_loop = (np.random.default_rng, simulator._block,
                                       simulator._compiled_loop)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(simulator, "_block", block)
    monkeypatch.setattr(simulator, "_compiled_loop", compiled_loop)
    return made


class TestCompiledLoop:
    """The compiled event loop against the reference loop, which steps
    ``CacheSystemState`` through the public decision rules; the tests
    select it by setting the loader's handle to None."""

    @needs_kernel
    @pytest.mark.parametrize("name", list(LOCKSTEP_SYSTEMS))
    @pytest.mark.parametrize("horizon", [
        dict(horizon_events=20_000),
        dict(horizon_time=2_000.0),
        dict(horizon_events=20_000, warmup=0.0),
        # a block ends at the warmup stop, event BLOCK, and at the horizon
        dict(horizon_events=10 * BLOCK),
        # the whole run is shorter than one block
        dict(horizon_events=BLOCK // 2),
    ], ids=["events", "time", "no-warmup", "block-edges", "short"])
    def test_bit_identical_to_python_loop(self, monkeypatch, lockstep_tables,
                                          name, horizon):
        system, tables = lockstep_tables[name]
        kernel = _ckernel.event_loop
        calls = []

        def counting(*args):
            calls.append(args[:2])  # policy code, realized
            return kernel(*args)

        for policy in PolicyKind:
            for mode in AgeingMode:
                for seed in (1, 2, 1000):
                    cfg = SimConfig(system=system, policy=policy, ageing_mode=mode,
                                    seed=seed, **horizon)
                    monkeypatch.setattr(_ckernel, "event_loop", counting)
                    compiled = run(cfg, tables)
                    monkeypatch.setattr(_ckernel, "event_loop", None)
                    assert run(cfg, tables) == compiled, (policy, mode, seed)
        # the kernel really ran, for every policy and mode
        assert len(set(calls)) == len(PolicyKind) * len(AgeingMode)

    @needs_kernel
    def test_myopic_carry_over_many_slots(self, monkeypatch):
        # 137 cached copies whose lookaheads saturate at c_f, so many
        # eviction gains tie and the lowest-id rule picks the victim in
        # both loops, however each orders the cache
        system = desk_system(N=300, beta=40.0, M=137, c_w=2.0, lam=0.2)
        tables = build_policy_tables(system, indices=False)
        cfg = SimConfig(system=system, policy=PolicyKind.MYOPIC,
                        horizon_events=20_000, seed=1)
        compiled = run(cfg, tables)
        monkeypatch.setattr(_ckernel, "event_loop", None)
        assert run(cfg, tables) == compiled
        assert compiled.fetch_rate > 0

    @needs_kernel
    @pytest.mark.parametrize("make", [
        # equal popularity: keys tie, so the scan must still evaluate a
        # slot whose lower bound equals the best key (lowest id wins)
        lambda: desk_system(N=300, beta=40.0, M=137, alpha=0.0),
        # Zipf: a newcomer's index falls below its admission value before
        # the horizon, so its bound must be taken at the horizon
        lambda: desk_system(N=300, beta=40.0, M=137),
        # waiting is cheap, so stale cached copies queue requests
        lambda: desk_system(N=300, beta=40.0, M=137, c_w=1e-4),
    ], ids=["uniform", "zipf", "small-c_w"])
    def test_whittle_scan_over_many_slots(self, monkeypatch, make):
        # the compiled Whittle scan visits slots by a lower bound of their
        # index and stops early; the reference scans every slot
        system = make()
        tables = build_policy_tables(system)
        cfgs = [SimConfig(system=system, horizon_events=20_000, seed=seed) for seed in (1, 2)]
        compiled = [run(cfg, tables) for cfg in cfgs]
        monkeypatch.setattr(_ckernel, "event_loop", None)
        assert [run(cfg, tables) for cfg in cfgs] == compiled

    @needs_kernel
    def test_queued_copy_counts_as_index_zero_above_its_row(self, monkeypatch):
        # content 0 takes nine requests in ten and turns stale at tau = 1,
        # while its w_of_tau row stays above 0 until tau ~ 22; it is never
        # refreshed (Q_star huge), so its requests queue while the scan's
        # bound for it is still that row's value.  The scan must see its
        # index 0 at once.
        pops = np.concatenate([[0.9], 0.1 * zipf_popularity(39, 1.0)])
        system = desk_system(N=40, beta=4.0, M=10)
        system = replace(system, contents=tuple(
            replace(c, p=float(p)) for c, p in zip(system.contents, pops)))
        built = build_policy_tables(system)
        cdbl, cint = built.cdbl.copy(), built.cint.copy()
        cdbl[0, TAU_STAR] = 1.0
        cint[0, [Q_STAR, Q_HAT]] = 10**9
        tables = replace(built, cdbl=cdbl, cint=cint)
        cfgs = [SimConfig(system=system, horizon_events=20_000, seed=seed)
                for seed in range(1, 9)]
        compiled = [run(cfg, tables) for cfg in cfgs]
        monkeypatch.setattr(_ckernel, "event_loop", None)
        assert [run(cfg, tables) for cfg in cfgs] == compiled

    @needs_kernel
    def test_non_monotone_rows_prune_by_prefix_minimum(self, monkeypatch):
        # rows that rise at every third cell: the scan must bound keys by
        # each row's running minimum, not by the row
        system = desk_system(N=100, beta=40.0, M=25, lam=0.2)
        built = build_policy_tables(system)
        bump = np.where(np.arange(built.w_of_tau.shape[1]) % 3 == 0, 1.5, 1.0)
        tables = replace(built, w_of_tau=built.w_of_tau * bump)
        rows = tables.w_of_tau
        assert (np.diff(rows, axis=1) > 0).any()
        assert_same_bits(tables.w_low, np.minimum.accumulate(rows, axis=1))
        assert built.w_low is built.w_of_tau
        cfgs = [SimConfig(system=system, horizon_events=20_000, seed=seed) for seed in (1, 2)]
        compiled = [run(cfg, tables) for cfg in cfgs]
        assert compiled != [run(cfg, built) for cfg in cfgs]  # the bumps change decisions
        monkeypatch.setattr(_ckernel, "event_loop", None)
        assert [run(cfg, tables) for cfg in cfgs] == compiled

    @needs_kernel
    @pytest.mark.parametrize("p", [
        zipf_popularity(100, 1.0),
        zipf_popularity(40, 0.0),
        [1.0],
        zipf_popularity(64, 1.0),
        [0.3, 1e-12, 0.7 - 1e-12],
        OVERSHOOT,
    ], ids=["desk", "uniform", "N1", "power-of-two", "tiny-p", "overshoot"])
    def test_content_pick_matches_searchsorted(self, p):
        # the guide-table pick against the reference loop's binary search,
        # at every uniform where a table start or a CDF step could be off
        # by one
        fn = ctypes.CDLL(str(_ckernel._build())).content_pick
        fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
        fn.restype = ctypes.c_int64
        cum_p = whittle._cum_p(p)
        guide = whittle._guide_table(cum_p)
        k = len(guide)
        assert k & (k - 1) == 0 and k // 2 < len(p) <= k
        if p is OVERSHOOT:
            assert np.cumsum(p)[-2] > cum_p[-1] == 1.0
        us = {0.0, float(np.nextafter(1.0, 0.0))}
        for edge in [*cum_p, *(np.arange(k) / k)]:
            for u in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0)):
                if 0.0 <= u < 1.0:
                    us.add(float(u))
        for u in sorted(us):
            want = int(np.searchsorted(cum_p, u, side="right"))
            assert fn(cum_p.ctypes.data, guide.ctypes.data, k, u) == want, u

    @needs_kernel
    @pytest.mark.parametrize("horizon", [dict(horizon_events=20_000),
                                         dict(horizon_time=2_000.0)],
                             ids=["events", "time"])
    def test_one_draw_per_event_from_each_stream(self, monkeypatch, desk, horizon):
        # the kernel draws the events' arrivals and contents itself, in
        # blocks, from streams it seeds: no numpy batch is drawn, and the
        # streams are read from the kernel's block after the run.  An
        # event horizon is drawn up to its stops and no further; a time
        # horizon draws whole blocks, so its streams stop at the end of the
        # last block it began
        assert _ckernel.BLOCK == BLOCK
        system, tables = desk
        fresh = [np.random.default_rng(s) for s in np.random.SeedSequence(6).spawn(2)]

        def no_batches(*args):
            raise AssertionError("the compiled path drew numpy batches")

        monkeypatch.setattr(simulator, "_batches", no_batches)
        made = _rngs_of(monkeypatch)
        cfg = SimConfig(system=system, policy=PolicyKind.STATIC_TOP_M, seed=6, **horizon)
        events = run(cfg, tables).event_count
        drawn = events if "horizon_events" in horizon else BLOCK * -(-events // BLOCK)
        arr_rng, pick_rng, _ = made
        mean_dt = 1.0 / system.beta
        assert arr_rng.exponential(mean_dt) == fresh[0].exponential(mean_dt, drawn + 1)[-1]
        assert pick_rng.random() == fresh[1].random(drawn + 1)[-1]

    @needs_kernel
    def test_kernel_tables_built_once_per_policy_tables(self, monkeypatch):
        # a run hands the kernel the tables' own arrays, and the reference
        # loop reads views of them: no run copies a table array
        system = desk_system(N=40, beta=4.0, M=10)
        tables = build_policy_tables(system)
        passed = []
        address = _ckernel.address

        def recording(a, dtype):
            passed.append(a)
            return address(a, dtype)

        monkeypatch.setattr(_ckernel, "address", recording)
        cfgs = [SimConfig(system=system, policy=policy, horizon_events=20_000, seed=seed)
                for policy, seed in ((PolicyKind.WHITTLE, 1), (PolicyKind.MYOPIC, 2))]
        reused = [run(cfg, tables) for cfg in cfgs]
        for name in ("cdbl", "cint", "bps", "w_of_tau", "w_low", "cum_p", "guide"):
            assert any(np.shares_memory(a, getattr(tables, name)) for a in passed), name
        assert all(np.shares_memory(c.w_of_tau, tables.w_of_tau) for c in tables.content)
        assert reused == [run(cfg, build_policy_tables(system)) for cfg in cfgs]
        # a parallel sweep hands each worker the tables once; its jobs carry none
        tasks = []
        pool_map = multiprocessing.pool.Pool.map

        def recording_map(pool, fn, jobs, chunksize=None):
            tasks.extend(jobs)
            return pool_map(pool, fn, jobs, chunksize)

        monkeypatch.setattr(multiprocessing.pool.Pool, "map", recording_map)
        base = SimConfig(system=system, horizon_events=2_000, seed=3)
        serial = sweep(base, "M", [8, 10], 2, tables=tables)
        assert sweep(base, "M", [8, 10], 2, processes=2, tables=tables) == serial
        assert len(tasks) == 4
        assert not any(b"PolicyTables" in pickle.dumps(task) for task in tasks)

    @needs_kernel
    @pytest.mark.parametrize("m", [3, 25])
    def test_idle_copy_past_tau_star_reads_its_cell(self, monkeypatch, m):
        # both loops key an idle cached copy by cell int(tau * inv_step) of
        # its row, the last cell once that reaches it, also past tau_star;
        # this inv_step maps tau_star 50 cells short of the last cell, so a
        # copy idle just past tau_star keeps a positive key for 50 cells
        system = desk_system(M=m)
        built = build_policy_tables(system)
        cdbl = built.cdbl.copy()
        cdbl[:, INV_STEP] = (GRID_SIZE - 50) / cdbl[:, TAU_STAR]
        tables = replace(built, cdbl=cdbl)
        cfgs = [SimConfig(system=system, horizon_events=20_000, seed=seed) for seed in (1, 2, 3)]
        compiled = [run(cfg, tables) for cfg in cfgs]
        monkeypatch.setattr(_ckernel, "event_loop", None)
        assert [run(cfg, tables) for cfg in cfgs] == compiled

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_package_data_lists_every_source(self):
        # a wheel without a source of the library builds none and falls
        # back to the reference loop and scipy without a word
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
        assert {p.name for p in _ckernel.SOURCES} <= set(data["aovcache"])

    @needs_kernel
    def test_build_removes_stale_libraries(self, monkeypatch, tmp_path):
        # two more stale libraries than a build keeps: the oldest go, the
        # newest stay beside the new one
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "aovcache"
        cache.mkdir()
        stale = [cache / f"_loop-{i:016d}.so" for i in range(_ckernel.KEEP_LIBRARIES + 1)]
        for age, path in enumerate(stale, 1):
            path.write_bytes(b"")
            os.utime(path, (1e9 - 3600 * age, 1e9 - 3600 * age))  # stale[0] is newest
        lib = _ckernel._build()
        kept = stale[:_ckernel.KEEP_LIBRARIES - 1]
        assert sorted(lib.parent.iterdir()) == sorted([lib, *kept])

    @needs_kernel
    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_realized_leaves_age_stream_in_same_state(self, monkeypatch, desk, policy):
        system, tables = desk
        cfg = SimConfig(system=system, policy=policy, horizon_events=20_000, seed=6,
                        ageing_mode=AgeingMode.REALIZED)
        made = _rngs_of(monkeypatch)
        nexts = []
        for kernel in (_ckernel.event_loop, None):
            monkeypatch.setattr(_ckernel, "event_loop", kernel)
            run(cfg, tables)
            # the third of the run's three streams: the compiled loop's as
            # its kernel left it, the reference loop's Generator
            aov_rng = made[-1]
            nexts.append(aov_rng.poisson(3.0, 4).tolist() + [aov_rng.random()])
        assert len(made) == 6
        assert nexts[0] == nexts[1]

    @pytest.mark.parametrize("loop", ["compiled", "python"])
    def test_poisson_domain_error_raises(self, monkeypatch, loop):
        # lam * tau far above what Generator.poisson accepts
        if loop == "compiled" and _ckernel.event_loop is None:
            pytest.skip("compiled event loop unavailable")
        if loop == "python":
            monkeypatch.setattr(_ckernel, "event_loop", None)
        huge = ContentParams(lam=1e300, p=1.0, costs=CostModel(1e-300, 1.0, 0.5))
        cfg = SimConfig(system=SystemParams(beta=1.0, contents=(huge,), M=0),
                        policy=PolicyKind.INFINITE_CAPACITY, horizon_events=1_000,
                        seed=1, ageing_mode=AgeingMode.REALIZED)
        with pytest.raises(ValueError, match="lam value too large"):
            run(cfg)

    @pytest.mark.parametrize("broken", ["no-compiler", "cache-is-a-file",
                                        "no-libnpyrandom", "no-numpy-include"])
    def test_failed_build_falls_back(self, monkeypatch, tmp_path, desk, broken):
        system, tables = desk
        cfgs = [SimConfig(system=system, policy=policy, ageing_mode=mode,
                          horizon_events=20_000, seed=4)
                for policy in PolicyKind for mode in AgeingMode]
        want = [run(cfg, tables) for cfg in cfgs]
        x = np.linspace(-3.0, 3.0, 61)
        z = -np.exp(-1.0 - np.geomspace(1e-3, 50.0, 61))
        want_special = (_ckernel.wright_omega(x), _ckernel.lambert_w0(z))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        if broken == "no-compiler":
            monkeypatch.setenv("PATH", str(tmp_path))
        elif broken == "cache-is-a-file":
            (tmp_path / "cache").write_text("")
        elif broken == "no-libnpyrandom":
            monkeypatch.setattr(_ckernel, "NPYRANDOM", tmp_path / "libnpyrandom.a")
        else:
            monkeypatch.setattr(_ckernel, "NUMPY_INCLUDE", tmp_path)
        assert _ckernel._open() is None
        if broken == "no-compiler":  # the failed build left no temp file
            assert list((tmp_path / "cache" / "aovcache").iterdir()) == []
        monkeypatch.setattr(_ckernel, "event_loop", None)
        monkeypatch.setattr(_ckernel, "special", None)
        assert [run(cfg, tables) for cfg in cfgs] == want
        # scipy.special stands in for the special functions, bit for bit
        got = (_ckernel.wright_omega(x), _ckernel.lambert_w0(z))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want_special]

    def test_kernel_error_status_raises(self, monkeypatch, desk):
        # the kernel returns 0 when it reaches its stop, -1 when an
        # admission finds the cache inconsistent, -2 when a version-age
        # draw is out of numpy's domain
        system, tables = desk
        cfg = SimConfig(system=system, horizon_events=1_000, seed=1)
        # the run sizes its arrays by the library's layout, which is None
        # without the library; a fake kernel takes any sizes
        for name, value in (("BLOCK", BLOCK), ("SCRATCH_WORDS", 7), ("N_ACC", 7),
                            ("N_CNT", 5), ("STREAM_WORDS", 11)):
            monkeypatch.setattr(_ckernel, name, value)
        monkeypatch.setattr(_ckernel, "event_loop", lambda *args: -1)
        with pytest.raises(SimulationError, match="occupancy"):
            run(cfg, tables)
        monkeypatch.setattr(_ckernel, "event_loop", lambda *args: -2)
        with pytest.raises(ValueError, match="lam value too large"):
            run(cfg, tables)

    def test_address_checks_dtype_and_layout(self):
        a = np.zeros(6)
        assert _ckernel.address(a, np.float64) == a.ctypes.data
        for bad in (a.astype(np.float32), a[::2]):
            with pytest.raises(TypeError):
                _ckernel.address(bad, np.float64)


class TestStreams:
    """The event loop seeds and steps its own streams, numpy's PCG64
    seeded from ``SeedSequence(seed).spawn(3)``, restated in C."""

    @needs_kernel
    @pytest.mark.parametrize("seed, words", [
        (0, 1), (1, 1), (2**32 - 1, 1), (2**32, 2), (2**64 + 3, 3), (10**30, 4),
        (2**191 + 5, 6),
    ])
    def test_streams_are_numpys_pcg64(self, seed, words):
        # seeds of one 32-bit word to more than SeedSequence's pool of four:
        # 1 to 7 entropy words with the spawn key.  random_streams compares
        # 64-bit words, doubles and interleaved 32-bit draws with numpy's
        assert _ckernel.seed_words(seed) == [seed >> 32 * j & 0xFFFFFFFF for j in range(words)]
        result = checks.random_streams(seed, draws=300)
        assert result.passed, result.detail
        assert result.detail.startswith("0 of 2700 draws")
        raw = _ckernel.stream_draws(seed, [_ckernel.DRAW_UINT64] * 50)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(3)):
            assert raw[i].tolist() == np.random.PCG64(child).random_raw(50).tolist()

    @needs_kernel
    @pytest.mark.parametrize("at", [0, 400, 899])
    def test_random_streams_fails_on_one_draw_off(self, monkeypatch, at):
        # one draw of the middle stream one bit off, among the 64-bit
        # words, the doubles and the interleaved draws in turn
        draws = _ckernel.stream_draws

        def one_off(seed, kinds):
            out = draws(seed, kinds)
            out[1, at] ^= 1
            return out

        monkeypatch.setattr(_ckernel, "stream_draws", one_off)
        result = checks.random_streams(7, draws=300)
        assert not result.passed
        assert result.error == 1

    def test_seed_parity(self, monkeypatch, desk):
        # both loops take any integer >= 0 as SeedSequence does: a
        # negative seed raises its ValueError, a numpy integer runs as the
        # equal int, and a seed of several words gives the same run.  Both
        # refuse None, which SeedSequence would fill with fresh entropy
        system, tables = desk
        cfg = SimConfig(system=system, horizon_events=2_000, seed=5)
        with pytest.raises(ValueError) as spec:
            np.random.SeedSequence(-1)
        loops = [None] if _ckernel.event_loop is None else [_ckernel.event_loop, None]
        results = []
        for kernel in loops:
            monkeypatch.setattr(_ckernel, "event_loop", kernel)
            for bad in (-1, np.int64(-1), -(2**70)):
                with pytest.raises(ValueError, match=f"^{re.escape(str(spec.value))}$"):
                    run(replace(cfg, seed=bad), tables)
            for bad in (None, 5.0):
                with pytest.raises(TypeError):
                    run(replace(cfg, seed=bad), tables)
            results.append([run(replace(cfg, seed=seed), tables)
                            for seed in (5, np.int64(5), 2**64 + 3)])
            assert results[-1][0] == results[-1][1]
            assert results[-1][0] != results[-1][2]
        assert all(r == results[0] for r in results)


class TestAgeingModes:
    def test_realized_matches_expected_within_noise(self):
        # same arrival stream; realized version ages are Poisson(lam * tau)
        cfgs = [single_content_config(horizon_events=400_000, seed=21,
                                      ageing_mode=mode)
                for mode in (AgeingMode.EXPECTED, AgeingMode.REALIZED)]
        me, mr = run(cfgs[0]), run(cfgs[1])
        # identical arrivals: waiting and fetch components agree exactly
        assert me.waiting_cost_rate == mr.waiting_cost_rate
        assert me.fetch_cost_rate == mr.fetch_cost_rate
        # ageing: ~170k serves, each Poisson-noised; 3 standard errors
        n_serves = 0.6 * 400_000
        se = me.ageing_cost_rate / math.sqrt(n_serves)
        assert abs(me.ageing_cost_rate - mr.ageing_cost_rate) < 3 * 3 * se

    def test_realized_multi_content(self, desk):
        system, tables = desk
        cfg = SimConfig(system=system, horizon_events=50_000, seed=13,
                        ageing_mode=AgeingMode.REALIZED)
        m = run(cfg, tables)
        assert m.ageing_cost_rate > 0
        assert m.reconciliation <= 1e-9


class TestSweep:
    def test_rows_and_aggregates(self, desk):
        system, tables = desk
        base = SimConfig(system=system, horizon_events=30_000, seed=40)
        cells = sweep(base, "M", [8, 10], replications=3, tables=tables)
        assert len(cells) == 6
        assert [c.seed for c in cells] == [40, 41, 42, 40, 41, 42]
        rows = aggregate(cells)
        assert [r["value"] for r in rows] == [8, 10]
        assert all(r["replications"] == 3 for r in rows)
        assert all(r["avg_cost_se"] > 0 for r in rows)

    def test_parallel_equals_serial(self, desk):
        system, tables = desk
        base = SimConfig(system=system, horizon_events=20_000, seed=8)
        serial = sweep(base, "policy", ["whittle", "static-top-m"], 2,
                       tables=tables)
        parallel = sweep(base, "policy", ["whittle", "static-top-m"], 2,
                         tables=tables, processes=2)
        assert serial == parallel

    def test_cw_axis_rebuilds_tables(self, desk):
        system, _ = desk
        base = SimConfig(system=system, horizon_events=30_000, seed=3)
        cells = sweep(base, "c_w", [0.01, 1.0], replications=1)
        by_cw = {c.value: c.metrics for c in cells}
        assert by_cw[1.0].avg_wait_time < by_cw[0.01].avg_wait_time

    @pytest.mark.parametrize("values, expect", [
        (["myopic", "static-top-m"], [False]),
        (["myopic", "whittle"], [True]),
    ])
    def test_policy_axis_builds_indices_only_for_whittle(self, monkeypatch,
                                                         values, expect):
        # desk.json's base policy is whittle; a policy sweep that runs no
        # Whittle cell must not pay for the index tables
        calls = []

        def spy(system, *args, **kwargs):
            calls.append(kwargs.get("indices", True))
            return build_policy_tables(system, *args, **kwargs)

        monkeypatch.setattr(simulator, "build_policy_tables", spy)
        base = SimConfig(system=desk_system(), policy=PolicyKind.WHITTLE,
                         horizon_events=2_000, seed=1)
        cells = sweep(base, "policy", values, 1)
        assert calls == expect
        assert [c.value for c in cells] == values

    @pytest.mark.parametrize("axis, values, systems", [
        ("M", [8, 10, 12], 3),
        ("policy", ["whittle", "myopic", "static-top-m"], 1),
        ("c_w", [0.01, 1.0], 2),
    ])
    def test_validates_each_distinct_system_once(self, monkeypatch, axis, values, systems):
        calls = []

        def counting(system):
            calls.append(system)
            return validate(system)

        monkeypatch.setattr(simulator, "validate", counting)
        base = SimConfig(system=desk_system(N=40, beta=4.0, M=10), horizon_events=1_000,
                         seed=1)
        cells = sweep(base, axis, values, 3)
        assert len(cells) == 3 * len(values)
        assert len(calls) == len({id(s) for s in calls}) == systems

    def test_bad_axis_rejected(self, desk):
        system, tables = desk
        base = SimConfig(system=system, horizon_events=100, seed=0)
        with pytest.raises(ValueError):
            sweep(base, "gamma", [1], 1, tables=tables)
        with pytest.raises(ValueError):
            sweep(base, "M", [], 1, tables=tables)


class TestTrajectoryProperties:
    @pytest.mark.parametrize("policy", [PolicyKind.WHITTLE, PolicyKind.MYOPIC,
                                        PolicyKind.STATIC_TOP_M])
    def test_no_serve_after_wait(self, desk, policy):
        system, tables = desk
        cfg = SimConfig(system=system, policy=policy, horizon_events=150_000,
                        seed=17)
        assert run(cfg, tables).serve_after_wait == 0

    def test_whittle_beats_baselines_here(self, desk):
        system, tables = desk
        base = SimConfig(system=system, horizon_events=200_000, seed=31)
        cells = sweep(base, "policy",
                      ["whittle", "myopic", "static-top-m"], 2, tables=tables)
        rows = {r["value"]: r for r in aggregate(cells)}
        assert rows["whittle"]["avg_cost"] < rows["myopic"]["avg_cost"]
        assert rows["whittle"]["avg_cost"] < rows["static-top-m"]["avg_cost"]
