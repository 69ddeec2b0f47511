"""Command-line interface: solver reports, index tables, simulations, sweeps.

One JSON config document drives everything:

    {
      "system": {"N": 100, "beta": 4.0, "M": 25, "zipf_alpha": 1.0,
                 "lambda": 0.01},
      "costs":  {"c_a": 0.1, "c_f": 1.0, "c_w": 0.01},
      "policy": "whittle",
      "sim":    {"horizon_events": 1000000, "seed": 7, "warmup": 0.1,
                 "mode": "expected"},
      "sweep":  {"axis": "M", "values": [20, 22, 24], "reps": 5}
    }

``system.popularity`` / ``system.lambdas`` may replace the Zipf /
shared-rate shortcuts with explicit per-content lists.  All outputs are
CSV with fixed column order plus a manifest JSON recording the config
digest and seed, so every row set is reproducible.

Exit codes: 0 ok, 2 config error, 3 runtime error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _ckernel
from .model import (
    ContentParams,
    CostModel,
    SingleContentState,
    SystemParams,
    validate,
    zipf_popularity,
)
from .policies import PolicyKind, build_policy_tables, dual_value, relaxed_lower_bound
from .simulator import AgeingMode, SimConfig, SimulationError, _run, aggregate, sweep
from .thresholds import (
    case2_batch,
    case2_residuals,
    content_constants,
    relaxed_batch,
    solve_case2,
    solve_thresholds,
)
from .whittle import (
    build_index_tables,
    cached_indices,
    grid_taus,
    verify_indexability,
    whittle_cached,
)

_FMT = "%.12g"


class ConfigError(Exception):
    pass


def _f(x) -> str:
    return _FMT % x


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def build_system(doc: dict) -> SystemParams:
    try:
        sysdoc = doc["system"]
        costs = doc["costs"]
        n = int(sysdoc["N"])
        beta = float(sysdoc["beta"])
        m = int(sysdoc["M"])
        if "popularity" in sysdoc:
            pops = [float(x) for x in sysdoc["popularity"]]
        else:
            pops = zipf_popularity(n, float(sysdoc.get("zipf_alpha", 1.0))).tolist()
        if "lambdas" in sysdoc:
            lams = [float(x) for x in sysdoc["lambdas"]]
        else:
            lams = [float(sysdoc["lambda"])] * n
        cm = CostModel(float(costs["c_a"]), float(costs["c_f"]), float(costs["c_w"]))
        contents = tuple(
            ContentParams(lam=lams[i], p=pops[i], costs=cm) for i in range(n)
        )
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise ConfigError(f"malformed config: {e}") from e
    if "C_h" in costs:
        raise ConfigError("C_h: the holding cost is the dual variable of the capacity "
                          "constraint, which the solvers find; a config cannot set it")
    system = SystemParams(beta=beta, contents=contents, M=m)
    problems = validate(system)
    if problems:
        raise ConfigError("; ".join(map(str, problems)))
    return system


def _capacity(system: SystemParams, value) -> int:
    """A capacity given on the command line or read from a CSV, held to
    the same checks as the config's own M."""
    try:
        m = int(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"capacity: {value!r} is not an integer") from e
    problems = validate(replace(system, M=m))
    if problems:
        raise ConfigError("; ".join(map(str, problems)) + f" (got M={m})")
    return m


def _checked(name: str, value, parse, ok, what: str):
    """``parse(value)`` if it parses and passes ``ok``; otherwise a
    ConfigError naming the field ``name``."""
    try:
        x = parse(value)
        if ok(x):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: must be {what} (got {value!r})")


def _integer(value) -> int:
    """``value`` as an int, if it is a whole number (``int`` truncates 2.5)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _finite_positive(x: float) -> bool:
    return 0 < x < math.inf


def _sim_config(doc: dict, system: SystemParams, args) -> SimConfig:
    sim = doc.get("sim", {})
    seed = _checked("seed", args.seed if args.seed is not None else sim.get("seed", 0),
                    _integer, lambda x: x >= 0, "an integer >= 0")
    mode = args.mode or sim.get("mode", "expected")
    try:
        policy = PolicyKind(doc.get("policy", "whittle"))
        ageing = AgeingMode(mode)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    horizon_events = horizon_time = None
    if "horizon_events" in sim:
        horizon_events = _checked("horizon_events", sim["horizon_events"], _integer,
                                  lambda x: x > 0, "an integer > 0")
    if "horizon_time" in sim:
        horizon_time = _checked("horizon_time", sim["horizon_time"], float, _finite_positive,
                                "finite and > 0")
    return SimConfig(
        system=system,
        policy=policy,
        horizon_events=horizon_events,
        horizon_time=horizon_time,
        seed=seed,
        ageing_mode=ageing,
        warmup=_checked("warmup", sim.get("warmup", 0.1), float, lambda x: 0 <= x <= 0.5,
                        "in [0, 0.5]"),
    )


def _run_config(doc: dict, system: SystemParams, args, reps) -> tuple[SimConfig, int, int | None]:
    """The config of a command that runs the configured horizon, which the
    config must give, its replications (``--reps``, else ``reps``) and its
    worker processes (``--processes``, else None: serial)."""
    cfg = _sim_config(doc, system, args)
    if cfg.horizon_events is None and cfg.horizon_time is None:
        raise ConfigError("horizon_events: the sim section gives no horizon "
                          "(horizon_events or horizon_time)")
    reps = _checked("reps", args.reps if args.reps is not None else reps, _integer,
                    lambda x: x >= 1, "an integer >= 1")
    processes = args.processes
    if processes is not None:
        processes = _checked("--processes", processes, _integer, lambda x: x >= 1,
                             "an integer >= 1")
    return cfg, reps, processes


def scipy_version() -> str | None:
    """``scipy.__version__`` without importing scipy, which only ``verify``
    computes with: the ``version`` that its ``scipy/version.py`` defines
    (about 8 ms less start-up for every other command).  None when scipy
    is not installed."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    path = Path(spec.submodule_search_locations[0]) / "version.py"
    module_spec = importlib.util.spec_from_file_location("scipy.version", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.version


def config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class Reporter:
    """Writes CSVs (and the run manifest) to --out, or CSV to stdout.

    ``seed`` is the effective seed of a simulating command (``--seed`` or
    the config's ``sim.seed``); None for commands that draw nothing.
    """

    def __init__(self, out: str | None, doc: dict, seed: int | None = None):
        self.dir = Path(out) if out else None
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
        self.manifest = {
            "command": " ".join(sys.argv[1:]),
            "config_digest": config_digest(doc),
            "seed": seed,
            "version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy_version(),
            # the loop every policy and ageing mode runs in; "python" here
            # means the reference loop, as the compiled kernel could not be
            # built or loaded
            "event_loop": "compiled" if _ckernel.event_loop is not None else "python",
            # where the Wright omega and Lambert W values come from
            "special_functions": "compiled" if _ckernel.special is not None else "scipy",
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": [],
        }
        self._t0 = time.time()

    def table(self, name: str, header: list[str], rows) -> None:
        if self.dir:
            path = self.dir / name
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)
            self.manifest["outputs"].append(str(path))
            print(f"wrote {path}")
        else:
            w = csv.writer(sys.stdout)
            w.writerow(header)
            w.writerows(rows)

    def close(self) -> None:
        if self.dir:
            self.manifest["wall_clock_s"] = round(time.time() - self._t0, 3)
            path = self.dir / "manifest.json"
            path.write_text(json.dumps(self.manifest, indent=2) + "\n")
            print(f"wrote {path}")


def _count(flag: str, value) -> int:
    """A point count given by ``flag``: an integer >= 0."""
    return _checked(flag, value, _integer, lambda x: x >= 0, "an integer >= 0")


def cmd_solve(doc: dict, args) -> int:
    system = build_system(doc)
    points = _count("--ch-points", args.ch_points)
    rep = Reporter(args.out, doc)
    k = content_constants(system.contents, system.beta)
    # every content's C_h points in one kernel call
    ch = np.concatenate([np.linspace(0.0, I, points) for I in k.I.tolist()])
    idx = np.repeat(np.arange(system.N), points)
    solved = case2_batch(ch, k.take(idx))
    consts = zip(k.q_hat[idx].tolist(), k.tau0[idx].tolist(), k.I[idx].tolist())
    rows = [
        [i, _f(c), _f(tb), _f(tt), qb, q_hat, _f(tau0), _f(I), _f(theta)]
        for i, c, tb, tt, qb, theta, (q_hat, tau0, I)
        in zip(idx.tolist(), ch.tolist(), *(a.tolist() for a in solved), consts)
    ]
    rep.table("thresholds.csv",
              ["content_id", "C_h", "tau_bar", "tau_tilde", "Q_bar", "Q_hat",
               "tau0", "I", "theta"], rows)
    rep.close()
    return 0


def _content_ids(system: SystemParams, value: str) -> list[int]:
    """The ids of a ``--contents`` list, each in ``0..N-1``."""
    try:
        ids = [int(x) for x in value.split(",")]
    except ValueError as e:
        raise ConfigError(f"--contents: {value!r} is not a comma list of integers") from e
    bad = [i for i in ids if not 0 <= i < system.N]
    if bad:
        raise ConfigError(f"--contents: ids {bad} outside 0..{system.N - 1}")
    return ids


def cmd_whittle(doc: dict, args) -> int:
    system = build_system(doc)
    if args.family not in ("cached", "uncached", "both"):
        raise ConfigError(f"unknown state family {args.family!r}")
    which = list(range(system.N)) if not args.contents else _content_ids(system, args.contents)
    tau_points = _count("--tau-points", args.tau_points)
    rep = Reporter(args.out, doc)
    rows = []
    contents = [system.contents[i] for i in which]
    tables = build_index_tables(contents, system.beta)[0].content
    for i, c, tb in zip(which, contents, tables):
        if args.family in ("cached", "both"):
            # whittle_cached at every tau, the interior ones in one call
            taus = np.linspace(0.0, tb.tau_star, tau_points)
            w = np.where(taus <= 0.0, tb.ceiling, 0.0)
            inner = (taus > 0.0) & (taus < tb.tau_star)
            if inner.any():
                ts = solve_thresholds(c, system.beta, 0.0)
                w[inner] = cached_indices(c, system.beta, ts, taus[inner])
            rows.extend([i, "cached", 0, _f(tau), _f(x)]
                        for tau, x in zip(taus.tolist(), w.tolist()))
        if args.family in ("uncached", "both"):
            for q in range(tb.q_hat + 3):
                rows.append([i, "uncached", q, _f(0.0), _f(tb.uncached(q))])
    rep.table("whittle.csv", ["content_id", "family", "Q", "tau", "W"], rows)
    rep.close()
    return 0


_METRIC_HEADER = ["axis_value", "policy", "replication", "avg_cost", "fetch_cost",
                  "ageing_cost", "waiting_cost", "avg_wait_time",
                  "avg_cost_se", "avg_wait_time_se"]


def _metric_rows(cells, policy: str | None) -> list[list]:
    """One row per replication, then a mean row per axis value; with
    ``policy`` None the axis value names the policy."""
    rows = [
        [c.value, policy or c.value, c.replication, _f(c.metrics.avg_total_cost),
         _f(c.metrics.fetch_cost_rate), _f(c.metrics.ageing_cost_rate),
         _f(c.metrics.waiting_cost_rate), _f(c.metrics.avg_wait_time), "", ""]
        for c in cells
    ]
    return rows + [
        [a["value"], policy or a["value"], "mean", _f(a["avg_cost"]), _f(a["fetch_cost"]),
         _f(a["ageing_cost"]), _f(a["waiting_cost"]), _f(a["avg_wait_time"]),
         _f(a["avg_cost_se"]), _f(a["avg_wait_time_se"])]
        for a in aggregate(cells)
    ]


def cmd_simulate(doc: dict, args) -> int:
    system = build_system(doc)
    cfg, reps, processes = _run_config(doc, system, args, 1)
    rep = Reporter(args.out, doc, cfg.seed)
    cells = sweep(cfg, "M", [system.M], reps, processes=processes)
    rep.table("metrics.csv", _METRIC_HEADER, _metric_rows(cells, cfg.policy.value))
    rep.close()
    return 0


def cmd_sweep(doc: dict, args) -> int:
    system = build_system(doc)
    swp = doc.get("sweep", {})
    cfg, reps, processes = _run_config(doc, system, args, swp.get("reps", 1))
    axis = args.axis or swp.get("axis")
    values = args.values.split(",") if args.values else swp.get("values")
    if not axis or not values:
        raise ConfigError("sweep needs an axis and values (config or flags)")
    if axis == "M":
        values = [_capacity(system, v) for v in values]
    elif axis == "c_w":
        values = [_checked("c_w", v, float, _finite_positive, "finite and > 0") for v in values]
    elif axis != "policy":
        raise ConfigError(f"unknown sweep axis {axis!r}")
    rep = Reporter(args.out, doc, cfg.seed)
    cells = sweep(cfg, axis, values, reps, processes=processes)
    rep.table("metrics.csv", _METRIC_HEADER,
              _metric_rows(cells, None if axis == "policy" else cfg.policy.value))
    rep.close()
    return 0


def cmd_lower_bound(doc: dict, args) -> int:
    system = build_system(doc)
    m_values = ([_capacity(system, x) for x in args.m_values.split(",")]
                if args.m_values else [system.M])
    rep = Reporter(args.out, doc)
    consts = content_constants(system.contents, system.beta)
    rows = []
    for m in m_values:
        ch, bound = relaxed_lower_bound(replace(system, M=m))
        # the relaxed policy's mean number of cached contents at C_h*: M
        # where the dual's slope is continuous there, at most M at C_h* = 0
        occupancy = float(relaxed_batch(ch, consts)[1].sum())
        rows.append([m, _f(ch), _f(bound), _f(occupancy)])
    rep.table("lower_bound.csv", ["M", "C_h_star", "bound", "occupancy"], rows)
    rep.close()
    return 0


def cmd_compare(doc: dict, args) -> int:
    """Join a sweep CSV (M axis) against the dual bound; report the gap."""
    system = build_system(doc)
    rep = Reporter(args.out, doc)
    rows = []
    bounds: dict[int, float] = {}
    with open(args.metrics) as fh:
        for row in csv.DictReader(fh):
            if row["replication"] != "mean":
                continue
            m = _capacity(system, row["axis_value"])
            if m not in bounds:
                bounds[m] = relaxed_lower_bound(replace(system, M=m))[1]
            bound = bounds[m]
            cost = float(row["avg_cost"])
            rows.append([m, row["policy"], _f(cost), _f(bound),
                         _f((cost - bound) / bound)])
    rep.table("compare.csv", ["M", "policy", "avg_cost", "bound", "relative_gap"], rows)
    rep.close()
    return 0


def _bits_differ(a: np.ndarray, b: np.ndarray) -> int:
    """How many elements of two float64 arrays differ in their bits (NaN
    equals NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return int(np.count_nonzero((a.view(np.int64) != b.view(np.int64))
                                & ~(np.isnan(a) & np.isnan(b))))


def cmd_verify(doc: dict, args) -> int:
    """Oracle-equivalence and invariant battery; nonzero exit on failure."""
    # imported here: the oracle pulls in scipy.signal, which costs every
    # other command about a second of import time
    from .oracle import value_iterate_infinite, whittle_by_sweep

    system = build_system(doc)
    beta = system.beta
    checks: list[tuple[str, bool, str]] = []
    quick = args.quick
    cfg = _sim_config(doc, system, args)
    rep = Reporter(args.out, doc, cfg.seed)

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    picks = list(range(system.N))[: (2 if quick else 4)]
    for i in picks:
        c = system.contents[i]
        rate = c.p * beta
        cm = c.costs
        ts = solve_thresholds(c, beta, 0.0)
        vt = value_iterate_infinite(rate, c.lam, cm.c_a, cm.c_f, cm.c_w,
                                    tol=1e-7 if quick else 1e-9)
        rel = abs(vt.theta - ts.theta) / ts.theta
        check(f"theta-vs-oracle[content {i}]", rel < 5e-3, f"rel={rel:.2e}")
        ch = 0.6 * ts.I
        tb, tt, qb, theta2 = solve_case2(ch, c, beta)
        r1, r2, r3 = case2_residuals(ch, c, beta, tb, tt, qb)
        check(f"case2-residuals[content {i}]",
              max(abs(r1), abs(r2), abs(r3)) < 1e-9)
        grid = np.linspace(0.0, 1.02 * ts.I, 60 if quick else 200)
        viol = verify_indexability(c, beta, grid)
        check(f"indexability[content {i}]", not viol, f"{len(viol)} violations")
        prev = None
        mono_ok = True
        for chv in np.linspace(ts.I / 50, ts.I, 25):
            tb2, tt2, qb2, _ = solve_case2(float(chv), c, beta)
            if prev is not None and not (tb2 < prev[0] and tt2 > prev[1] and qb2 >= prev[2]):
                mono_ok = False
            prev = (tb2, tt2, qb2)
        check(f"threshold-monotonicity[content {i}]", mono_ok)
        if not quick:
            w = whittle_cached(c, beta, 0, 0.5 * ts.tau_star)
            sw_grid = np.linspace(0, 1.02 * ts.I, 80)
            [ws] = whittle_by_sweep(c, beta,
                                    [SingleContentState(0, 0.5 * ts.tau_star, True, False)],
                                    sw_grid, tol=1e-6)
            step = sw_grid[1] - sw_grid[0]
            check(f"whittle-vs-sweep[content {i}]", abs(w - ws) <= step + 1e-3,
                  f"|{w:.4g}-{ws:.4g}| vs step {step:.4g}")

    consts = content_constants(system.contents, beta)
    # the compiled special functions against scipy.special, bit for bit, at
    # this config's own arguments: content 0's cached-index grid and the
    # gap equation's c = C_h / (p c_a lam) over every content's range (the
    # identity rests on the host's libm)
    if _ckernel.special is None:
        check("special-functions", True, "the library is not built: scipy.special in use")
    else:
        from scipy.special import lambertw, wrightomega

        seen = []

        def omega(x):
            seen.append(x.ravel())
            return _ckernel.wright_omega(x)

        ts0 = solve_thresholds(system.contents[0], beta, 0.0)
        cached_indices(system.contents[0], beta, ts0, grid_taus(ts0.tau_star), omega)
        omega_x = np.concatenate(seen)
        c_max = float((consts.I / (consts.p * consts.c_alam)).max())
        w0_z = -np.exp(-1.0 - np.geomspace(1e-3, max(c_max, 1e-3), 1000))
        n_omega = _bits_differ(_ckernel.wright_omega(omega_x), wrightomega(omega_x))
        n_w0 = _bits_differ(_ckernel.lambert_w0(w0_z), lambertw(w0_z).real)
        check("special-functions", n_omega == n_w0 == 0,
              f"{n_omega} of {omega_x.size} omega and {n_w0} of {w0_z.size} W0 values "
              "differ from scipy.special")

    # the index tables from windows of queue candidates against a scan of
    # every candidate, array for array and bit for bit
    windowed, fallback = build_index_tables(system.contents, beta)
    full = build_index_tables(system.contents, beta, window=False)[0]
    arrays = [(getattr(windowed, f), getattr(full, f)) for f in ("cdbl", "cint", "bps", "w_of_tau")]
    n_differ = sum(x.size if x.shape != y.shape else _bits_differ(x, y) for x, y in arrays)
    check("table-window", n_differ == 0,
          f"{n_differ} of {sum(y.size for _, y in arrays)} table values differ from the "
          f"full-width scan; {fallback} rows fell back to it")

    # the bound's search relies on the dual being concave; a dual that is
    # not would show as a grid point above the bound, and a wrong maximizer
    # or bound as a neighbour of C_h* above it
    ch_star, bound = relaxed_lower_bound(system)
    hi = float(consts.I.max())
    dual_grid = np.linspace(0.0, hi, 60 if quick else 200)
    delta = 1e-9 * hi
    probes = [*dual_grid, max(ch_star - delta, 0.0), ch_star + delta]
    dual_max = max(dual_value(system, float(x), consts) for x in probes)
    check("dual-bound", dual_max - bound <= 1e-9 * max(1.0, abs(bound)),
          f"C_h*={ch_star:.6g}, bound - max over {len(dual_grid)} grid points and "
          f"C_h* +- {delta:.2g} = {bound - dual_max:.2e}")

    # the search steers by the closed-form occupancy, the dual's slope plus
    # M: against central differences of the dual next to C_h* and on the
    # grid, at points whose step neither crosses a Q_bar jump nor an I_n,
    # where theta_n has a kink
    step = 1e-6 * hi

    def piece(c: float) -> tuple:
        c_n = np.minimum(c, consts.I)
        return tuple(case2_batch(c_n, consts)[2].tolist()), tuple((c_n < c).tolist())

    errors, kinked = [], 0
    for c in [ch_star * (1.0 - 1e-3), ch_star, ch_star * (1.0 + 1e-3), *dual_grid[1:-1]]:
        if c <= step:
            continue
        if piece(c - step) != piece(c + step):
            kinked += 1
            continue
        central = (dual_value(system, c + step, consts)
                   - dual_value(system, c - step, consts)) / (2.0 * step)
        slope = float(relaxed_batch(c, consts)[1].sum()) - system.M
        errors.append(abs(slope - central))
    worst = max(errors, default=math.inf)
    check("dual-slope", worst <= 1e-6 * max(1.0, system.M),
          f"max |occupancy - M - central difference| = {worst:.2e} over {len(errors)} points, "
          f"{kinked} more skipped at a kink (step {step:.2g})")

    horizon = min(cfg.horizon_events or 200_000, 200_000 if quick else 500_000)
    cfg = SimConfig(system=system, policy=cfg.policy, horizon_events=horizon,
                    seed=cfg.seed, ageing_mode=cfg.ageing_mode, warmup=cfg.warmup)
    # a run raises SimulationError when the cache stops holding M contents
    # or the cost accounts disagree; a run that returns held both
    sim_errors: list[str] = []
    compiled = _ckernel.event_loop

    def simulate(c: SimConfig, kernel):
        try:
            return _run(c, tables, kernel)
        except SimulationError as e:
            sim_errors.append(f"{c.policy.value}/{c.ageing_mode.value}: {e}")
            return None

    try:
        tables = build_policy_tables(system)
        m1 = simulate(cfg, compiled)
        if m1 is not None:
            check("cost-reconciliation", m1.reconciliation <= 1e-9,
                  f"{m1.reconciliation:.2e}")
            check("no-serve-after-wait", m1.serve_after_wait == 0,
                  f"{m1.serve_after_wait} occurrences")
        # the reference loop against the compiled one (when it is built)
        # for every policy and ageing mode, at a short horizon
        differ = []
        for policy in PolicyKind:
            for mode in AgeingMode:
                c = replace(cfg, policy=policy, ageing_mode=mode,
                            horizon_events=min(horizon, 20_000))
                if simulate(c, None) != simulate(c, compiled):
                    differ.append(f"{policy.value}/{mode.value}")
        loop = "compiled" if compiled is not None else "reference"
        check("simulation-determinism", not differ,
              f"reference vs {loop} loop, {len(PolicyKind) * len(AgeingMode)} policy/mode pairs"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
        check("occupancy", not sim_errors, "; ".join(sim_errors))
    except Exception as e:  # pragma: no cover - battery failure path
        check("simulation", False, str(e))

    if rep.dir:
        rep.table("verify.csv", ["check", "result", "detail"],
                  [[name, "PASS" if ok else "FAIL", detail] for name, ok, detail in checks])
    rep.close()
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 4
    print(f"all {len(checks)} properties passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="aovcache",
        description="Content caching with version-ageing, fetching and waiting "
                    "costs: threshold solvers, Whittle indices, simulator.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, sim=False, runs=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if sim:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--mode", choices=["expected", "realized"], default=None)
        if runs:
            p.add_argument("--reps", type=int, default=None)
            p.add_argument("--processes", type=int, default=None)

    p = sub.add_parser("solve", help="threshold report per content and C_h")
    common(p)
    p.add_argument("--ch-points", type=int, default=9)

    p = sub.add_parser("whittle", help="Whittle index tables as CSV")
    common(p)
    p.add_argument("--family", default="both",
                   help="state family: cached, uncached, or both")
    p.add_argument("--contents", default=None, help="comma list of content ids")
    p.add_argument("--tau-points", type=int, default=21)

    p = sub.add_parser("simulate", help="run the configured simulation")
    common(p, sim=True, runs=True)

    p = sub.add_parser("sweep", help="sweep M, c_w, or policy")
    common(p, sim=True, runs=True)
    p.add_argument("--axis", choices=["M", "c_w", "policy"], default=None)
    p.add_argument("--values", default=None, help="comma-separated axis values")

    p = sub.add_parser("lower-bound", help="relaxed-problem dual lower bound")
    common(p)
    p.add_argument("--m-values", default=None, help="comma list of capacities")

    p = sub.add_parser("compare", help="gap between a sweep CSV and the bound")
    common(p)
    p.add_argument("--metrics", required=True, help="metrics.csv from sweep")

    p = sub.add_parser("verify", help="oracle-equivalence and invariant battery")
    common(p, sim=True)
    p.add_argument("--quick", action="store_true")

    args = ap.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "whittle": cmd_whittle,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "lower-bound": cmd_lower_bound,
        "compare": cmd_compare,
        "verify": cmd_verify,
    }
    try:
        doc = load_config(args.config)
        return handlers[args.cmd](doc, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
