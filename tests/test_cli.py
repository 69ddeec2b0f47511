import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy

import aovcache
from aovcache import _ckernel, checks, cli, simulator
from aovcache.cli import _f, build_system, config_digest, main
from aovcache.model import SystemParams
from aovcache.policies import relaxed_lower_bound
from aovcache.thresholds import (
    content_constants,
    relaxed_batch,
    solve_thresholds,
)
from aovcache.whittle import GRID_SIZE, build_content_tables, whittle_cached
from conftest import BELOW_I_SYSTEMS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parent / "data"

# the rows of desk.json's seeded metrics.csv at 20k events and 2 reps
DESK_METRIC_ROWS = {
    "whittle":
        b"25,whittle,0,1.10709624607,0.726386962496,0.104389018923,0.276320264647,"
        b"6.98040730089,,\r\n"
        b"25,whittle,1,1.11512753027,0.728516963165,0.106552724162,0.280057842946,"
        b"6.97939235936,,\r\n"
        b"25,whittle,mean,1.11111188817,0.72745196283,0.105470871542,0.278189053797,"
        b"6.97989983013,0.00401564210356,0.000507470765494\r\n",
    "static-top-m":
        b"25,static-top-m,0,1.35049400048,1.20536692142,0.14512707906,0,0,,\r\n"
        b"25,static-top-m,1,1.36800431254,1.22318622304,0.144818089499,0,0,,\r\n"
        b"25,static-top-m,mean,1.35924915651,1.21427657223,0.14497258428,0,0,"
        b"0.00875515602971,0\r\n",
}


UNIT_DOC = {
    "system": {"N": 1, "beta": 1.0, "M": 0, "zipf_alpha": 0.0, "lambda": 1.0},
    "costs": {"c_a": 1.0, "c_f": 1.0, "c_w": 0.5},
    "policy": "infinite-capacity",
    "sim": {"horizon_events": 60000, "seed": 7, "warmup": 0.1},
}

DESK_DOC = {
    "system": {"N": 20, "beta": 4.0, "M": 5, "zipf_alpha": 1.0, "lambda": 0.01},
    "costs": {"c_a": 0.1, "c_f": 1.0, "c_w": 0.01},
    "policy": "whittle",
    "sim": {"horizon_events": 60000, "seed": 3, "warmup": 0.1},
    "sweep": {"axis": "M", "values": [4, 5], "reps": 2},
}


@pytest.fixture
def unit_cfg(tmp_path):
    p = tmp_path / "unit.json"
    p.write_text(json.dumps(UNIT_DOC))
    return str(p)


@pytest.fixture
def desk_cfg(tmp_path):
    p = tmp_path / "desk.json"
    p.write_text(json.dumps(DESK_DOC))
    return str(p)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_unit_thresholds(self, unit_cfg, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--config", unit_cfg, "--out", str(out),
                     "--ch-points", "3"]) == 0
        rows = read_csv(out / "thresholds.csv")
        assert list(rows[0].keys()) == ["content_id", "C_h", "tau_bar", "tau_tilde",
                                        "Q_bar", "Q_hat", "tau0", "I", "theta"]
        first = rows[0]
        assert float(first["C_h"]) == 0.0
        assert float(first["tau_bar"]) == pytest.approx(-2 + math.sqrt(7), abs=1e-9)
        assert float(first["tau_bar"]) == float(first["tau_tilde"])  # C_h=0 collapse
        assert first["Q_bar"] == "1"
        assert float(first["I"]) == pytest.approx(0.2224, abs=5e-5)
        last = rows[-1]
        assert float(last["tau_bar"]) == pytest.approx(0.0, abs=1e-9)
        assert float(last["theta"]) == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize("config", ["desk.json", "unit.json"])
    def test_csv_bytes_match_one_c_h_at_a_time(self, config, tmp_path):
        # the batched report against solve_thresholds at one C_h at a time
        out = tmp_path / "o"
        assert main(["solve", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        system = build_system(json.loads((CONFIGS / config).read_text()))
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["content_id", "C_h", "tau_bar", "tau_tilde", "Q_bar", "Q_hat", "tau0",
                    "I", "theta"])
        for i, c in enumerate(system.contents):
            for ch in np.linspace(0.0, solve_thresholds(c, system.beta).I, 9):
                ts = solve_thresholds(c, system.beta, float(ch))
                w.writerow([i, _f(ch), _f(ts.tau_bar), _f(ts.tau_tilde), ts.Q_bar, ts.Q_hat,
                            _f(ts.tau0), _f(ts.I), _f(ts.theta)])
        assert (out / "thresholds.csv").read_bytes() == want.getvalue().encode()

    def test_no_points(self, unit_cfg, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--config", unit_cfg, "--out", str(out),
                     "--ch-points", "0"]) == 0
        assert len(read_csv(out / "thresholds.csv")) == 0

    def test_paper_content_qhat(self, tmp_path):
        doc = dict(DESK_DOC, system={"N": 1000, "beta": 40.0, "M": 200,
                                     "zipf_alpha": 1.0, "lambda": 0.01})
        p = tmp_path / "paper.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o2"
        assert main(["solve", "--config", str(p), "--out", str(out),
                     "--ch-points", "2"]) == 0
        rows = [r for r in read_csv(out / "thresholds.csv") if r["content_id"] == "0"]
        assert rows[0]["Q_hat"] == "32"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["solve", "--config", str(p)]) == 2
        p2 = tmp_path / "bad2.json"
        p2.write_text(json.dumps({"system": {"N": 3}}))
        assert main(["solve", "--config", str(p2)]) == 2
        capsys.readouterr()
        p2.write_text("[1, 2]")
        assert main(["solve", "--config", str(p2)]) == 2
        assert capsys.readouterr().err == ("config error: config: must be a JSON object "
                                           "(got [1, 2])\n")
        # a per-content list of another length than N, and a negative Zipf
        # exponent, are named with the field
        for field, value, message in (
                ("popularity", [0.5, 0.5], "popularity: length 2, not N=3"),
                ("lambdas", [0.01], "lambdas: length 1, not N=3"),
                ("lambdas", [0.01] * 4, "lambdas: length 4, not N=3"),
                ("zipf_alpha", -0.5, "zipf_alpha: must be finite and >= 0 (got -0.5)")):
            doc = json.loads(json.dumps(UNIT_DOC))
            doc["system"].update({"N": 3, "M": 1, field: value})
            p2.write_text(json.dumps(doc))
            assert main(["solve", "--config", str(p2)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(UNIT_DOC))
        doc["system"]["lambda"] = -0.01  # flipped sign
        p = tmp_path / "flip.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(p)]) == 2
        assert "lambda" in capsys.readouterr().err


    @pytest.mark.parametrize("section, field, value, name", [
        ("system", "lambda", math.nan, "lambda"),
        ("system", "lambda", math.inf, "lambda"),
        ("system", "beta", math.nan, "beta"),
        ("system", "beta", math.inf, "beta"),
        ("costs", "c_a", math.nan, "c_a"),
        ("costs", "c_f", math.inf, "c_f"),
        ("costs", "c_w", math.inf, "c_w"),
        ("costs", "c_w", math.nan, "c_w"),
        ("costs", "C_h", math.nan, "C_h"),
        ("costs", "C_h", math.inf, "C_h"),
        ("system", "N", math.inf, "N"),
        ("system", "N", math.nan, "N"),
        ("system", "M", math.inf, "M"),
        # not whole: int() would truncate them
        ("system", "N", 2.5, "N"),
        ("system", "M", 0.5, "M"),
    ])
    def test_non_finite_params_exit_2(self, tmp_path, capsys, section, field,
                                      value, name):
        doc = json.loads(json.dumps(UNIT_DOC))
        doc[section][field] = value  # written as a NaN / Infinity JSON literal
        p = tmp_path / "nonfinite.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name}:" in err

    @pytest.mark.parametrize("path, value, name", [
        (("system", "beta"), "abc", "beta"),
        (("system", "lambda"), "abc", "lambda"),
        (("costs", "c_a"), "abc", "c_a"),
        (("costs", "c_f"), [1.0], "c_f"),
        (("costs", "c_w"), {"c_w": 0.5}, "c_w"),
        (("system", "popularity"), ["abc"], "popularity"),
        (("system", "popularity"), 1.0, "popularity"),
        (("system", "lambdas"), [None], "lambdas"),
        (("policy",), "lru", "policy"),
        (("sim", "mode"), "lru", "mode"),
        (("system",), "abc", "system"),
        (("costs",), [1.0], "costs"),
        (("sim",), "abc", "sim"),
    ], ids=["beta", "lambda", "c_a", "c_f", "c_w", "popularity-entry", "popularity-number",
            "lambdas-entry", "policy", "mode", "system", "costs", "sim"])
    def test_unparsed_values_exit_2(self, tmp_path, capsys, path, value, name):
        # a value of the wrong type, or a name that no policy or mode has,
        # is a config error naming its field, before any run
        doc = json.loads(json.dumps(UNIT_DOC))
        *parents, key = path
        reduce(dict.__getitem__, parents, doc)[key] = value
        p = tmp_path / "unparsed.json"
        p.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name}:" in err
        assert not (tmp_path / "out").exists()

    def test_holding_cost_is_not_a_config_cost(self, tmp_path, capsys):
        # C_h is the dual variable of the capacity constraint
        doc = json.loads(json.dumps(UNIT_DOC))
        doc["costs"]["C_h"] = 0.0
        p = tmp_path / "ch.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "C_h:" in err

    def test_non_finite_popularity_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(UNIT_DOC))
        doc["system"]["popularity"] = [math.nan]
        p = tmp_path / "nanpop.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(p)]) == 2
        assert "popularity:" in capsys.readouterr().err


class TestWhittleCmd:
    def test_index_table(self, unit_cfg, tmp_path):
        out = tmp_path / "w"
        assert main(["whittle", "--config", unit_cfg, "--out", str(out),
                     "--tau-points", "3"]) == 0
        rows = read_csv(out / "whittle.csv")
        assert list(rows[0].keys()) == ["content_id", "family", "Q", "tau", "W"]
        cached = [r for r in rows if r["family"] == "cached"]
        assert float(cached[0]["W"]) == pytest.approx(0.2224, abs=5e-5)  # tau=0 -> I
        assert float(cached[-1]["W"]) == pytest.approx(0.0, abs=1e-8)    # tau=tau*
        unc = {int(r["Q"]): float(r["W"]) for r in rows if r["family"] == "uncached"}
        assert unc[0] == 0.0
        assert unc[1] == pytest.approx(0.2224, abs=5e-5)

    @pytest.mark.parametrize("config", ["desk.json", "unit.json"])
    def test_csv_bytes_match_one_tau_at_a_time(self, config, tmp_path):
        # the batched cached rows against whittle_cached at one tau at a time
        out = tmp_path / "o"
        assert main(["whittle", "--config", str(CONFIGS / config), "--out", str(out),
                     "--contents", "0,1" if config == "desk.json" else "0"]) == 0
        system = build_system(json.loads((CONFIGS / config).read_text()))
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["content_id", "family", "Q", "tau", "W"])
        for i in (0, 1) if config == "desk.json" else (0,):
            c = system.contents[i]
            tb = build_content_tables(c, system.beta)
            for tau in np.linspace(0.0, tb.tau_star, 21):
                w.writerow([i, "cached", 0, _f(tau),
                            _f(whittle_cached(c, system.beta, 0, float(tau)))])
            for q in range(tb.q_hat + 3):
                w.writerow([i, "uncached", q, _f(0.0), _f(tb.uncached(q))])
        assert (out / "whittle.csv").read_bytes() == want.getvalue().encode()

    def test_desk_csv_bytes(self, tmp_path):
        # seeded output pinned to its bytes: contents 0 and 1 of desk.json
        out = tmp_path / "w"
        assert main(["whittle", "--config", str(CONFIGS / "desk.json"), "--out", str(out),
                     "--contents", "0,1"]) == 0
        assert (out / "whittle.csv").read_bytes() == (
            DATA / "desk_whittle_contents_0_1.csv").read_bytes()

    def test_unknown_family_exits_2(self, unit_cfg):
        assert main(["whittle", "--config", unit_cfg, "--family", "bogus"]) == 2

    @pytest.mark.parametrize("ids", ["-1", "500", "abc", "0,20"])
    def test_bad_content_ids_exit_2(self, desk_cfg, capsys, ids):
        # desk_cfg has N=20: ids run from 0 to 19
        assert main(["whittle", "--config", desk_cfg, "--contents", ids]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --contents:")

    def test_listed_contents_only(self, desk_cfg, tmp_path):
        out = tmp_path / "w"
        assert main(["whittle", "--config", desk_cfg, "--out", str(out),
                     "--contents", "19,3", "--family", "uncached"]) == 0
        assert {r["content_id"] for r in read_csv(out / "whittle.csv")} == {"19", "3"}


class TestSimulateAndSweep:
    def test_simulate_columns_and_determinism(self, desk_cfg, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", desk_cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", desk_cfg, "--out", str(out2)]) == 0
        b1 = (out1 / "metrics.csv").read_bytes()
        assert b1 == (out2 / "metrics.csv").read_bytes()
        rows = read_csv(out1 / "metrics.csv")
        assert [r["replication"] for r in rows] == ["0", "mean"]
        assert rows[0]["policy"] == "whittle"
        total = sum(float(rows[0][k]) for k in ("fetch_cost", "ageing_cost",
                                                "waiting_cost"))
        assert float(rows[0]["avg_cost"]) == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("policy", DESK_METRIC_ROWS)
    def test_desk_metrics_csv_bytes(self, tmp_path, policy):
        # seeded output pinned to its bytes: desk.json at 20k events, 2 reps
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["policy"], doc["sim"]["horizon_events"] = policy, 20_000
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "s"
        assert main(["simulate", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_bytes() == (
            b"axis_value,policy,replication,avg_cost,fetch_cost,ageing_cost,waiting_cost,"
            b"avg_wait_time,avg_cost_se,avg_wait_time_se\r\n" + DESK_METRIC_ROWS[policy])

    def test_sweep_from_config_section(self, desk_cfg, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", desk_cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "metrics.csv")
        reps = [r for r in rows if r["replication"] != "mean"]
        means = [r for r in rows if r["replication"] == "mean"]
        assert len(reps) == 4 and len(means) == 2
        assert all(r["avg_cost_se"] != "" for r in means)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(DESK_DOC)
        assert str(out / "metrics.csv") in manifest["outputs"]

    def test_manifest_records_effective_seed(self, desk_cfg, tmp_path):
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", desk_cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == DESK_DOC["sim"]["seed"]  # no --seed given
        out2 = tmp_path / "seeded2"
        assert main(["simulate", "--config", desk_cfg, "--out", str(out2),
                     "--seed", "11"]) == 0
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 11

    def test_manifest_records_event_loop_and_versions(self, desk_cfg, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "loop"
        assert main(["simulate", "--config", desk_cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = "python" if _ckernel.event_loop is None else "compiled"
        assert manifest["event_loop"] == want
        want = "scipy" if _ckernel.special is None else "compiled"
        assert manifest["special_functions"] == want
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        # a fallback shows in the manifest and leaves the metrics unchanged
        monkeypatch.setattr(_ckernel, "event_loop", None)
        monkeypatch.setattr(_ckernel, "special", None)
        out2 = tmp_path / "loop-python"
        assert main(["simulate", "--config", desk_cfg, "--out", str(out2)]) == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["event_loop"] == "python"
        assert manifest2["special_functions"] == "scipy"
        assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_policy_axis(self, desk_cfg, tmp_path):
        out = tmp_path / "pol"
        assert main(["sweep", "--config", desk_cfg, "--out", str(out),
                     "--axis", "policy", "--values", "whittle,static-top-m",
                     "--reps", "1"]) == 0
        rows = read_csv(out / "metrics.csv")
        assert {r["policy"] for r in rows} == {"whittle", "static-top-m"}

    def test_missing_axis_exits_2(self, unit_cfg):
        assert main(["sweep", "--config", unit_cfg]) == 2

    @pytest.mark.parametrize("sweep, name", [
        ("abc", "sweep"),
        ({"axis": "M", "values": 5}, "values"),
        ({"axis": "c_w", "values": "0.1"}, "values"),
        ({"axis": "policy", "values": ["whittle", "lru"]}, "policy"),
        ({"axis": "M", "values": [4, 4.5]}, "capacity"),  # int() would truncate it
    ], ids=["section", "values-number", "values-string", "policy", "capacity-fraction"])
    def test_bad_sweep_section_exits_2(self, tmp_path, capsys, sweep, name):
        p = tmp_path / "bad-sweep.json"
        p.write_text(json.dumps(dict(DESK_DOC, sweep=sweep)))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name}:" in err

    @pytest.mark.parametrize("args, sim, name", [
        # with a small event horizon too, so that a run that accepts it ends
        ([], {"horizon_events": 100, "horizon_time": math.inf}, "horizon_time"),
        ([], {"horizon_time": math.nan}, "horizon_time"),
        ([], {"horizon_time": -1.0}, "horizon_time"),
        ([], {"horizon_events": -5}, "horizon_events"),
        ([], {"horizon_events": 2.5}, "horizon_events"),
        ([], {"seed": 3}, "horizon_events"),
        ([], {"horizon_events": 100, "warmup": math.nan}, "warmup"),
        ([], {"horizon_events": 100, "warmup": 0.9}, "warmup"),
        ([], {"horizon_events": 100, "seed": -1}, "seed"),
        (["--seed", "-1"], {"horizon_events": 100}, "seed"),
        (["--reps", "-2"], {"horizon_events": 100}, "reps"),
        (["--reps", "0"], {"horizon_events": 100}, "reps"),
        *((["--axis", "c_w", "--values", v], {"horizon_events": 100}, "c_w")
          for v in ("inf", "nan", "-1", "0")),
    ], ids=["time-inf", "time-nan", "time-negative", "events-negative", "events-fraction",
            "no-horizon", "warmup-nan", "warmup-0.9", "seed-config", "seed-flag",
            "reps-negative", "reps-0", "c_w-inf", "c_w-nan", "c_w-negative", "c_w-0"])
    def test_bad_sim_input_exits_2(self, tmp_path, capsys, args, sim, name):
        p = tmp_path / "bad-sim.json"
        p.write_text(json.dumps(dict(DESK_DOC, sim=sim)))
        cmd = "sweep" if "--axis" in args else "simulate"
        assert main([cmd, "--config", str(p), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{name}:" in err



@pytest.mark.parametrize("cmd, flag, value", [
    ("solve", "--ch-points", "-1"),
    ("whittle", "--tau-points", "-2"),
    ("simulate", "--processes", "-3"),
    ("simulate", "--processes", "0"),
    ("sweep", "--processes", "0"),
], ids=["ch-points-negative", "tau-points-negative", "processes-negative",
        "processes-0-simulate", "processes-0-sweep"])
def test_bad_numeric_flag_exits_2(unit_cfg, capsys, cmd, flag, value):
    # each is a config error naming the flag, before any output or run
    args = ["--axis", "M", "--values", "0"] if cmd == "sweep" else []
    assert main([cmd, "--config", unit_cfg, flag, value, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{flag}:" in err


class TestLowerBoundAndCompare:
    def test_bound_csv_and_gap(self, desk_cfg, tmp_path):
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", desk_cfg, "--out", str(out),
                     "--m-values", "4,5"]) == 0
        rows = read_csv(out / "lower_bound.csv")
        assert [r["M"] for r in rows] == ["4", "5"]
        assert float(rows[0]["bound"]) > float(rows[1]["bound"])  # more capacity helps
        sw = tmp_path / "sw2"
        assert main(["sweep", "--config", desk_cfg, "--out", str(sw)]) == 0
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--config", desk_cfg, "--out", str(cmp_out),
                     "--metrics", str(sw / "metrics.csv")]) == 0
        gaps = read_csv(cmp_out / "compare.csv")
        assert len(gaps) == 2
        for g in gaps:
            assert float(g["relative_gap"]) > -0.05  # cost >= bound - noise

    def test_desk_bound_csv_bytes(self, tmp_path):
        # M=90 is a slack capacity: the maximizer is the endpoint C_h = 0,
        # where the relaxed occupancy is below M; elsewhere it equals M
        cfg = CONFIGS / "desk.json"
        out = tmp_path / "lb-desk"
        assert main(["lower-bound", "--config", str(cfg), "--out", str(out),
                     "--m-values", "20,25,30,90"]) == 0
        assert (out / "lower_bound.csv").read_bytes() == (
            b"M,C_h_star,bound,occupancy\r\n"
            b"20,0.0164700303736,1.19422509535,20\r\n"
            b"25,0.0142267335713,1.11768354485,25\r\n"
            b"30,0.0125343109757,1.05097050579,30\r\n"
            b"90,0,0.633946211381,82.528864217\r\n"
        )
        # the pinned maximizers are where the dual's slope changes sign, to
        # 1e-12 relative: the dual is flat to rounding over ~1e-8 of C_h
        # around them, so only the slope pins those digits
        system = build_system(json.loads(cfg.read_text()))
        k = content_constants(system.contents, system.beta)
        for m, pinned in ((20, "0.0164700303736"), (25, "0.0142267335713"),
                          (30, "0.0125343109757")):
            ch = relaxed_lower_bound(replace(system, M=m))[0]
            assert _f(ch) == pinned
            occupancy = [float(relaxed_batch(ch * (1.0 + s), k).occupancy.sum())
                         for s in (-1e-12, 1e-12)]
            assert occupancy[0] > m > occupancy[1]

    @staticmethod
    def bound_calls(monkeypatch) -> list:
        """The positional arguments of each ``cli.relaxed_lower_bound``
        call from here on: the name perfbench/child.py times as
        ``bound_s``, reading the capacity as ``args[0].M``."""
        calls = []
        real = cli.relaxed_lower_bound

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "relaxed_lower_bound", recorded)
        return calls

    def test_lower_bound_is_one_call(self, tmp_path, monkeypatch):
        # every --m-values capacity in one call, to the pinned bytes
        calls = self.bound_calls(monkeypatch)
        self.test_desk_bound_csv_bytes(tmp_path)
        [(system, ms)] = calls
        assert isinstance(system, SystemParams) and list(ms) == [20, 25, 30, 90]

    def test_compare_is_one_call(self, tmp_path, monkeypatch):
        cfg = str(CONFIGS / "desk.json")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("axis_value,policy,replication,avg_cost\n"
                           "30,whittle,mean,1.1\n20,whittle,0,1.3\n20,whittle,mean,1.2\n"
                           "30,myopic,mean,150.5\n25,whittle,mean,1.12\n")
        assert main(["lower-bound", "--config", cfg, "--out", str(tmp_path / "lb"),
                     "--m-values", "30,20,25"]) == 0
        calls = self.bound_calls(monkeypatch)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp"),
                     "--metrics", str(metrics)]) == 0
        # the distinct capacities of the mean rows, in first-seen order
        [(system, ms)] = calls
        assert isinstance(system, SystemParams) and list(ms) == [30, 20, 25]
        bound = {r["M"]: r for r in read_csv(tmp_path / "lb" / "lower_bound.csv")}
        rows = read_csv(tmp_path / "cmp" / "compare.csv")
        assert [r["M"] for r in rows] == ["30", "20", "30", "25"]
        for r in rows:
            assert (r["bound"], r["occupancy"]) == (bound[r["M"]]["bound"],
                                                    bound[r["M"]]["occupancy"])

    def test_desk_compare_prints_the_bound_occupancy(self, tmp_path):
        # compare's five columns stay as they were, and its sixth is the
        # occupancy that lower-bound prints, one bound per distinct M
        cfg = str(CONFIGS / "desk.json")
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("axis_value,policy,replication,avg_cost\n"
                           "25,whittle,0,1.2\n25,whittle,mean,1.12\n"
                           "25,myopic,mean,150.5\n90,whittle,mean,0.7\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp"),
                     "--metrics", str(metrics)]) == 0
        assert main(["lower-bound", "--config", cfg, "--out", str(tmp_path / "lb"),
                     "--m-values", "25,90"]) == 0
        bound = {r["M"]: r for r in read_csv(tmp_path / "lb" / "lower_bound.csv")}
        rows = read_csv(tmp_path / "cmp" / "compare.csv")
        assert list(rows[0]) == ["M", "policy", "avg_cost", "bound", "relative_gap",
                                 "occupancy"]
        assert [(r["M"], r["policy"], r["avg_cost"]) for r in rows] == [
            ("25", "whittle", "1.12"), ("25", "myopic", "150.5"), ("90", "whittle", "0.7")]
        for r in rows:
            assert (r["bound"], r["occupancy"]) == (bound[r["M"]]["bound"],
                                                    bound[r["M"]]["occupancy"])
            cost, b = float(r["avg_cost"]), float(r["bound"])
            assert float(r["relative_gap"]) == pytest.approx((cost - b) / b, rel=1e-6)
        assert [r["occupancy"] for r in rows] == ["25", "25", "82.528864217"]

    @pytest.mark.parametrize("section, key, value, N, M", [
        ("system", "lambda", 1e-9, 50, 10), ("costs", "c_a", 1e-12, 50, 10),
        # Q_hat runs to 421,673 here, but the bound's evaluations and
        # solve's rows read case 2 off windows of four queue candidates
        ("costs", "c_f", 1e9, 5, 1), ("costs", "c_f", 1e9, 50, 10),
    ], ids=["lambda-1e-9", "c_a-1e-12", "c_f-1e9", "c_f-1e9-N50"])
    def test_bound_of_extreme_costs(self, tmp_path, section, key, value, N, M):
        # valid systems on which case 2 has no solution at C_h = I for some
        # contents; the bound and the threshold report once raised there
        # (exit 3)
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["system"].update(N=N, M=M)
        doc[section][key] = value
        cfg = tmp_path / "extreme.json"
        cfg.write_text(json.dumps(doc))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            assert main(["lower-bound", "--config", str(cfg),
                         "--out", str(tmp_path / "lb")]) == 0
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1.2 GB peak RSS for lower-bound at N=50 and 1.35 GB for solve at
        # N=5 when each scanned every candidate
        assert peak < 100e6
        [row] = read_csv(tmp_path / "lb" / "lower_bound.csv")
        system = build_system(doc)
        # never caching is feasible, and costs theta1 per content
        assert float(row["bound"]) <= content_constants(system.contents, system.beta).theta1.sum()
        rows = read_csv(tmp_path / "solve" / "thresholds.csv")
        assert len(rows) == N * 9
        # at c_f = 1e9 the index tables and their 1.9M uncached rows take
        # 76 s and 3.3 GB, so whittle runs on the others
        if key != "c_f":
            assert main(["whittle", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0

    def test_bound_one_ulp_below_a_ceiling(self, tmp_path):
        # the bound's search steps to one ulp below content 1's I, where
        # case 2's root rounds just below 0 (conftest.BELOW_I_SYSTEMS)
        c_a, c_f, c_w, lam, beta, alpha, M = BELOW_I_SYSTEMS["C"]
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["system"].update(N=5, M=M, beta=beta, zipf_alpha=alpha)
        doc["system"]["lambda"] = lam
        doc["costs"].update(c_a=c_a, c_f=c_f, c_w=c_w)
        cfg = tmp_path / "below_i.json"
        cfg.write_text(json.dumps(doc))
        assert main(["lower-bound", "--config", str(cfg), "--out", str(tmp_path / "lb")]) == 0
        [row] = read_csv(tmp_path / "lb" / "lower_bound.csv")
        assert row["C_h_star"] == _f(relaxed_lower_bound(build_system(doc))[0])

    @pytest.mark.parametrize("argv", [
        ["lower-bound", "--m-values", "-5"],
        ["lower-bound", "--m-values", "20"],  # M = N
        ["lower-bound", "--m-values", "abc"],
        ["lower-bound", "--m-values", "4,5.5"],
        ["sweep", "--axis", "M", "--values", "500"],
        ["sweep", "--axis", "M", "--values", "4,-1"],
    ])
    def test_bad_capacity_exits_2(self, desk_cfg, capsys, argv):
        assert main([argv[0], "--config", desk_cfg] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "capacity:" in err

    @pytest.mark.parametrize("axis_value", ["whittle", "4.5", "20", "-1"])
    def test_compare_bad_axis_value_exits_2(self, desk_cfg, tmp_path, capsys,
                                            axis_value):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text("axis_value,policy,replication,avg_cost\n"
                           f"{axis_value},whittle,mean,1.0\n")
        assert main(["compare", "--config", desk_cfg, "--metrics", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "capacity:" in err

    @pytest.mark.parametrize("text, named", [
        (None, "cannot read"),
        ("axis_value,policy,avg_cost\n5,whittle,1.0\n", "no column replication"),
        ("replication,policy,avg_cost\nmean,whittle,1.0\n", "no column axis_value"),
        ("axis_value,replication,avg_cost\n5,mean,1.0\n", "no column policy"),
        ("axis_value,policy,replication\n5,whittle,mean\n", "no column avg_cost"),
        ("", "no column replication, axis_value, policy, avg_cost"),
        ("axis_value,policy,replication,avg_cost\n5,whittle,mean,abc\n", "avg_cost:"),
        ("axis_value,policy,replication,avg_cost\n5,whittle,mean\n", "avg_cost:"),
    ], ids=["missing-file", "no-replication", "no-axis-value", "no-policy", "no-avg-cost",
            "empty", "text-avg-cost", "short-row"])
    def test_compare_bad_metrics_exits_2(self, desk_cfg, tmp_path, capsys, text, named):
        metrics = tmp_path / "metrics.csv"
        if text is not None:
            metrics.write_text(text)
        assert main(["compare", "--config", desk_cfg, "--metrics", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --metrics: ") and named in err


class TestDigest:
    def test_stable_under_key_order(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest({"x": 2, "y": {"b": 2, "a": 3}})


def test_import_skips_scipy_signal(tmp_path):
    # only the verify command needs the oracle, which imports scipy.sparse
    # (and no command scipy.signal); with the library built, the solvers
    # need no scipy.special either, and the event loop seeds its own
    # streams, so neither the import nor a simulate run imports
    # numpy.random.  The fallback, the reference loop, imports it as it runs
    src = Path(aovcache.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg = tmp_path / "unit.json"
    cfg.write_text(json.dumps(UNIT_DOC))
    code = ("import sys, aovcache.cli; from aovcache import _ckernel; "
            "print(*(m in sys.modules for m in ('scipy.signal', 'scipy.sparse', "
            "'scipy.special', 'numpy.random', 'scipy')), _ckernel.special is not None, "
            "aovcache.cli.scipy_version(), 'scipy' in sys.modules); "
            "_ckernel.event_loop = _ckernel.event_loop if sys.argv[1] == 'compiled' else None; "
            "assert aovcache.cli.main(['simulate', '--config', sys.argv[2], '--out', "
            "sys.argv[3]]) == 0; "
            "print('numpy.random' in sys.modules, _ckernel.event_loop is not None)")
    lines, metrics = [], []
    for loop in ("compiled", "python"):
        out = tmp_path / loop
        res = subprocess.run([sys.executable, "-c", code, loop, str(cfg), str(out)], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        lines.append(res.stdout.splitlines())
        metrics.append((out / "metrics.csv").read_bytes())
    signal, sparse, special, random, imported, compiled, version, after = lines[0][0].split()
    assert signal == "False"
    assert sparse == "False"
    # the manifest's scipy version is read without importing scipy
    assert version == scipy.__version__
    assert after == imported
    if compiled == "True":
        assert special == "False"
        assert imported == "False"
        assert random == "False"
        assert lines[0][-1].split() == ["False", "True"]
    assert lines[1][-1].split() == ["True", "False"]
    # the fallback runs, to the same metrics
    assert metrics[0] == metrics[1]


class TestVerifyCmd:
    def test_quick_battery_passes(self, unit_cfg, capsys):
        assert main(["verify", "--config", unit_cfg, "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_quick_battery_on_desk_config(self, capsys):
        # M=25 of N=100, so the determinism check compares admissions and
        # evictions, which the single-content unit config never makes
        cfg = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
        assert main(["verify", "--config", str(cfg), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert re.search(r"^PASS  dual-bound  ", out, re.MULTILINE)
        assert re.search(r"^PASS  dual-slope  \(max \|occupancy - M - central difference\| = "
                         r"\S+ over \d+ points", out, re.MULTILINE)
        assert re.search(r"^PASS  special-functions  ", out, re.MULTILINE)
        assert re.search(r"^PASS  random-streams  \(0 of 9000 draws of the 3 streams at seed "
                         r"7 differ from numpy's PCG64\)$", out, re.MULTILINE)
        assert re.search(r"^PASS  table-window  ", out, re.MULTILINE)
        assert re.search(r"^PASS  dual-window  \(0 of \d+ values at 61 holding costs differ from "
                         r"the search from candidate 0 or fail its certificate\)$", out,
                         re.MULTILINE)
        assert re.search(r"^PASS  simulation-determinism  \(reference vs (compiled|reference) "
                         r"loop, 8 policy/mode pairs\)$", out, re.MULTILINE)

    def test_dual_bound_catches_a_slightly_low_bound(self, desk_cfg, capsys, monkeypatch):
        # 1e-6 below the true maximum: far inside the grid's own shortfall,
        # but the dual next to C_h* sits above it
        exact = checks.relaxed_lower_bound

        def low(system):
            ch, bound = exact(system)
            return ch, bound - 1e-6

        monkeypatch.setattr(checks, "relaxed_lower_bound", low)
        assert main(["verify", "--config", desk_cfg, "--quick"]) == 4
        out = capsys.readouterr().out
        assert re.search(r"^FAIL  dual-bound  ", out, re.MULTILINE)
        assert "FAILED: dual-bound\n" in out

    def test_simulation_rows_outlast_a_run_that_raises(self, capsys, monkeypatch):
        # every run raises, as _metrics does on a cost accounting mismatch:
        # every row is still printed, the main run's error fails the first
        # two, and every policy/mode pair counts as differing
        def mismatch(*args):
            raise simulator.SimulationError("cost accounting mismatch: 1")

        monkeypatch.setattr(simulator, "_metrics", mismatch)
        assert main(["verify", "--config", str(CONFIGS / "desk.json"), "--quick"]) == 4
        out = capsys.readouterr().out
        for name in ("cost-reconciliation", "no-serve-after-wait"):
            assert re.search(rf"^FAIL  {name}  \(whittle/expected: cost accounting mismatch: 1\)$",
                             out, re.MULTILINE)
        assert re.search(r"^FAIL  simulation-determinism  \(.*; differ: (\S+/\S+, ){7}\S+/\S+\)$",
                         out, re.MULTILINE)
        assert re.search(r"^FAIL  occupancy  ", out, re.MULTILINE)
        assert out.splitlines()[-1] == ("FAILED: cost-reconciliation, no-serve-after-wait, "
                                        "simulation-determinism, occupancy")

    def test_full_battery_on_unit_config(self, tmp_path, capsys):
        # without --quick: the only test that runs whittle-vs-sweep
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(CONFIGS / "unit.json"), "--out", str(out)]) == 0
        assert re.search(r"^PASS  whittle-vs-sweep\[content 0\]  ", capsys.readouterr().out,
                         re.MULTILINE)
        rows = read_csv(out / "verify.csv")
        assert {r["result"] for r in rows} == {"PASS"}
        assert all(float(r["seconds"]) >= 0.0 for r in rows)

    def test_dual_slope_catches_an_occupancy_without_its_decay_term(self, capsys, monkeypatch):
        # the relaxed occupancy with p*e^-x dropped from its denominator,
        # which moves unit.json's summed occupancy by ~0.09 in the median
        exact = checks.relaxed_batch

        def mutant(C_h, k):
            r = exact(C_h, k)
            u = k.p * (1.0 + k.beta * r.tau_bar)
            return r._replace(occupancy=np.where(r.occupancy == 0.0, 0.0,
                                                 u / (u + r.Q_bar + 1.0)))

        monkeypatch.setattr(checks, "relaxed_batch", mutant)
        assert main(["verify", "--config", str(CONFIGS / "unit.json"), "--quick"]) == 4
        assert "FAILED: dual-slope\n" in capsys.readouterr().out  # and nothing else

    def test_out_dir_gets_checks_and_manifest(self, unit_cfg, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "--config", unit_cfg, "--quick", "--out", str(out)]) == 0
        printed = [line.split("  ")[:2] for line in capsys.readouterr().out.splitlines()
                   if line.startswith(("PASS", "FAIL"))]
        rows = read_csv(out / "verify.csv")
        assert [[r["result"], r["check"]] for r in rows] == printed
        assert {"dual-bound", "dual-slope", "occupancy"} <= {r["check"] for r in rows}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == UNIT_DOC["sim"]["seed"]
        assert manifest["outputs"] == [str(out / "verify.csv")]

    def test_takes_no_run_flags(self, unit_cfg):
        # verify runs its own horizons serially, so it reads neither flag
        for flag in ("--reps", "--processes"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--config", unit_cfg, "--quick", flag, "2"])
            assert exc.value.code == 2

    def test_oracle_agreement_is_not_exact(self, unit_cfg, unit_content):
        # demonstrates the battery tolerance is load-bearing: a 1e-15
        # demand on closed-form vs grid agreement necessarily fails
        from aovcache.oracle import solve_infinite
        theta = solve_thresholds(unit_content, 1.0).theta
        vt = solve_infinite(1, 1, 1, 1, 0.5)
        assert abs(vt.theta - theta) > 1e-15


def test_import_skips_subprocess_and_multiprocessing():
    # with the library built, only a kernel build runs the compiler and
    # only a parallel sweep starts a pool
    src = Path(aovcache.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, aovcache.cli; from aovcache import _ckernel; "
            "print(_ckernel.event_loop is not None, "
            "*(m in sys.modules for m in ('subprocess', 'multiprocessing')))")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    compiled, sub, multi = res.stdout.split()
    if compiled != "True":
        pytest.skip("compiled library unavailable")
    assert (sub, multi) == ("False", "False")


# perfbench/child.py looks these up by attribute to time its passes, and a
# pass that lacks one crashes: a refactor that removes one fails here first
PERFBENCH_NAMES = ("whittle.build_content_tables", "policies.build_policy_tables",
                   "simulator.run", "policies.relaxed_lower_bound", "cli.Reporter.table",
                   "cli.Reporter.close")


def test_exported_and_benchmarked_names_exist():
    # a stale __all__ entry breaks ``from aovcache.<module> import *``
    for info in pkgutil.iter_modules(aovcache.__path__):
        module = importlib.import_module(f"aovcache.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    for name in PERFBENCH_NAMES:
        module, *attrs = name.split(".")
        assert callable(reduce(getattr, attrs, importlib.import_module(f"aovcache.{module}")))


def test_import_freezes_the_collector():
    # the imports' objects are frozen once, so neither a collection nor
    # the process exit walks them again
    src = Path(aovcache.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import gc, aovcache.cli; print(gc.get_freeze_count())"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert int(res.stdout) > 0


class TestBuildCounts:
    """Every command that builds index tables records the build's seconds
    and counters in its manifest; on configs/desk.json they pin the
    solvers' work, so a change that silently re-expands it fails here.
    ``simulate`` and ``sweep`` also record a summary of their runs."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--reps", "1"],
        ["sweep", "--axis", "M", "--values", "20,25", "--reps", "1"],
        ["whittle", "--contents", "0,1"],
    ])
    def test_manifest_records_the_build(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["sim"]["horizon_events"] = 20_000
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps(doc))
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        builds = json.loads((out / "manifest.json").read_text())["index_builds"]
        assert len(builds) == 1
        b = builds[0]
        n = 2 if argv[0] == "whittle" else doc["system"]["N"]
        assert b["seconds"] > 0.0
        # every breakpoint is its band-checked root: the band check's two
        # case2 rounds, not the plain bisection's 60
        assert b["searched"] == b["fallback"] == 0
        assert b["guards"] <= 0.01 * n * (GRID_SIZE - 1)

    @pytest.mark.parametrize("argv, runs", [
        (["simulate", "--reps", "2"], 2),
        (["sweep", "--axis", "M", "--values", "20,25", "--reps", "2"], 4),
    ], ids=["simulate", "sweep"])
    def test_manifest_records_the_runs(self, argv, runs, tmp_path, capsys):
        out = tmp_path / "out"
        doc = json.loads((CONFIGS / "desk.json").read_text())
        doc["sim"]["horizon_events"] = 20_000
        cfg = tmp_path / "desk.json"
        cfg.write_text(json.dumps(doc))
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["runs"]
        assert summary["count"] == runs
        assert summary["events"] == runs * 20_000
        assert summary["seconds"] > 0.0
        assert summary["events_per_s"] == pytest.approx(summary["events"] / summary["seconds"])
        assert summary["processes"] == 1

    def test_c_w_sweep_records_each_build(self, desk_cfg, tmp_path, capsys):
        out = tmp_path / "cw"
        assert main(["sweep", "--config", desk_cfg, "--out", str(out), "--axis", "c_w",
                     "--values", "0.01,0.1", "--reps", "1"]) == 0
        builds = json.loads((out / "manifest.json").read_text())["index_builds"]
        assert len(builds) == 2
        assert all(b["fallback"] == 0 for b in builds)
