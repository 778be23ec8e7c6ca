"""Tests for experiment configs, seeded trials, sweeps, and CSV output."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from btem import harness
from btem.errors import ConfigError
from btem.harness import (
    CSV_COLUMNS,
    AlgorithmSpec,
    SweepRecord,
    config_from_dict,
    parse_config,
    read_csv,
    run_trial,
    sweep_grid,
    trial_seed,
    write_csv,
    write_frontier_chart_svg,
    write_rate_chart_svg,
)
from btem.theory import TheoryParams, recovery_conditions

EASY_POINT = {"n": 64, "m": 40, "k": 2, "q": 0.1, "c": 0.5,
              "w_min": 0.5, "delta": 0.1, "epsilon": 0.1}


def small_config(**overrides):
    doc = {
        "grid": {"m": [35, 45]},
        "fixed": {"n": 64, "k": 2, "q": 0.05, "c": 0.5, "w_min": 0.5},
        "trials": 3,
        "seed": 1,
    }
    doc.update(overrides)
    return config_from_dict(doc)


class TestAlgorithmSpec:
    def test_idents(self):
        assert AlgorithmSpec("two-round").ident == "two-round"
        assert AlgorithmSpec("two-round", rounds=10).ident == \
            "two-round-extended(10)"
        assert AlgorithmSpec("standard", iterations=5, restarts=2).ident == \
            "standard(5,2)"

    def test_validation(self):
        with pytest.raises(ConfigError):
            AlgorithmSpec("bogus")
        with pytest.raises(ConfigError):
            AlgorithmSpec("two-round", rounds=1)
        with pytest.raises(ConfigError):
            AlgorithmSpec("standard", iterations=0)


class TestConfigParsing:
    def test_defaults(self):
        cfg = small_config()
        fixed = dict(cfg.fixed)
        assert fixed["delta"] == 0.1
        assert fixed["epsilon"] == 0.1
        assert cfg.trials == 3
        assert cfg.templates == "line"
        assert not cfg.timing
        assert cfg.success.kind == "exact-recovery"
        assert [a.ident for a in cfg.algorithms] == ["two-round"]

    def test_points_are_full_factorial(self):
        cfg = config_from_dict({
            "grid": {"m": [30, 40], "q": [0.1, 0.2, 0.3]},
            "fixed": {"n": 64, "k": 2, "c": 0.5, "w_min": 0.5},
        })
        pts = cfg.points()
        assert len(pts) == 6
        assert [(p["m"], p["q"]) for p in pts] == [
            (30, 0.1), (30, 0.2), (30, 0.3),
            (40, 0.1), (40, 0.2), (40, 0.3),
        ]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            small_config(bogus=1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"zeta": [1]}, "fixed": {}})

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({
                "grid": {"m": [30]},
                "fixed": {"m": 30, "n": 64, "k": 2, "q": 0.1, "c": 0.5,
                          "w_min": 0.5},
            })

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"m": [30]},
                              "fixed": {"n": 64, "k": 2, "q": 0.1}})

    def test_value_range_checks(self):
        with pytest.raises(ConfigError):
            small_config(fixed={"n": 64, "k": 2, "q": 0.6, "c": 0.5,
                                "w_min": 0.5})
        with pytest.raises(ConfigError):
            small_config(fixed={"n": 64, "k": 2, "q": 0.1, "c": 1.5,
                                "w_min": 0.5})
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(seed=-1)
        with pytest.raises(ConfigError):
            small_config(fixed={"n": 64.5, "k": 2, "q": 0.1, "c": 0.5,
                                "w_min": 0.5})

    def test_line_templates_need_two_components(self):
        with pytest.raises(ConfigError):
            small_config(fixed={"n": 64, "k": 3, "q": 0.1, "c": 0.5,
                                "w_min": 0.3})
        cfg = small_config(
            fixed={"n": 64, "k": 3, "q": 0.1, "c": 0.3, "w_min": 0.3},
            templates="random",
        )
        assert cfg.templates == "random"

    def test_infeasible_w_min_rejected(self):
        with pytest.raises(ConfigError):
            small_config(fixed={"n": 64, "k": 2, "q": 0.1, "c": 0.5,
                                "w_min": 0.7})

    def test_success_rules(self):
        cfg = small_config(success={"purity": 0.95})
        assert cfg.success.kind == "purity"
        assert cfg.success.threshold == 0.95
        with pytest.raises(ConfigError):
            small_config(success={"purity": 1.5})
        with pytest.raises(ConfigError):
            small_config(success="always")

    def test_algorithm_entries(self):
        cfg = small_config(algorithms=[
            {"algo": "two-round"},
            {"algo": "two-round", "rounds": 10},
            {"algo": "standard", "iterations": 5, "restarts": 2},
        ])
        assert [a.ident for a in cfg.algorithms] == [
            "two-round", "two-round-extended(10)", "standard(5,2)",
        ]
        with pytest.raises(ConfigError):
            small_config(algorithms=[{"algo": "standard", "rounds": 3}])
        with pytest.raises(ConfigError):
            small_config(algorithms=[{"iterations": 5}])
        with pytest.raises(ConfigError):
            small_config(algorithms=[])

    def test_parse_config_reports_json_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"grid": {\n  "m": [30,]\n}}')
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line" in str(err.value)
        assert str(p) in str(err.value)

    def test_parse_config_roundtrip(self, tmp_path):
        doc = {
            "grid": {"m": [35, 45]},
            "fixed": {"n": 64, "k": 2, "q": 0.05, "c": 0.5, "w_min": 0.5},
            "trials": 3,
            "seed": 1,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert parse_config(p) == small_config()


class TestTrialSeeds:
    def test_golden_spawn_key(self):
        ss = trial_seed(42, "two-round", EASY_POINT, 7)
        assert ss.entropy == 42
        assert ss.spawn_key == (
            3341120236, 576704026, 1325796436, 1708308121, 7,
        )

    def test_distinct_across_algo_point_trial(self):
        keys = {
            trial_seed(0, algo, point, t).spawn_key
            for algo in ("two-round", "standard(5,2)")
            for point in (EASY_POINT, dict(EASY_POINT, m=41))
            for t in (0, 1)
        }
        assert len(keys) == 8

    def test_insensitive_to_point_key_order(self):
        shuffled = dict(reversed(list(EASY_POINT.items())))
        assert trial_seed(3, "two-round", EASY_POINT, 0).spawn_key == \
            trial_seed(3, "two-round", shuffled, 0).spawn_key


class TestRunTrial:
    SUCCESS = config_from_dict({
        "grid": {}, "fixed": dict(EASY_POINT), "trials": 1,
    }).success

    def test_noiseless_point_succeeds(self):
        point = dict(EASY_POINT, q=0.0)
        rec = run_trial(point, AlgorithmSpec("two-round"), 0, 0, self.SUCCESS)
        assert rec.success
        assert rec.purity == 1.0
        assert rec.entropy == 0.0
        assert rec.failure is None
        assert rec.wall_ms == 0.0  # timing off by default

    def test_rerun_is_identical(self):
        a = run_trial(EASY_POINT, AlgorithmSpec("two-round"), 3, 5,
                      self.SUCCESS)
        b = run_trial(EASY_POINT, AlgorithmSpec("two-round"), 3, 5,
                      self.SUCCESS)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_too_few_examples_is_recorded_not_raised(self):
        point = dict(EASY_POINT, m=20, w_min=0.4)
        rec = run_trial(point, AlgorithmSpec("two-round"), 0, 0, self.SUCCESS)
        assert not rec.success
        assert rec.failure == "InsufficientData"
        assert math.isnan(rec.purity)

    def test_timing_mode_records_wall_time(self):
        rec = run_trial(EASY_POINT, AlgorithmSpec("two-round"), 0, 0,
                        self.SUCCESS, timing=True)
        assert rec.wall_ms > 0.0

    def test_standard_algorithm_runs(self):
        rec = run_trial(EASY_POINT, AlgorithmSpec("standard", iterations=3,
                                                  restarts=2), 0, 0,
                        self.SUCCESS)
        assert rec.failure is None
        assert 0.0 < rec.purity <= 1.0


class TestSweepGrid:
    def test_record_layout(self):
        cfg = small_config(algorithms=[
            {"algo": "two-round"},
            {"algo": "standard", "iterations": 2, "restarts": 1},
        ])
        records = sweep_grid(cfg)
        # point-major, then algorithm, matching config order
        assert [(r.m, r.algo) for r in records] == [
            (35, "two-round"), (35, "standard(2,1)"),
            (45, "two-round"), (45, "standard(2,1)"),
        ]
        for r in records:
            assert r.trials == 3
            assert 0 <= r.successes <= r.trials
            assert r.success_rate == r.successes / r.trials
            assert r.n == 64 and r.k == 2

    def test_theory_flag_matches_condition_checker(self):
        cfg = small_config()
        records = sweep_grid(cfg)
        for r in records:
            params = TheoryParams(n=r.n, m=r.m, k=r.k, q=r.q, c=r.c,
                                  w_min=r.w_min, delta=r.delta,
                                  epsilon=r.epsilon)
            assert r.theory_ok == recovery_conditions(params).satisfied

    def test_q_zero_point_gets_theory_flag_false(self):
        # q = 0 is runnable but outside the guarantee domain
        cfg = small_config(fixed={"n": 64, "k": 2, "q": 0.0, "c": 0.5,
                                  "w_min": 0.5})
        records = sweep_grid(cfg)
        assert all(not r.theory_ok for r in records)
        assert all(r.success_rate == 1.0 for r in records)

    def test_thread_count_does_not_change_results(self, tmp_path):
        cfg = small_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(sweep_grid(cfg, threads=1), a)
        write_csv(sweep_grid(cfg, threads=4), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads, cpus, expected", [
        (64, 3, 3),   # capped by the machine
        (64, 64, 6),  # capped by the 6 trials
        (2, 64, 2),   # as asked
    ])
    def test_pool_size_is_capped(self, monkeypatch, threads, cpus, expected):
        seen = []

        class RecordingPool:
            """Stands in for ThreadPoolExecutor; runs tasks inline."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        sweep_grid(small_config(), threads=threads)  # 2 points x 3 trials
        assert seen == [expected]

    def test_failed_trials_leave_nan_aggregates(self):
        # m below the seed count: every trial fails with InsufficientData
        cfg = config_from_dict({
            "grid": {},
            "fixed": {"n": 32, "m": 10, "k": 2, "q": 0.1, "c": 0.5,
                      "w_min": 0.5},
            "trials": 2,
        })
        (rec,) = sweep_grid(cfg)
        assert rec.successes == 0
        assert math.isnan(rec.purity_mean)
        assert math.isnan(rec.loglik_mean)


class TestCsv:
    GOLDEN = (
        "algo,n,m,k,q,c,w_min,delta,epsilon,trials,successes,success_rate,"
        "purity_mean,purity_std,entropy_mean,entropy_std,loglik_mean,"
        "loglik_std,theory_ok,wall_ms_mean\n"
        '"standard(5,2)",64,40,2,0.1,0.5,0.5,0.1,0.1,3,1,0.333333333,'
        "0.875,0.0125,nan,nan,-1234.56789,0,false,0\n"
    )

    @staticmethod
    def golden_record():
        return SweepRecord(
            algo="standard(5,2)", n=64, m=40, k=2, q=0.1, c=0.5, w_min=0.5,
            delta=0.1, epsilon=0.1, trials=3, successes=1, success_rate=1 / 3,
            purity_mean=0.875, purity_std=0.0125, entropy_mean=math.nan,
            entropy_std=math.nan, loglik_mean=-1234.56789123, loglik_std=0.0,
            theory_ok=False, wall_ms_mean=0.0,
        )

    def test_golden_bytes(self, tmp_path):
        p = tmp_path / "g.csv"
        write_csv([self.golden_record()], p)
        assert p.read_text() == self.GOLDEN

    def test_header_is_the_documented_schema(self):
        assert CSV_COLUMNS == (
            "algo", "n", "m", "k", "q", "c", "w_min", "delta", "epsilon",
            "trials", "successes", "success_rate",
            "purity_mean", "purity_std", "entropy_mean", "entropy_std",
            "loglik_mean", "loglik_std", "theory_ok", "wall_ms_mean",
        )

    def test_roundtrip(self, tmp_path):
        cfg = small_config()
        records = sweep_grid(cfg)
        p = tmp_path / "r.csv"
        write_csv(records, p)
        back = read_csv(p)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for f in dataclasses.fields(SweepRecord):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                elif isinstance(va, float):
                    assert vb == pytest.approx(va, rel=1e-8)
                else:
                    assert va == vb

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(p)

    def test_empty_sweep_writes_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_csv([], p)
        assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"


@pytest.fixture(scope="module")
def records():
    cfg = small_config(algorithms=[
        {"algo": "two-round"},
        {"algo": "standard", "iterations": 2, "restarts": 1},
    ])
    return sweep_grid(cfg)


class TestCharts:
    def test_rate_chart(self, records, tmp_path):
        p = tmp_path / "rate.svg"
        write_rate_chart_svg(records, p, "m")
        root = ET.parse(p).getroot()
        polylines = [el for el in root.iter()
                     if el.tag.endswith("polyline")]
        assert len(polylines) == 2  # one per algorithm

    def test_frontier_chart(self, records, tmp_path):
        p = tmp_path / "front.svg"
        write_frontier_chart_svg(records, p, "m", "n", level=0.0)
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")


def hand_records():
    """Three algorithms over an (m, n) grid, built without sampling.

    "never" stays below every level, so the frontier chart skips it.
    """
    rates = {"two-round": (0.2, 0.95, 1.0), "never": (0.0, 0.1, 0.5),
             "standard(5,2)": (0.0, 0.9, 0.97)}
    out = []
    for n in (64, 48):  # x ties out of rate order: the sort must be stable
        for mi, m in enumerate((30, 60, 90)):
            for algo, rate in rates.items():
                r = max(0.0, rate[mi] - (0.1 if n == 48 else 0.0))
                out.append(SweepRecord(
                    algo=algo, n=n, m=m, k=2, q=0.1, c=0.5, w_min=0.5,
                    delta=0.1, epsilon=0.1, trials=20,
                    successes=round(20 * r), success_rate=r,
                    purity_mean=0.9, purity_std=0.01, entropy_mean=0.1,
                    entropy_std=0.01, loglik_mean=-100.0, loglik_std=1.0,
                    theory_ok=False, wall_ms_mean=0.0))
    return out


class TestChartBytes:
    """Both chart writers pinned byte for byte on hand-built records."""

    DATA = Path(__file__).parent / "data"

    def test_rate_chart_bytes(self, tmp_path):
        p = tmp_path / "rate.svg"
        write_rate_chart_svg(hand_records(), p, "m")
        assert p.read_bytes() == (self.DATA / "golden_rate_vs_m.svg").read_bytes()

    def test_frontier_chart_bytes(self, tmp_path):
        p = tmp_path / "front.svg"
        write_frontier_chart_svg(hand_records(), p, "m", "n")
        assert p.read_bytes() == \
            (self.DATA / "golden_frontier_m_n.svg").read_bytes()
