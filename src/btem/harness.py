"""Monte Carlo experiment harness: configs, seeded trials, grid sweeps,
CSV output, and minimal SVG charts.

Seed discipline: the master seed is the entropy of every stream; each
trial's root is keyed by a digest of (algorithm id, grid point) plus the
trial index.  Adding grid points, algorithms, or trials therefore never
perturbs existing trials, and execution order cannot matter.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .em import Q_FLOOR, standard_em, two_round_em
from .errors import (
    AllClustersStarved,
    ConfigError,
    InsufficientData,
    ParameterError,
    TooFewClusters,
)
from .metrics import evaluate_fit
from .sampler import (
    MixtureModel,
    child_seed,
    make_line_templates,
    make_random_templates,
    mixture_weights,
    sample_dataset,
)
from .theory import TheoryParams, recovery_conditions

__all__ = [
    "AlgorithmSpec",
    "SuccessRule",
    "ExperimentConfig",
    "TrialRecord",
    "SweepRecord",
    "CSV_COLUMNS",
    "parse_config",
    "config_from_dict",
    "run_trial",
    "sweep_grid",
    "write_csv",
    "read_csv",
    "write_rate_chart_svg",
    "write_frontier_chart_svg",
]

PARAM_NAMES = ("n", "m", "k", "q", "c", "w_min", "delta", "epsilon")
_INT_PARAMS = ("n", "m", "k")
_DEFAULTS = {"delta": 0.1, "epsilon": 0.1}

CSV_COLUMNS = (
    "algo", "n", "m", "k", "q", "c", "w_min", "delta", "epsilon",
    "trials", "successes", "success_rate",
    "purity_mean", "purity_std", "entropy_mean", "entropy_std",
    "loglik_mean", "loglik_std", "theory_ok", "wall_ms_mean",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm configuration to run at every grid point."""

    name: str  # "two-round" or "standard"
    rounds: int = 2
    iterations: int = 10
    restarts: int = 1
    round1_binarize: bool = False
    deterministic_prune: bool = False

    def __post_init__(self):
        if self.name not in ("two-round", "standard"):
            raise ConfigError(f"unknown algorithm {self.name!r}")
        if self.name == "two-round" and self.rounds < 2:
            raise ConfigError("two-round needs rounds >= 2")
        if self.name == "standard" and (self.iterations < 1 or self.restarts < 1):
            raise ConfigError("standard needs iterations >= 1 and restarts >= 1")

    @property
    def ident(self):
        if self.name == "two-round":
            if self.rounds == 2:
                return "two-round"
            return f"two-round-extended({self.rounds})"
        return f"standard({self.iterations},{self.restarts})"


@dataclass(frozen=True)
class SuccessRule:
    kind: str  # "exact-recovery" or "purity"
    threshold: Optional[float] = None

    def met(self, evaluation):
        if self.kind == "exact-recovery":
            return evaluation.exact_recovery
        return evaluation.purity >= self.threshold


@dataclass(frozen=True)
class ExperimentConfig:
    grid: tuple  # ((name, (values...)), ...) in declaration order
    fixed: tuple  # ((name, value), ...)
    algorithms: tuple
    trials: int = 100
    seed: int = 0
    success: SuccessRule = SuccessRule("exact-recovery")
    templates: str = "line"
    timing: bool = False

    def points(self):
        """Full-factorial grid as dicts, axes varying fastest-last."""
        fixed = dict(self.fixed)
        names = [name for name, _ in self.grid]
        axes = [values for _, values in self.grid]
        out = []
        for combo in itertools.product(*axes) if axes else [()]:
            point = dict(fixed)
            point.update(zip(names, combo))
            out.append(point)
        return out


@dataclass(eq=False)
class TrialRecord:
    success: bool
    purity: float
    entropy: float
    loglik: float
    wall_ms: float
    failure: Optional[str] = None


@dataclass(eq=False)
class SweepRecord:
    algo: str
    n: int
    m: int
    k: int
    q: float
    c: float
    w_min: float
    delta: float
    epsilon: float
    trials: int
    successes: int
    success_rate: float
    purity_mean: float
    purity_std: float
    entropy_mean: float
    entropy_std: float
    loglik_mean: float
    loglik_std: float
    theory_ok: bool
    wall_ms_mean: float


def _cfg_fail(msg):
    raise ConfigError(msg)


def _check_param_value(name, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _cfg_fail(f"parameter {name!r} must be a number, got {value!r}")
    if name in _INT_PARAMS:
        if value != int(value) or value < 1:
            _cfg_fail(f"parameter {name!r} must be a positive integer")
        return int(value)
    value = float(value)
    checks = {
        "q": 0.0 <= value < 0.5,
        "c": 0.0 <= value <= 1.0,
        "w_min": 0.0 < value <= 1.0,
        "delta": 0.0 < value < 1.0,
        "epsilon": 0.0 < value < 1.0,
    }
    if not checks[name]:
        _cfg_fail(f"parameter {name!r} out of range: {value}")
    return value


def _parse_algorithm(doc):
    if not isinstance(doc, dict) or "algo" not in doc:
        _cfg_fail(f"algorithm entries need an 'algo' key, got {doc!r}")
    known = {
        "two-round": {"rounds", "round1_binarize", "deterministic_prune"},
        "standard": {"iterations", "restarts"},
    }
    name = doc["algo"]
    if name not in known:
        _cfg_fail(f"unknown algorithm {name!r}")
    extra = set(doc) - known[name] - {"algo"}
    if extra:
        _cfg_fail(f"unknown algorithm keys {sorted(extra)} for {name!r}")
    try:
        return AlgorithmSpec(name=name, **{k: v for k, v in doc.items()
                                           if k != "algo"})
    except TypeError as exc:
        raise ConfigError(f"bad algorithm entry {doc!r}: {exc}") from None


def _parse_success(doc):
    if doc == "exact-recovery":
        return SuccessRule("exact-recovery")
    if isinstance(doc, dict) and set(doc) == {"purity"}:
        thr = doc["purity"]
        if not isinstance(thr, (int, float)) or not 0.0 < thr <= 1.0:
            _cfg_fail(f"purity threshold out of range: {thr!r}")
        return SuccessRule("purity", float(thr))
    _cfg_fail(f"success must be 'exact-recovery' or {{'purity': t}}, got {doc!r}")


def config_from_dict(doc):
    """Validate a decoded config document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        _cfg_fail("config root must be an object")
    known_keys = {"grid", "fixed", "algorithms", "trials", "seed",
                  "success", "templates", "timing"}
    unknown = set(doc) - known_keys
    if unknown:
        _cfg_fail(f"unknown config keys: {sorted(unknown)}")

    grid_doc = doc.get("grid", {})
    fixed_doc = doc.get("fixed", {})
    if not isinstance(grid_doc, dict) or not isinstance(fixed_doc, dict):
        _cfg_fail("'grid' and 'fixed' must be objects")
    both = set(grid_doc) & set(fixed_doc)
    if both:
        _cfg_fail(f"parameters defined twice: {sorted(both)}")
    for name in list(grid_doc) + list(fixed_doc):
        if name not in PARAM_NAMES:
            _cfg_fail(f"unknown parameter {name!r}")

    grid = []
    for name, values in grid_doc.items():
        if not isinstance(values, list) or not values:
            _cfg_fail(f"grid axis {name!r} must be a non-empty list")
        grid.append((name, tuple(_check_param_value(name, v) for v in values)))
    fixed = {name: _check_param_value(name, v) for name, v in fixed_doc.items()}
    for name, default in _DEFAULTS.items():
        if name not in fixed and name not in grid_doc:
            fixed[name] = default
    defined = set(grid_doc) | set(fixed)
    missing = set(PARAM_NAMES) - defined
    if missing:
        _cfg_fail(f"parameters not defined: {sorted(missing)}")

    algorithms = tuple(_parse_algorithm(a) for a in
                       doc.get("algorithms", [{"algo": "two-round"}]))
    if not algorithms:
        _cfg_fail("need at least one algorithm")

    trials = doc.get("trials", 100)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        _cfg_fail(f"trials must be a positive integer, got {trials!r}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _cfg_fail(f"seed must be a non-negative integer, got {seed!r}")
    templates = doc.get("templates", "line")
    if templates not in ("line", "random"):
        _cfg_fail(f"templates must be 'line' or 'random', got {templates!r}")
    timing = doc.get("timing", False)
    if not isinstance(timing, bool):
        _cfg_fail(f"timing must be a boolean, got {timing!r}")

    cfg = ExperimentConfig(
        grid=tuple(grid),
        fixed=tuple(sorted(fixed.items())),
        algorithms=algorithms,
        trials=trials,
        seed=seed,
        success=_parse_success(doc.get("success", "exact-recovery")),
        templates=templates,
        timing=timing,
    )
    # line templates are a 2-component construction
    k_values = dict(cfg.grid).get("k", (dict(cfg.fixed).get("k"),))
    if templates == "line" and any(k != 2 for k in k_values):
        _cfg_fail("line templates need k = 2; use templates='random'")
    for point in cfg.points():
        if point["w_min"] > 1.0 / point["k"]:
            _cfg_fail(f"w_min {point['w_min']} impossible for k={point['k']}")
    return cfg


def parse_config(path):
    """Load and validate a JSON experiment config file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def trial_seed(master_seed, algo_ident, point, trial):
    """Root SeedSequence of one trial, stable under config growth."""
    blob = json.dumps([algo_ident, sorted(point.items())],
                      separators=(",", ":"))
    digest = hashlib.blake2b(blob.encode("ascii"), digest_size=16).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little")
                  for i in range(0, 16, 4))
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=words + (trial,))


def _point_model(point, templates_kind, base_seed):
    if templates_kind == "random":
        T = make_random_templates(point["n"], point["k"], point["c"],
                                  child_seed(base_seed, 2))
    else:
        T = make_line_templates(point["n"], point["c"])
    return MixtureModel(T, mixture_weights(point["k"], point["w_min"]),
                        point["q"])


def _run_algorithm(algo, examples, point, seed):
    if algo.name == "two-round":
        return two_round_em(
            examples, point["k"], point["w_min"], point["delta"], seed,
            rounds=algo.rounds,
            round1_binarize=algo.round1_binarize,
            deterministic_prune=algo.deterministic_prune,
        )
    return standard_em(examples, point["k"],
                       q_known=max(point["q"], Q_FLOOR),
                       iterations=algo.iterations,
                       restarts=algo.restarts, seed=seed)


def run_trial(point, algo, trial, master_seed, success, templates_kind="line",
              timing=False):
    """One seeded trial: build model, sample, fit, evaluate.

    Algorithm failures (starved or too few clusters, dataset smaller than
    the seed count) yield a non-success record instead of raising.  Wall
    time is recorded only in timing mode so default outputs stay
    byte-reproducible.
    """
    base = trial_seed(master_seed, algo.ident, point, trial)
    model = _point_model(point, templates_kind, base)
    dataset = sample_dataset(model, point["m"], child_seed(base, 0))
    t0 = time.perf_counter()
    try:
        fit = _run_algorithm(algo, dataset.examples, point, child_seed(base, 1))
    except (InsufficientData, AllClustersStarved, TooFewClusters) as exc:
        wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
        return TrialRecord(False, math.nan, math.nan, math.nan, wall,
                           failure=type(exc).__name__)
    wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
    ev = evaluate_fit(dataset, model, fit)
    return TrialRecord(bool(success.met(ev)), ev.purity, ev.entropy,
                       ev.log_likelihood, wall)


def _theory_flag(point):
    try:
        params = TheoryParams(**{name: point[name] for name in PARAM_NAMES})
    except ParameterError:
        return False
    return recovery_conditions(params).satisfied


def _agg(values):
    arr = np.asarray(values, dtype=np.float64)
    good = arr[~np.isnan(arr)]
    if good.size == 0:
        return math.nan, math.nan
    return float(good.mean()), float(good.std())


def sweep_grid(config, threads=1):
    """Run the full factorial sweep and aggregate per (point, algorithm).

    Trials execute concurrently on min(threads, trials, cpu count)
    workers; records are assembled in deterministic (point, algorithm,
    trial) order either way.
    """
    points = config.points()
    algos = config.algorithms
    tasks = [(pi, ai, t)
             for pi in range(len(points))
             for ai in range(len(algos))
             for t in range(config.trials)]
    slots = [None] * len(tasks)

    def work(i):
        pi, ai, t = tasks[i]
        slots[i] = run_trial(points[pi], algos[ai], t, config.seed,
                             config.success, config.templates,
                             config.timing)

    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(len(tasks))))
    else:
        for i in range(len(tasks)):
            work(i)

    per_trial = config.trials
    records = []
    for pi, point in enumerate(points):
        theory_ok = _theory_flag(point)
        for ai, algo in enumerate(algos):
            start = (pi * len(algos) + ai) * per_trial
            recs = slots[start:start + per_trial]
            successes = sum(r.success for r in recs)
            purity = _agg([r.purity for r in recs])
            entropy = _agg([r.entropy for r in recs])
            loglik = _agg([r.loglik for r in recs])
            wall = _agg([r.wall_ms for r in recs])
            records.append(SweepRecord(
                algo=algo.ident,
                n=point["n"], m=point["m"], k=point["k"],
                q=point["q"], c=point["c"], w_min=point["w_min"],
                delta=point["delta"], epsilon=point["epsilon"],
                trials=config.trials, successes=successes,
                success_rate=successes / config.trials,
                purity_mean=purity[0], purity_std=purity[1],
                entropy_mean=entropy[0], entropy_std=entropy[1],
                loglik_mean=loglik[0], loglik_std=loglik[1],
                theory_ok=theory_ok,
                wall_ms_mean=wall[0],
            ))
    return records


def _fmt9(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".9g")


def _record_cells(r):
    cells = []
    for f in fields(SweepRecord):
        v = getattr(r, f.name)
        if isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(_fmt9(v))
        else:
            cells.append(str(v))
    return cells


def write_csv(records, path):
    """Write the fixed 20-column table; floats at 9 significant digits."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_COLUMNS)
        for r in records:
            out.writerow(_record_cells(r))
    return path


def read_csv(path):
    """Parse a file written by write_csv back into SweepRecords."""
    with open(path, "r", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected CSV header")
    records = []
    for row in rows[1:]:
        kw = {}
        for f, cell in zip(fields(SweepRecord), row):
            if f.type is int:
                kw[f.name] = int(cell)
            elif f.type is float:
                kw[f.name] = float(cell)
            elif f.type is bool:
                kw[f.name] = cell == "true"
            else:
                kw[f.name] = cell
        records.append(SweepRecord(**kw))
    return records


# minimal chart emission: no plotting dependency for static SVG charts

_CHART_W, _CHART_H, _PAD = 480, 320, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _write_chart(path, title, xlabel, ylabel, series, x_range, y_range):
    """Frame plus one polyline and legend entry per (index, algo, points)
    series, points in data units scaled from x_range and y_range."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<text x="{_CHART_W / 2:g}" y="18" text-anchor="middle" '
        f'font-size="13">{title}</text>',
        f'<text x="{_CHART_W / 2:g}" y="{_CHART_H - 8}" text-anchor="middle" '
        f'font-size="11">{xlabel}</text>',
        f'<text x="12" y="{_CHART_H / 2:g}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 12 {_CHART_H / 2:g})">'
        f'{ylabel}</text>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_CHART_W - 2 * _PAD}" '
        f'height="{_CHART_H - 2 * _PAD}" fill="none" stroke="#888888"/>',
    ]
    for ci, algo, pts in series:
        xs = _scale([p[0] for p in pts], *x_range, _PAD, _CHART_W - _PAD)
        ys = _scale([p[1] for p in pts], *y_range, _CHART_H - _PAD, _PAD)
        color = _PALETTE[ci % len(_PALETTE)]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_PAD + 4}" y="{_PAD + 14 + 13 * ci}" '
                     f'font-size="11" fill="{color}">{algo}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _series_by_algo(records):
    series = {}
    for r in records:
        series.setdefault(r.algo, []).append(r)
    return list(series.items())


def write_rate_chart_svg(records, path, x_axis):
    """Success rate against one swept parameter, one polyline per algo."""
    xs_all = sorted({getattr(r, x_axis) for r in records})
    series = []
    for ci, (algo, recs) in enumerate(_series_by_algo(records)):
        recs = sorted(recs, key=lambda r: getattr(r, x_axis))
        series.append((ci, algo, [(getattr(r, x_axis), r.success_rate)
                                  for r in recs]))
    return _write_chart(path, "success rate", x_axis, "success rate", series,
                        (xs_all[0], xs_all[-1]), (0.0, 1.0))


def write_frontier_chart_svg(records, path, x_axis, y_axis, level=0.9):
    """Iso-success frontier: per x, the smallest y reaching the level."""
    xs_all = sorted({getattr(r, x_axis) for r in records})
    ys_all = sorted({getattr(r, y_axis) for r in records})
    series = []
    for ci, (algo, recs) in enumerate(_series_by_algo(records)):
        pts = []
        for x in xs_all:
            hits = [getattr(r, y_axis) for r in recs
                    if getattr(r, x_axis) == x and r.success_rate >= level]
            if hits:
                pts.append((x, min(hits)))
        if pts:
            series.append((ci, algo, pts))
    return _write_chart(path, f"iso-success frontier (rate >= {level:g})",
                        x_axis, y_axis, series,
                        (xs_all[0], xs_all[-1]), (ys_all[0], ys_all[-1]))
