"""Command-line interface.

Subcommands: generate, fit, sweep, theory, render, metrics.
Exit codes: 0 ok, 2 configuration error, 3 data error, 4 internal failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import harness, metrics, sketch
from .core import pack_rows
from .em import standard_em, two_round_em
from .errors import (
    AllClustersStarved,
    ConfigError,
    DimensionError,
    InsufficientData,
    InsufficientInput,
    ParameterError,
    SeparationUnachievable,
    TooFewClusters,
)
from .sampler import (
    MixtureModel,
    load_dataset,
    make_line_templates,
    make_random_templates,
    mixture_weights,
    sample_dataset,
    save_dataset,
)
from .theory import TheoryParams, recovery_conditions, technical_conditions


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="btem",
        description="Two-round EM for mixtures of noisy binary templates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a dataset to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--w-min", type=float, default=0.5)
    p.add_argument("--templates", choices=("line", "random"), default="line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit templates to a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--algo", choices=("two-round", "standard"),
                   default="two-round")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w-min", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--q-known", type=float, default=None,
                   help="noise level for --algo standard")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic-prune", action="store_true")
    p.add_argument("--round1-binarize", action="store_true")
    p.add_argument("--out", default=None, help="write the JSON here")

    p = sub.add_parser("sweep", help="run a Monte Carlo grid sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("theory", help="evaluate the guarantee conditions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--w-min", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.1)

    p = sub.add_parser("render", help="render a template as an SVG sketch")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--hex", help="hex-packed bits, little-endian in bytes")
    src.add_argument("--data", help="dataset file to take a row from")
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--grid", type=int, default=9)
    p.add_argument("--alphabet", type=int, default=18)
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="purity/entropy of two label files")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    return parser


def _emit(doc, out=None):
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_generate(args):
    if args.templates == "random":
        T = make_random_templates(args.n, args.k, args.c, args.seed)
    else:
        if args.k != 2:
            raise ParameterError("line templates need --k 2")
        T = make_line_templates(args.n, args.c)
    model = MixtureModel(T, mixture_weights(args.k, args.w_min), args.q)
    dataset = sample_dataset(model, args.m, seed=np.random.SeedSequence(
        entropy=args.seed, spawn_key=(0,)))
    save_dataset(dataset, args.out)
    print(f"wrote {args.m} examples of dim {args.n} to {args.out}")
    return 0


def _cmd_fit(args):
    dataset = load_dataset(args.data)
    if args.algo == "two-round":
        fit = two_round_em(dataset.examples, args.k, args.w_min, args.delta,
                           seed=args.seed, rounds=args.rounds,
                           round1_binarize=args.round1_binarize,
                           deterministic_prune=args.deterministic_prune)
    else:
        if args.q_known is None:
            raise ParameterError("--algo standard needs --q-known")
        fit = standard_em(dataset.examples, args.k, args.q_known,
                          args.iterations, args.restarts, seed=args.seed)
    hard = np.argmax(fit.assignment.posteriors, axis=1)
    diag = fit.diagnostics
    _emit({
        "algo": args.algo,
        "k": fit.k,
        "q0": fit.q0,
        "weights": [float(w) for w in fit.weights],
        "templates_hex": [row.tobytes().hex() for row in pack_rows(fit.templates)],
        "log_likelihood": diag.log_likelihood,
        "purity_vs_file_labels": metrics.conditional_purity(dataset.labels, hard),
        "entropy_vs_file_labels": metrics.conditional_entropy(dataset.labels, hard),
        "diagnostics": {
            "q0_clamped": diag.q0_clamped,
            "init_count": None if diag.init_indices is None
                          else int(len(diag.init_indices)),
            "survivors": None if diag.survivor_indices is None
                         else [int(i) for i in diag.survivor_indices],
            "selection_order": diag.selection_order,
            "iterations": diag.iterations,
            "restart_index": diag.restart_index,
            "wall_time_s": diag.wall_time_s,
        },
    }, args.out)
    return 0


def _cmd_sweep(args):
    config = harness.parse_config(args.config)
    try:
        threads = int(os.environ.get("BTEM_THREADS", args.threads))
    except ValueError:
        raise ConfigError("BTEM_THREADS must be an integer") from None
    os.makedirs(args.out, exist_ok=True)
    records = harness.sweep_grid(config, threads=max(1, threads))
    csv_path = os.path.join(args.out, "results.csv")
    harness.write_csv(records, csv_path)
    written = [csv_path]
    axes = [name for name, _ in config.grid]
    if len(axes) == 1:
        chart = os.path.join(args.out, f"rate_vs_{axes[0]}.svg")
        harness.write_rate_chart_svg(records, chart, axes[0])
        written.append(chart)
    elif len(axes) == 2:
        chart = os.path.join(args.out, f"frontier_{axes[0]}_{axes[1]}.svg")
        harness.write_frontier_chart_svg(records, chart, axes[0], axes[1])
        written.append(chart)
    print(f"{len(records)} records; wrote " + ", ".join(written))
    return 0


def _cmd_theory(args):
    params = TheoryParams(n=args.n, m=args.m, k=args.k, q=args.q, c=args.c,
                          w_min=args.w_min, delta=args.delta,
                          epsilon=args.epsilon)
    _emit({
        "params": {name: getattr(params, name)
                   for name in ("n", "m", "k", "q", "c", "w_min",
                                "delta", "epsilon")},
        "recovery": recovery_conditions(params).as_dict(),
        "technical": technical_conditions(params).as_dict(),
    })
    return 0


def _cmd_render(args):
    n = args.grid * args.grid * args.alphabet
    if args.hex is not None:
        raw = bytes.fromhex(args.hex)
        if len(raw) != (n + 7) // 8:
            raise DimensionError(
                f"hex template holds {len(raw)} bytes, expected {(n + 7) // 8}")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")[:n]
    else:
        dataset = load_dataset(args.data)
        if not 0 <= args.row < dataset.m:
            raise ValueError(f"row {args.row} outside dataset of {dataset.m}")
        bits = dataset.examples[args.row]
    sketch.render_sketch_svg(bits, args.grid, args.alphabet, args.out)
    print(f"wrote {args.out}")
    return 0


def _read_labels(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            return [int(line) for line in fh.read().split()]
        except ValueError as exc:
            raise ValueError(f"{path}: labels must be integers") from exc


def _cmd_metrics(args):
    pred = _read_labels(args.pred)
    truth = _read_labels(args.truth)
    h = metrics.conditional_entropy(truth, pred)
    _emit({
        "purity": metrics.conditional_purity(truth, pred),
        "entropy_nats": h,
        "entropy_bits": h / math.log(2.0),
    })
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "theory": _cmd_theory,
    "render": _cmd_render,
    "metrics": _cmd_metrics,
}

_DATA_ERRORS = (OSError, ValueError, DimensionError, InsufficientData,
                InsufficientInput)
_CONFIG_ERRORS = (ConfigError, ParameterError, SeparationUnachievable)
_RUN_ERRORS = (AllClustersStarved, TooFewClusters)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _RUN_ERRORS as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
