"""The benchmark's three workloads, driven through btem's public API.

Each workload has two operations, A and B, and runs them closed-loop
from one process, one step at a time:

  sweep      A = the criterion-8 sweep at 1 thread, B = the same at 2
             threads; each sample is wall ms per trial of one pass.
  fit-large  A = one two_round_em fit, B = one standard_em fit; each
             sample is the ms of one fit call.
  cli-io     A = one in-process `btem generate`, B = one `btem fit` on
             its output; each sample is the ms of one call.

A workload counts every operation it attempts and every one that fails:
an undocumented exception, a non-zero exit or a failed correctness check.
"""

import contextlib
import csv
import io
import json
import math
import time

import numpy as np

from btem import cli, em, harness, metrics, sampler
from btem.errors import AllClustersStarved, InsufficientData, TooFewClusters

DOCUMENTED_FIT_ERRORS = (InsufficientData, AllClustersStarved, TooFewClusters)


class Workload:
    name = ""
    min_steps = 1  # untimed runs never stop before this many steps
    trace_steps = 1  # steps in the traced phase: a fixed count, so counts repeat

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, ops, message):
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def setup(self):
        """Build the inputs; timed as part of setup_s."""

    def step(self, i):
        """Run step i; return a list of (operation, seconds) samples."""
        raise NotImplementedError

    def quality(self):
        """A rate in (0, 1] that a correct program keeps steady."""
        raise NotImplementedError

    def named(self, samples):
        """Metrics under their descriptive names, with units."""
        return {}


def percentile(values, q):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it."""
    values = sorted(values)
    rank = max(1, math.ceil(q * len(values) - 1e-9))
    if len(values) - rank < 10:
        return None
    return values[rank - 1]


def _remove(*paths):
    """Delete last step's outputs first: on ext4, truncating a file just
    written flushes it to disk, which would time the disk, not btem."""
    for path in paths:
        path.unlink(missing_ok=True)


def criterion_8_holds(records):
    """The frozen criterion-8 rule: rate 1.0 at the largest m, and no
    drop between neighbouring grid points beyond three pooled sigmas."""
    for a, b in zip(records, records[1:]):
        pool = (a.successes + b.successes) / (a.trials + b.trials)
        sigma = math.sqrt(pool * (1.0 - pool) * (1 / a.trials + 1 / b.trials))
        if b.success_rate < a.success_rate - 3.0 * sigma:
            return False
    return records[-1].success_rate == 1.0


class Sweep(Workload):
    """The criterion-8 sample-complexity sweep, run the way `btem sweep`
    runs it: sweep_grid, then write_csv, then write_rate_chart_svg.

    The grid keeps criterion 8's master seed 42, because the rule it is
    checked against (rate 1.0 at m=300) is a statement about that seed.
    """

    name = "sweep"
    min_steps = 4  # two passes at each thread count
    trace_steps = 2

    def setup(self):
        grid = [100, 200, 300] if self.tiny else list(range(20, 301, 20))
        doc = {
            "grid": {"m": grid},
            "fixed": {"n": 1458, "k": 2, "q": 0.1, "c": 0.1, "w_min": 0.4},
            "trials": 4 if self.tiny else 100,
            "seed": 42,
        }
        path = self.workdir / "sweep.json"
        path.write_text(json.dumps(doc))
        self.config = harness.parse_config(str(path))
        self.trials = len(grid) * self.config.trials
        self.reference_csv = None
        self.rates = []
        self.windows = {}  # threads -> (start, end) of the latest pass

    def step(self, i):
        threads = 1 if i % 2 == 0 else 2
        out = self.workdir / f"sweep-{threads}t"
        out.mkdir(exist_ok=True)
        csv_path, svg_path = out / "results.csv", out / "rate_vs_m.svg"
        _remove(csv_path, svg_path)
        t0 = time.perf_counter()
        try:
            records = harness.sweep_grid(self.config, threads=threads)
            harness.write_csv(records, str(csv_path))
            harness.write_rate_chart_svg(records, str(svg_path), "m")
        except Exception as exc:  # undocumented: every trial of the pass fails
            self.attempted += self.trials
            self.fail(self.trials, f"sweep pass {i} raised {exc!r}")
            return []
        t1 = time.perf_counter()
        self.windows[threads] = (t0, t1)
        self.attempted += self.trials
        self.rates.append(sum(r.success_rate for r in records) / len(records))
        self._check(i, records, csv_path.read_bytes())
        return [("A" if threads == 1 else "B", (t1 - t0) / self.trials)]

    def _check(self, i, records, blob):
        rows = list(csv.reader(io.StringIO(blob.decode("ascii"))))
        points = len(self.config.points())
        if len(rows) != points + 1 or any(len(row) != 20 for row in rows):
            self.fail(self.trials, f"sweep pass {i}: CSV is not {points} rows of 20 columns")
        elif not criterion_8_holds(records):
            rates = [r.success_rate for r in records]
            self.fail(self.trials, f"sweep pass {i}: criterion 8 fails, rates {rates}")
        elif self.reference_csv is None:
            self.reference_csv = blob
        elif blob != self.reference_csv:
            self.fail(self.trials, f"sweep pass {i}: results.csv differs between passes")

    def quality(self):
        return float(np.median(self.rates)) if self.rates else math.nan

    def named(self, samples):
        def per_s(op):
            return 1.0 / np.median(samples[op]) if samples[op] else None
        return {
            "sweep_trials_per_s": (per_s("A"), "1/s"),
            "sweep_trials_per_s_2t": (per_s("B"), "1/s"),
            "sweep_success_rate": (self.quality(), "ratio"),
        }


class FitLarge(Workload):
    """Wide data: two_round_em and standard_em on n=8192, m=1000, k=4.

    Datasets are sampled in set-up, so the timed loop holds only the fit
    calls; the checks after each call are not timed.
    """

    name = "fit-large"
    min_steps = 100  # 100 samples per fit kind, so p90 has ten beyond it
    trace_steps = 20
    k, q, c, w_min, delta = 4, 0.1, 0.3, 0.25, 0.1
    datasets = 4

    def setup(self):
        n, m = (1024, 400) if self.tiny else (8192, 1000)
        weights = sampler.mixture_weights(self.k, self.w_min)
        self.data = []
        for d in range(self.datasets):
            T = sampler.make_random_templates(
                n, self.k, self.c, np.random.SeedSequence([self.seed, 0, d]))
            model = sampler.MixtureModel(T, weights, self.q)
            dataset = sampler.sample_dataset(
                model, m, np.random.SeedSequence([self.seed, 1, d]))
            self.data.append((model, dataset))
        self.exact = []
        if self.tiny:
            self.min_steps = 3
            self.trace_steps = 2

    def _fit(self, op, examples, seed):
        if op == "A":
            return em.two_round_em(examples, self.k, self.w_min, self.delta, seed=seed)
        return em.standard_em(examples, self.k, q_known=self.q, iterations=10,
                              restarts=1, seed=seed)

    def step(self, i):
        model, dataset = self.data[i % len(self.data)]
        samples = []
        for op, key in (("A", 2), ("B", 3)):
            self.attempted += 1
            seed = np.random.SeedSequence([self.seed, key, i])
            t0 = time.perf_counter()
            try:
                fit = self._fit(op, dataset.examples, seed)
            except DOCUMENTED_FIT_ERRORS as exc:
                if op == "A":  # a two-round fit that fails cannot recover
                    self.exact.append(False)
                    self.fail(1, f"fit {i}: two_round_em raised {exc!r}")
                continue
            except Exception as exc:
                self.fail(1, f"fit {i} ({op}) raised {exc!r}")
                continue
            samples.append((op, time.perf_counter() - t0))
            self._check(i, op, dataset, model, fit)
        return samples

    def _check(self, i, op, dataset, model, fit):
        if (abs(float(np.sum(fit.weights)) - 1.0) > 1e-9
                or not math.isfinite(fit.diagnostics.log_likelihood)):
            self.fail(1, f"fit {i} ({op}): weights do not sum to 1 "
                         f"or log-likelihood not finite")
            return
        if op == "A":
            exact = metrics.evaluate_fit(dataset, model, fit).exact_recovery
            self.exact.append(exact)
            if not exact:
                self.fail(1, f"fit {i}: two_round_em did not recover exactly")

    def quality(self):
        return sum(self.exact) / len(self.exact) if self.exact else math.nan

    def named(self, samples):
        out = {}
        for op, label in (("A", "two_round"), ("B", "standard")):
            ms = [s * 1e3 for s in samples[op]]
            out[f"{label}_ms_p50"] = (float(np.median(ms)) if ms else None, "ms")
            out[f"{label}_ms_p90"] = (percentile(ms, 0.9), "ms")
            out[f"{label}_samples"] = (len(ms), "count")
        out["two_round_exact_rate"] = (self.quality(), "ratio")
        return out


class CliIo(Workload):
    """Tall, thin data through the CLI entry point, in-process: `btem
    generate` writes a dataset file and `btem fit` reads it back."""

    name = "cli-io"
    min_steps = 3
    trace_steps = 4
    q, c, generate_seeds = 0.1, 0.5, 2

    def setup(self):
        self.n, self.m = (128, 1000) if self.tiny else (512, 20000)
        self.data_path = self.workdir / "data.txt"
        self.fit_path = self.workdir / "fit.json"
        self.templates = sampler.make_line_templates(self.n, self.c)
        model = sampler.MixtureModel(self.templates, sampler.mixture_weights(2, 0.5),
                                     self.q)
        # What `btem generate --seed s` draws: sample_dataset keyed at
        # SeedSequence(entropy=s, spawn_key=(0,)).
        self.references = {}
        for g in range(self.generate_seeds):
            s = self.seed * self.generate_seeds + g
            self.references[s] = sampler.sample_dataset(
                model, self.m, np.random.SeedSequence(entropy=s, spawn_key=(0,)))
        self.exact = []
        self.nonzero_exits = 0

    def _call(self, argv):
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            self.nonzero_exits += 1
            self.fail(1, f"btem {argv[0]} exited {code}")
        return code, elapsed

    def step(self, i):
        gen_seed = sorted(self.references)[i % len(self.references)]
        _remove(self.data_path, self.fit_path)
        code, gen_s = self._call([
            "generate", "--n", str(self.n), "--m", str(self.m), "--q", str(self.q),
            "--c", str(self.c), "--seed", str(gen_seed), "--out", str(self.data_path)])
        if code != 0:
            return []
        ref = self.references[gen_seed]
        try:
            back = sampler.load_dataset(str(self.data_path))
        except ValueError as exc:
            self.fail(1, f"step {i}: generated file does not load: {exc}")
            return [("A", gen_s)]
        if not (np.array_equal(back.examples, ref.examples)
                and np.array_equal(back.labels, ref.labels)):
            self.fail(1, f"step {i}: reloaded examples differ from the generated ones")
        code, fit_s = self._call([
            "fit", "--data", str(self.data_path), "--k", "2", "--seed", str(i),
            "--out", str(self.fit_path)])
        if code != 0:
            return [("A", gen_s)]
        try:
            doc = json.loads(self.fit_path.read_text())
            found = sorted(
                np.unpackbits(np.frombuffer(bytes.fromhex(h), dtype=np.uint8),
                              bitorder="little")[:self.n].tobytes()
                for h in doc["templates_hex"])
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(1, f"step {i}: fit JSON unreadable: {exc!r}")
            return [("A", gen_s)]
        self.exact.append(found == sorted(t.tobytes() for t in self.templates))
        return [("A", gen_s), ("B", fit_s)]

    def quality(self):
        return sum(self.exact) / len(self.exact) if self.exact else math.nan

    def named(self, samples):
        def med(op):
            return float(np.median(samples[op])) if samples[op] else None
        return {"generate_s": (med("A"), "s"), "fit_cli_s": (med("B"), "s")}


WORKLOADS = {cls.name: cls for cls in (Sweep, FitLarge, CliIo)}
