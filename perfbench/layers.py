"""Per-layer metrics, computed from a traced run.

Each entry names a metric, its unit, which direction is better, and the
end-to-end metrics (per workload) it is expected to move.  A traced run
emits every entry on every workload; a layer the workload does not reach
reads 0.
"""

FIT_KINDS = ("InsufficientData", "AllClustersStarved", "TooFewClusters")

SWEEP_AND_CLI_A = "sweep: primary_ms, secondary_ms; cli-io: primary_ms"
FIT_LATENCY = "fit-large: primary_ms, secondary_ms"

PER_LAYER = (
    # name, unit, better, should move
    ("sampler.sample_dataset.calls", "count", "lower",
     SWEEP_AND_CLI_A + "; fit-large: setup_s only"),
    ("sampler.sample_dataset.s", "s", "lower",
     SWEEP_AND_CLI_A + "; fit-large: setup_s only"),
    ("sampler.examples_per_s", "1/s", "higher",
     SWEEP_AND_CLI_A + "; fit-large: setup_s only"),
    ("sampler.child_stream.calls", "count", "lower",
     SWEEP_AND_CLI_A + "; fit-large: setup_s only"),
    ("sampler.save_dataset.s", "s", "lower", "cli-io: primary_ms"),
    ("sampler.load_dataset.s", "s", "lower", "cli-io: secondary_ms"),
    ("sampler.load_dataset.rows_per_s", "1/s", "higher", "cli-io: secondary_ms"),
    ("core.as_binary.calls", "count", "lower",
     "fit-large: primary_ms; sweep: primary_ms; cli-io: secondary_ms"),
    ("core.as_binary.s", "s", "lower",
     "fit-large: primary_ms; sweep: primary_ms; cli-io: secondary_ms"),
    ("core.as_binary.bytes_computed", "B", "lower",
     "fit-large: primary_ms; sweep: primary_ms; cli-io: secondary_ms"),
    ("core.l1_cross_matrix.calls", "count", "lower", FIT_LATENCY),
    ("core.l1_cross_matrix.s", "s", "lower", FIT_LATENCY),
    ("core.l1_cross_matrix.bytes_computed", "B", "lower", FIT_LATENCY),
    ("core.l1_cross_matrix.flops_computed", "flop", "lower", FIT_LATENCY),
    ("core.min_pairwise_distance.s", "s", "lower", "fit-large: primary_ms"),
    ("em.two_round_em.calls", "count", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.two_round_em.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.standard_em.calls", "count", "lower", "fit-large: secondary_ms"),
    ("em.standard_em.s", "s", "lower", "fit-large: secondary_ms"),
    ("em.e_step.calls", "count", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.e_step.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.m_step.calls", "count", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.m_step.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.log_likelihood.calls", "count", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.log_likelihood.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.estimate_q0.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.prune_select.s", "s", "lower", FIT_LATENCY + "; sweep: primary_ms"),
    ("em.density_passes_per_fit", "count", "lower", FIT_LATENCY + "; sweep: primary_ms"),
) + tuple(
    (f"em.fit_failures.{kind}", "count", "lower", "none: not part of failed")
    for kind in FIT_KINDS
) + (
    ("metrics.evaluate_fit.calls", "count", "lower", "sweep: primary_ms"),
    ("metrics.evaluate_fit.s", "s", "lower", "sweep: primary_ms"),
    ("metrics.match_templates.s", "s", "lower", "sweep: primary_ms"),
    ("theory.recovery_conditions.calls", "count", "lower", "sweep: primary_ms"),
    ("theory.recovery_conditions.s", "s", "lower", "sweep: primary_ms"),
    ("harness.run_trial.calls", "count", "lower", "sweep: primary_ms"),
    ("harness.run_trial.self_s", "s", "lower", "sweep: primary_ms"),
    ("harness.write_csv.s", "s", "lower", "sweep: primary_ms"),
    ("harness.chart_svg.s", "s", "lower", "sweep: primary_ms"),
    ("harness.worker_busy_frac_2t", "ratio", "higher", "sweep: secondary_ms"),
    ("harness.thread_speedup_2t", "ratio", "higher", "sweep: secondary_ms"),
    ("cli.generate.s", "s", "lower", "cli-io: primary_ms"),
    ("cli.fit.s", "s", "lower", "cli-io: secondary_ms"),
    ("cli.fit.self_s", "s", "lower", "cli-io: secondary_ms"),
    ("cli.nonzero_exits", "count", "lower", "cli-io: primary_ms, secondary_ms"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing itself"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, workload, overhead_frac):
    """Values for every PER_LAYER name from one traced phase."""
    s = tracer.summary()
    sizes = tracer.sizes

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def secs(name, key="s"):
        return s[name][key] if name in s else 0.0

    fits = calls("em.two_round_em") + calls("em.standard_em")
    values = {
        "sampler.examples_per_s": _ratio(sizes["sampler.sample_dataset.rows"],
                                         secs("sampler.sample_dataset")),
        "sampler.load_dataset.rows_per_s": _ratio(sizes["sampler.load_dataset.rows"],
                                                  secs("sampler.load_dataset")),
        "core.as_binary.bytes_computed": sizes["core.as_binary.bytes"],
        "core.l1_cross_matrix.bytes_computed": sizes["core.l1_cross_matrix.bytes"],
        "core.l1_cross_matrix.flops_computed": sizes["core.l1_cross_matrix.flops"],
        "em.prune_select.s": secs("em.prune_by_weight") + secs("em.farthest_first_select"),
        "em.density_passes_per_fit": _ratio(
            calls("em.e_step") + calls("em.log_likelihood"), fits),
        "harness.run_trial.self_s": secs("harness.run_trial", "self_s"),
        "harness.chart_svg.s": secs("harness.write_rate_chart_svg"),
        "cli.fit.self_s": secs("cli.fit", "self_s"),
        "cli.nonzero_exits": getattr(workload, "nonzero_exits", 0),
        "trace.overhead_frac": overhead_frac,
    }
    for kind in FIT_KINDS:
        values[f"em.fit_failures.{kind}"] = sum(
            s[name]["errors"][kind] for name in ("em.two_round_em", "em.standard_em")
            if name in s)
    values["harness.worker_busy_frac_2t"] = values["harness.thread_speedup_2t"] = 0.0
    windows = getattr(workload, "windows", {})
    if 1 in windows and 2 in windows:
        start, end = windows[2]
        wall_1t = windows[1][1] - windows[1][0]
        values["harness.worker_busy_frac_2t"] = _ratio(
            tracer.busy_s("harness.run_trial", start, end), 2 * (end - start))
        values["harness.thread_speedup_2t"] = _ratio(wall_1t, end - start)
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name not in values:
            span, _, field = name.rpartition(".")
            values[name] = calls(span) if field == "calls" else secs(span)
        out[name] = {"value": values[name], "unit": unit}
    return out
