"""Per-layer metrics of a traced run, and computed kernel counts.

Every name in PER_LAYER is reported for every workload; a layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from tracing import children_of, self_time

PER_LAYER = {
    "block.step_us": "us", "block.forward_us": "us", "block.pick_tau_us": "us",
    "block.gradients_us": "us", "block.update_us": "us", "block.iters": "count/round",
    "block.flops_per_iter": "flop", "block.bytes_per_iter": "bytes",
    "block.gflops": "GFLOP/s",
    "search.point_p50_s": "s", "search.point_tail_s": "s", "search.point_tail_pct": "%",
    "search.fold_prep_s": "s", "search.points": "count",
    "search.diverged_points": "count/round", "search.finite_ratio": "ratio",
    "model.train_all_s": "s", "model.resize_hidden_s": "s", "model.probes": "count/round",
    "model.widths_adopted": "count/round", "model.adopt_ratio": "ratio",
    "model.predict_rows_per_s": "rows/s", "model.save_s": "s", "model.load_s": "s",
    "model.file_bytes": "bytes",
    "baselines.optimizer_train_s": "s", "baselines.mcr_fit_s": "s",
    "baselines.ner_fit_s": "s",
    "dataset.load_csv_rows_per_s": "rows/s", "dataset.save_csv_rows_per_s": "rows/s",
    "dataset.standardize_s": "s",
    "metrics.stats_s": "s",
    "cli.import_s": "s", "cli.synth_s": "s", "cli.train_s": "s", "cli.eval_s": "s",
    "cli.compare_s": "s", "cli.stats_s": "s",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


def kernel_counts(m: int, d: int, k: int, depth: int) -> tuple:
    """Computed FLOPs and bytes moved by one backprop iteration.

    Counts every matrix product of the forward and backward pass (2 FLOPs
    per multiply-add; bytes are both operands plus the result, 8 bytes per
    float64), plus the element-wise work: sigmoid (4 FLOPs, one read and one
    write per element), its derivative times the back-propagated error
    (3 FLOPs, three reads and a write), the bias column copies, the three
    shift candidates' residuals and dot products, and the weight update
    (4 FLOPs, two reads and a write per weight).  Cache effects are ignored.
    """
    widths = [d] + [k] * depth
    products = []
    for fan_in, fan_out in zip(widths, widths[1:] + [1]):
        products.append((m, fan_in + 1, fan_out))      # forward
        products.append((fan_in + 1, m, fan_out))      # weight gradient
    for upper in [1] + [k] * (depth - 1):
        products.append((m, upper, k))                 # error to the layer below
    flops = sum(2 * a * b * c for a, b, c in products)
    moved = sum(8 * (a * b + b * c + a * c) for a, b, c in products)
    hidden = m * k * depth
    flops += 4 * hidden + 3 * hidden
    moved += 16 * hidden + 32 * hidden
    moved += 16 * m * sum(w + 1 for w in widths)        # bias-augmented copies
    flops += 3 * 4 * m
    moved += 3 * 24 * m
    weights = sum((a + 1) * b for a, b in zip(widths, widths[1:] + [1]))
    flops += 4 * weights
    moved += 24 * weights
    return flops, moved


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values) -> tuple:
    """Highest percentile with at least ten samples above it, and its value."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(setup_spans, span_rounds, shape, plain_walls, traced_walls,
                  import_s) -> dict:
    """Per-layer values from the set-up spans and the traced rounds' span lists.

    A round's work is fixed by the configuration, but the number of traced
    rounds depends on how many fit in the run, so counts are given per traced
    round.  Only search.points, the sample count of the point latencies, is a
    total over the run.
    """
    spans = setup_spans + [s for rnd in span_rounds for s in rnd]
    kids = children_of(spans)
    n_rounds = len(span_rounds)

    def per_round(count):
        return count / n_rounds if n_rounds else 0.0

    def named(name, parent=None):
        return [s for s in spans if s.name == name
                and (parent is None or (s.parent is not None and s.parent.name == parent))]

    def med(name, parent=None):
        return _median([s.duration for s in named(name, parent)])

    def rate(name):
        hits = [s for s in named(name) if s.info]
        secs = sum(s.duration for s in hits)
        return sum(s.info["rows"] for s in hits) / secs if secs > 0 else 0.0

    def per_round_total(name):
        totals = [sum(s.duration for s in rnd if s.name == name) for rnd in span_rounds]
        return _median([t for t in totals if t > 0])

    out = {}
    step = "block.backprop_step"
    out["block.step_us"] = med(step) * 1e6
    out["block.forward_us"] = med("block._forward_all", step) * 1e6
    out["block.pick_tau_us"] = med("block._pick_tau", step) * 1e6
    out["block.gradients_us"] = med("block.block_gradients", step) * 1e6
    out["block.update_us"] = (out["block.step_us"] - out["block.forward_us"]
                              - out["block.pick_tau_us"] - out["block.gradients_us"])
    out["block.iters"] = per_round(len(named(step)))
    flops, moved = kernel_counts(*shape)
    out["block.flops_per_iter"] = flops
    out["block.bytes_per_iter"] = moved
    out["block.gflops"] = flops / (out["block.step_us"] * 1e3) if out["block.step_us"] else 0.0

    points = named("search.evaluate_point")
    durations = [s.duration for s in points]
    out["search.point_p50_s"] = _median(durations)
    out["search.point_tail_pct"], out["search.point_tail_s"] = _tail(durations)
    out["search.fold_prep_s"] = _median([
        s.duration - sum(c.duration for c in kids.get(id(s), []) if c.name == "block.train")
        for s in points])
    finite = sum(1 for s in points if s.info and s.info["finite"])
    out["search.points"] = len(points)
    out["search.diverged_points"] = per_round(len(points) - finite)
    out["search.finite_ratio"] = finite / len(points) if points else 0.0

    out["model.train_all_s"] = med("model.train_all")
    probes = named("model.resize_hidden")
    adopted = sum(1 for s in probes if s.info and s.info["adopted"])
    out["model.resize_hidden_s"] = _median([s.duration for s in probes])
    out["model.probes"] = per_round(len(probes))
    out["model.widths_adopted"] = per_round(adopted)
    out["model.adopt_ratio"] = adopted / len(probes) if probes else 0.0
    out["model.predict_rows_per_s"] = rate("model.predict")
    out["model.save_s"] = med("model.save")
    out["model.load_s"] = med("model.load")
    out["model.file_bytes"] = _median([s.info["bytes"] for s in named("model.save") if s.info])

    out["baselines.optimizer_train_s"] = med("baselines.optimizer_train")
    out["baselines.mcr_fit_s"] = med("baselines.mcr_fit")
    out["baselines.ner_fit_s"] = med("baselines.normal_equation_fit")

    out["dataset.load_csv_rows_per_s"] = rate("dataset.load_csv")
    out["dataset.save_csv_rows_per_s"] = rate("dataset.save_csv")
    out["dataset.standardize_s"] = med("dataset.standardize")

    pairs = len(named("metrics.pearson"))
    corr = sum(s.duration for s in spans
               if s.name in ("metrics.pearson", "metrics.spearman", "metrics.kendall"))
    out["metrics.stats_s"] = corr / pairs if pairs else 0.0

    out["cli.import_s"] = import_s
    for cmd in ("synth", "train", "eval", "compare", "stats"):
        out[f"cli.{cmd}_s"] = per_round_total(f"cli.cmd_{cmd}")

    plain, traced = _median(plain_walls), _median(traced_walls)
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_ratio"] = (traced - plain) / plain if plain else 0.0
    return out


def self_times(spans) -> dict:
    """Total self time per span name (duration minus time covered by children)."""
    kids = children_of(spans)
    totals = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + self_time(s, kids.get(id(s), []))
    return totals
