"""Spans and counters recorded around the program's layer boundaries.

Nothing under src/ is edited: a span is recorded by replacing a module
attribute at the place it is called from (a function imported by name
into `harness` is wrapped in `harness`, a module-global call inside
`federation` is wrapped in `federation`) and restoring it afterwards.
Every span carries the repo module whose code it times as its layer.
"""
import gzip
import inspect
import time
from collections import defaultdict

from fedthresh import autoencoder, data, federation, harness, thresholds
from fedthresh.thresholds import METHOD_TAGS

LAYERS = ("data", "autoencoder", "federation", "error_stats", "metrics",
          "thresholds", "harness")
# "report" is left out: sweep_corruption writes its CSV outside any
# stage, so that time would read 0 on every threshold_sweep run
STAGES = ("load", "split", "scale", "partition", "corrupt", "train",
          "threshold", "evaluate")
CHANNEL_CONTEXTS = ("fedavg",) + METHOD_TAGS
# per-layer counts that must repeat exactly from one operation to the next
EXACT_COUNTS = ("autoencoder.steps", "autoencoder.train_local_calls",
                "federation.round_log_evals", "data.kmeans_calls",
                "metrics.f1_curve_calls",
                "metrics.f1_curve_rows_sorted", "error_stats.summarize_calls",
                "trace.spans")

# (module whose attribute is replaced, attribute, layer, span name);
# "{}" in a name is filled with the call's first argument.
BOUNDARIES = (
    (harness, "_stage", "harness", "harness.stage.{}"),
    (harness, "_compute_method", "harness", "harness.method.{}"),
    (harness, "_evaluate", "harness", "harness.evaluate"),
    (harness, "run_fedavg", "federation", "federation.run_fedavg"),
    (harness, "load_csv", "data", "data.load"),
    (harness, "synth", "data", "data.load"),
    (harness, "synth_blobs", "data", "data.load"),
    (harness, "split", "data", "data.split"),
    (harness, "fit_scaler", "data", "data.scale"),
    (harness, "apply_scaler", "data", "data.scale"),
    (harness, "partition_even", "data", "data.partition"),
    (harness, "partition_noniid", "data", "data.partition"),
    (harness, "partition_random", "data", "data.partition"),
    (harness, "corrupt", "data", "data.corrupt"),
    (data, "kmeans", "data", "data.kmeans"),
    (harness, "mse_per_sample", "autoencoder", "autoencoder.mse_per_sample"),
    (federation, "train_local", "autoencoder", "autoencoder.train_local"),
    (federation, "mse_per_sample", "federation", "federation.round_log_eval"),
    (federation, "average_params", "federation", "federation.average"),
    (autoencoder, "_loss_and_grads", "autoencoder", "autoencoder.step"),
    (harness, "f1_curve", "metrics", "metrics.f1_curve"),
    (thresholds, "f1_curve", "metrics", "metrics.f1_curve"),
    (thresholds, "aggregate_f1", "metrics", "metrics.aggregate_f1"),
    (harness, "confusion", "metrics", "metrics.confusion"),
    (harness, "summarize", "error_stats", "error_stats.summarize"),
    (thresholds, "aggregate", "error_stats", "error_stats.aggregate"),
    (thresholds, "overlap_region", "error_stats", "error_stats.overlap"),
    (thresholds, "generate_candidates", "error_stats", "error_stats.candidates"),
    (harness, "our_method", "thresholds", "thresholds.our_method"),
    (harness, "fed_minmax", "thresholds", "thresholds.fed_minmax"),
    (harness, "fed_mse_std", "thresholds", "thresholds.fed_mse_std"),
    (harness, "fed_filtered", "thresholds", "thresholds.fed_filtered"),
    (harness, "local_minmax", "thresholds", "thresholds.local_minmax"),
    (harness, "local_simple", "thresholds", "thresholds.local_simple"),
    (harness, "kqe", "thresholds", "thresholds.kqe"),
    (harness, "pot", "thresholds", "thresholds.pot"),
    (harness, "classify", "thresholds", "thresholds.classify"),
)

# Span fields, in order: name, layer, start, end, parent index, rows (the
# error-vector length handed to f1_curve, else 0).
NAME, LAYER, START, END, PARENT, ROWS = range(6)


class Tracer:
    """Keeps spans in memory; `install` wraps every boundary, `restore`
    puts the original attributes back."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []

    def _wrap(self, fn, layer, name):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        templated = "{}" in name
        counts_rows = name == "metrics.f1_curve"

        def traced(*args, **kwargs):
            span = [name.format(args[0]) if templated else name, layer, 0.0,
                    0.0, open_[-1] if open_ else -1,
                    len(args[0]) if counts_rows else 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
        return traced

    def install(self):
        for module, attr, layer, name in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, name))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_root(self, fn, *args):
        """Call fn under a root span (layer harness); returns (result,
        index of the root span)."""
        root = len(self.spans)
        result = self._wrap(fn, "harness", "op")(*args)
        return result, root

    def write(self, path):
        """All spans as gzip CSV, times in microseconds from the first."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_us,end_us,parent,rows\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[LAYER]},"
                         f"{(s[START] - origin) * 1e6:.1f},"
                         f"{(s[END] - origin) * 1e6:.1f},{s[PARENT]},"
                         f"{s[ROWS]}\n")


def op_layers(spans, root):
    """Per-layer metrics of one traced operation, from spans[root:]."""
    ops = spans[root:]
    child_time = defaultdict(float)
    for s in ops:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    total, self_time, calls = (defaultdict(float), defaultdict(float),
                               defaultdict(int))
    layer_self = defaultdict(float)
    rows_sorted = val_errors = 0.0
    for i, s in enumerate(ops, start=root):
        took = s[END] - s[START]
        own = took - child_time[i]
        total[s[NAME]] += took
        self_time[s[NAME]] += own
        calls[s[NAME]] += 1
        layer_self[s[LAYER]] += own
        rows_sorted += s[ROWS]
        if s[NAME] == "autoencoder.mse_per_sample" and \
                spans[s[PARENT]][NAME] == "harness.stage.threshold":
            val_errors += took
    op_s = ops[0][END] - ops[0][START]
    staged = sum(s[END] - s[START] for s in ops
                 if s[PARENT] == root and s[NAME].startswith("harness.stage."))
    m = {
        "autoencoder.step_s": total["autoencoder.step"],
        "autoencoder.steps": calls["autoencoder.step"],
        "autoencoder.update_s": self_time["autoencoder.train_local"],
        "autoencoder.train_local_s": total["autoencoder.train_local"],
        "autoencoder.train_local_calls": calls["autoencoder.train_local"],
        "federation.run_fedavg_s": total["federation.run_fedavg"],
        "federation.average_s": total["federation.average"],
        # a time of its own would read 0 on every sweep (no round log),
        # so the round-log forward pass is timed in self_s and counted
        # here; the count is exact and reads 0 on a sweep
        "federation.round_log_evals": calls["federation.round_log_eval"],
        "federation.self_s": self_time["federation.run_fedavg"] +
        total["federation.round_log_eval"],
        "data.load_s": total["data.load"],
        "data.split_s": total["data.split"],
        "data.scale_s": total["data.scale"],
        "data.partition_s": total["data.partition"],
        # kmeans runs on noniid_csv alone; its time is partition_s minus
        # partition_self_s, which stay non-zero on every workload
        "data.partition_self_s": self_time["data.partition"],
        "data.kmeans_calls": calls["data.kmeans"],
        "metrics.f1_curve_s": total["metrics.f1_curve"],
        "metrics.f1_curve_calls": calls["metrics.f1_curve"],
        "metrics.f1_curve_rows_sorted": int(rows_sorted),
        "error_stats.summarize_s": total["error_stats.summarize"],
        "error_stats.summarize_calls": calls["error_stats.summarize"],
        "thresholds.kqe_s": total["thresholds.kqe"],
        "thresholds.pot_s": total["thresholds.pot"],
        "harness.val_errors_s": val_errors,
        "harness.evaluate_s": total["harness.evaluate"],
        "trace.uncovered_share": (op_s - staged) / op_s,
        "trace.spans": len(ops),
    }
    for tag in METHOD_TAGS:
        m[f"harness.method.{tag}_s"] = total[f"harness.method.{tag}"]
    for stage in STAGES:
        m[f"harness.stage.{stage}_s"] = total[f"harness.stage.{stage}"]
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
        m[f"{layer}.layer_share"] = layer_self[layer] / op_s
    return m


class Probe:
    """Times the train stage and keeps the clients and channel it was
    handed. Installed for every operation, traced or not: one wrapper call
    per training run."""

    def __init__(self):
        self._original = harness._train
        self._signature = inspect.signature(self._original)
        self.reset()

    def reset(self):
        self.train_s = 0.0
        self.train_samples = 0
        self.clients = None
        self.channel = None

    def install(self):
        original, signature = self._original, self._signature

        def probed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.train_s += time.perf_counter() - started
                cfg, clients = bound["cfg"], bound["clients"]
                self.clients, self.channel = clients, bound["channel"]
                self.train_samples += cfg.rounds * cfg.local_epochs * sum(
                    c.train_data.shape[0] for c in clients)
        harness._train = probed

    def restore(self):
        harness._train = self._original

    def counters(self):
        """Exact counts: channel traffic per context, client size skew."""
        m = {}
        for ctx in CHANNEL_CONTEXTS:
            sent = [msg.size for msg in self.channel.messages
                    if msg.context == ctx]
            m[f"federation.messages.{ctx}"] = len(sent)
            m[f"federation.payload_units.{ctx}"] = sum(sent)
        rows = [c.train_data.shape[0] for c in self.clients]
        m["data.client_rows_max_over_min"] = max(rows) / min(rows)
        return m
