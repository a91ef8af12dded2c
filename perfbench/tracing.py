"""Spans and counts recorded from outside the package under test.

`install` replaces public functions of the heis modules with timed wrappers,
in every module namespace that binds them (``from .sde import levy_area``
makes heis.girsanov.levy_area a binding of its own). Spans are kept in memory
as [name, start, end, parent] and written out by the caller when the command
ends. `layer_metrics` reduces one command's spans and counts to the
per-layer metrics; a layer's self time is its span time minus the time its
child spans cover.
"""

import os
import sys
import time
from collections import Counter

# The span names of the layers, mapped to their self-time metric.
SELF_TIME = {
    "rng.generator": "rng.generator.s",
    "sde.trial_source": "sde.trial_source.s",
    "sde.levy_area": "sde.levy_area.s",
    "girsanov.tube_deviation": "girsanov.tube_deviation.s",
    "group.group_distance_array": "group.group_distance_array.s",
    "girsanov.time_change_diagnostics": "girsanov.time_change_diagnostics.s",
    "results.stats": "results.stats.s",
    "cli.io": "cli.io.s",
}


# Every per-layer metric of a traced run, with its unit.
UNITS = {
    "rng.generator.calls": "count", "rng.generator.s": "s",
    "sde.trial_source.paths": "count", "sde.trial_source.s": "s",
    "sde.trial_source.ns_per_step": "ns", "sde.trial_source.chunk_mb": "MB",
    "sde.levy_area.rows": "count", "sde.levy_area.s": "s",
    "girsanov.tube_deviation.rows": "count", "girsanov.tube_deviation.s": "s",
    "girsanov.scans": "count", "girsanov.rescanned_paths": "count",
    "girsanov.distance_to_curve.rows": "count", "girsanov.distance_rows_per_path": "ratio",
    "group.group_distance_array.elements": "count", "group.group_distance_array.s": "s",
    "girsanov.time_change_diagnostics.s": "s",
    "results.stats.calls": "count", "results.stats.s": "s",
    "cli.io.s": "s", "cli.csv_bytes": "bytes",
    "setup.import.heis_results_s": "s", "setup.import.heis_cli_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "machine.kernel_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1

    def close(self):
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1

    def inside(self, name):
        return self._open[name] > 0

    def wrap(self, name, fn, counter=None):
        """Time calls of fn as span `name`; a call made while a span of the
        same name is open (levy_area calling area_increments) is not a new
        span and is not counted again."""
        def wrapper(*args, **kwargs):
            if self.inside(name):
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                counter(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, name, iterable, counter=None):
        """Time each step of an iterator as a span, so the work a generator
        does on demand is charged to it and not to its consumer."""
        it = iter(iterable)
        while True:
            self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close()
            if counter is not None:
                counter(item)
            yield item


def _rebind(original, replacement):
    """Replace `original` in every loaded heis module that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "heis" or mod_name.startswith("heis."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the layer boundaries of an imported heis package."""
    import heis.cli
    import heis.girsanov
    import heis.group
    import heis.results
    import heis.rng
    import heis.sde

    c = tracer.counts

    gen = heis.rng.RngSpec.generator
    def count_generator(args, result):
        c["rng.generator.calls"] += 1
    heis.rng.RngSpec.generator = tracer.wrap("rng.generator", gen, count_generator)

    chunks = heis.sde._trial_chunks
    def count_chunk(item):
        paths = item[1]
        c["sde.trial_source.paths"] += paths.shape[0]
        c["sde.trial_source.steps"] += paths.shape[0] * (paths.shape[1] - 1)
        c["sde.trial_source.chunk_bytes"] = max(c["sde.trial_source.chunk_bytes"], paths.nbytes)
        if tracer.inside("girsanov.scan"):
            c["girsanov.scan_paths"] += paths.shape[0]
    def trial_chunks(*args, **kwargs):
        return tracer.timed_iter("sde.trial_source", chunks(*args, **kwargs), count_chunk)
    _rebind(chunks, trial_chunks)

    def count_rows(metric):
        def counter(args, result):
            c[metric] += args[0].shape[0] if args[0].ndim > 2 else 1
        return counter
    for fn in (heis.sde.levy_area, heis.sde.area_increments):
        _rebind(fn, tracer.wrap("sde.levy_area", fn, count_rows("sde.levy_area.rows")))

    fn = heis.girsanov.tube_deviation
    def count_dev(args, result):
        c["girsanov.tube_deviation.rows"] += args[1].shape[0] if args[1].ndim > 2 else 1
    _rebind(fn, tracer.wrap("girsanov.tube_deviation", fn, count_dev))

    fn = heis.girsanov._tube_scan
    def count_scan(args, result):
        c["girsanov.scans"] += 1
    _rebind(fn, tracer.wrap("girsanov.scan", fn, count_scan))

    fn = heis.girsanov.distance_to_curve
    def count_dist(args, result):
        c["girsanov.distance_to_curve.rows"] += args[1].shape[0] if args[1].ndim > 2 else 1
    _rebind(fn, tracer.wrap("girsanov.distance_to_curve", fn, count_dist))

    fn = heis.group.group_distance_array
    def count_elements(args, result):
        c["group.group_distance_array.elements"] += result.size
    _rebind(fn, tracer.wrap("group.group_distance_array", fn, count_elements))

    fn = heis.girsanov.time_change_diagnostics
    def diagnostics(samples, times):
        return inner(tracer.timed_iter("girsanov.dds_samples", samples), times)
    inner = tracer.wrap("girsanov.time_change_diagnostics", fn)
    _rebind(fn, diagnostics)

    def count_stats(args, result):
        c["results.stats.calls"] += 1
    for name in ("mean_and_stderr", "variance_and_stderr", "binomial_stderr",
                 "wilson_center", "clopper_pearson_lower"):
        fn = getattr(heis.results, name)
        _rebind(fn, tracer.wrap("results.stats", fn, count_stats))

    fn = heis.cli._finish
    def finish(out, experiment, *args, **kwargs):
        try:
            return io(out, experiment, *args, **kwargs)
        finally:
            c["cli.csv_bytes"] = os.path.getsize(os.path.join(out, f"{experiment}.csv"))
    io = tracer.wrap("cli.io", fn)
    heis.cli._finish = finish


def self_times(spans):
    """Sum of (duration - time covered by direct children) per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for (name, start, end, parent), covered in zip(spans, child):
        out[name] += end - start - covered
    return out


def layer_metrics(spans, counts, trials_in_table):
    """The per-layer metrics of one traced command."""
    own = self_times(spans)
    counts = Counter(counts)
    m = {metric: float(own[name]) for name, metric in SELF_TIME.items()}
    # The command's time outside every named layer: its own Python, and the
    # self time of the scan, distance and sample-producer spans.
    command = sum(end - start for name, start, end, parent in spans if name == "cli.command")
    m["trace.unattributed_s"] = command - sum(m.values())
    paths = counts["sde.trial_source.paths"]
    steps = counts["sde.trial_source.steps"]
    m["sde.trial_source.ns_per_step"] = 1e9 * own["sde.trial_source"] / steps if steps else 0.0
    m["sde.trial_source.chunk_mb"] = counts["sde.trial_source.chunk_bytes"] / 1e6
    m["girsanov.rescanned_paths"] = (counts["girsanov.scan_paths"] - trials_in_table
                                     if counts["girsanov.scans"] else 0)
    m["girsanov.distance_rows_per_path"] = (
        counts["girsanov.distance_to_curve.rows"] / paths if paths else 0.0)
    for name, unit in UNITS.items():
        if unit in ("count", "bytes") and name not in m:
            m[name] = counts[name]
    return m
