"""One benchmark run: set-up, the timed closed loop, checks, metrics.

``end_to_end()`` (``--trace 0``) sets the workload up several times and
reports the median set-up time, then repeats the same round until
``seconds`` have passed. Every round times the same traces and commands
in the same positions; each position's best time over the rounds (see
:func:`perfbench.stats.best_of`) is what the medians and tails are
taken over, so a slow spell of the host in one round does not move
them. ``traced()`` (``--trace 1``) sets up once, alternates untraced and
traced rounds for the same time, and turns the first traced round's
spans into the per-layer metrics.
"""

import gc
import os
import resource
import time
import tracemalloc

from repro import perf

from perfbench import layers, stats
from perfbench.gcwatch import GcWatch
from perfbench.probe import host, probe
from perfbench.spans import Patcher, SpanRecorder, install_layer_spans
from perfbench.workloads import WORKLOADS

#: Set-ups per end-to-end run (at least, and at most) and the least
#: time they must span; ``setup_s`` is their median.
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 4.0

#: Timed rounds a run makes even when ``seconds`` is shorter.
MIN_ROUNDS = 3

#: Commands per tail block (see :func:`perfbench.stats.block_tail`):
#: each block's tail is its 11th-largest command, p99.
ACTION_BLOCK = 1000

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("commands_per_s", "1/s"),
    ("trace_ms_p50", "ms"),
    ("trace_ms_tail", "ms"),
    ("action_us_p50", "us"),
    ("action_us_tail", "us"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_now = time.perf_counter


def peak_rss_mb(include_children):
    """Peak resident set in MB (Linux reports ru_maxrss in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _build(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)


def _timed_rounds(workload, seconds, gc_watch):
    """Closed loop: one round after another until ``seconds`` passed.

    Each round's report is dropped and garbage collected off the clock,
    so every round starts from the same heap.
    """
    rounds = []
    start = _now()
    while True:
        gc.collect()
        result = workload.run_round(gc_watch)
        result.batch = None
        rounds.append(result)
        if _now() - start >= seconds and len(rounds) >= MIN_ROUNDS:
            return rounds


def end_to_end(name, seed, seconds, workdir):
    """Returns (attempted, failed, metrics, diagnostics)."""
    probe_before = probe()
    setup_times = []
    workload = None
    least, most = SETUP_REPEATS
    while len(setup_times) < most and (
            len(setup_times) < least or sum(setup_times) < SETUP_SECONDS):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        start = _now()
        workload = _build(name, seed, os.path.join(
            workdir, "setup-%d" % len(setup_times)))
        setup_times.append(_now() - start)
    gc_watch = GcWatch()
    try:
        rounds = _timed_rounds(workload, seconds, gc_watch)
    finally:
        workload.close()
    attempted = workload.setup_attempted + sum(r.attempted for r in rounds)
    failed = workload.setup_failures + sum(r.failed for r in rounds)
    trace_ms = stats.best_of([r.trace_ms for r in rounds],
                             workload.trace_keys)
    action_us = stats.best_of([r.action_us for r in rounds],
                              workload.action_keys)
    trace_tail, trace_pct, _ = stats.tail(trace_ms)
    action_tail, action_pct, _, action_blocks = stats.block_tail(
        action_us, ACTION_BLOCK)
    # The batch's time: its traces' best times shared over the workers,
    # plus the least time a round spent outside trace work (a serial
    # round, nearly none; a pooled one, dispatch, wire, journal and the
    # workers' uneven finish).
    workers = workload.workers
    batch_s = sum(trace_ms) / 1e3 / workers + min(
        r.seconds - sum(r.trace_ms) / 1e3 / workers for r in rounds)
    values = {
        "setup_s": stats.median(setup_times),
        "commands_per_s": rounds[0].commands / batch_s,
        "trace_ms_p50": stats.median(trace_ms),
        "trace_ms_tail": trace_tail,
        "action_us_p50": stats.median(action_us),
        "action_us_tail": action_tail,
        "resume_s": min(r.resume_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(include_children=workload.uses_pool),
    }
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in END_TO_END}
    timed = sum(r.seconds for r in rounds)
    diagnostics = {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "commands_per_round": rounds[0].commands,
        "traces_per_round": rounds[0].traces,
        "trace_ms_tail": {"percentile": trace_pct,
                          "samples": len(trace_ms)},
        "action_us_tail": {"percentile": action_pct, "block": ACTION_BLOCK,
                           "blocks": action_blocks,
                           "samples": len(action_us)},
        # Per-round figures show how the host drifted during the run.
        "round_seconds": [round(r.seconds, 4) for r in rounds],
        "round_action_us_p50": [round(stats.median(r.action_us), 2)
                                for r in rounds],
        "round_resume_s": [round(r.resume_s, 4) for r in rounds],
        "setup_s_each": [round(t, 4) for t in setup_times],
        "gc": gc_watch.summary(timed),
        "probe_per_s": {"before": round(probe_before, 3),
                        "after": round(probe(), 3)},
        "host": host(),
    }
    return attempted, failed, metrics, diagnostics


# -- traced run -----------------------------------------------------------------


def _traced_round(run):
    """``run(recorder)`` with every layer wrapped; returns (round,
    recorder, perf counter delta)."""
    recorder = SpanRecorder()
    gc.collect()
    with Patcher() as patcher:
        install_layer_spans(patcher, recorder)
        _count_traces(patcher, recorder)
        before = perf.snapshot()
        result = run(recorder)
        delta = perf.delta(before)
    return result, recorder, delta


def _count_traces(patcher, recorder):
    """Stamp each replayed or recorded trace's spans with its own id."""
    from repro.core.recorder import WarrRecorder
    from repro.session.engine import SessionRun

    def begin(function):
        def wrapper(self, *args, **kwargs):
            recorder.trace_id += 1
            return function(self, *args, **kwargs)
        wrapper.__wrapped__ = function
        return wrapper

    patcher.wrap_method(SessionRun, "begin", begin)
    patcher.wrap_method(WarrRecorder, "begin", begin)


def _pool_wait(patcher, recorder):
    from repro.session.pool import WorkerPool

    from perfbench.spans import span_wrapper

    patcher.wrap_method(WorkerPool, "_wait_for_activity",
                        lambda f: span_wrapper(recorder, "pool.wait", f))


def _unattributed(table, seconds):
    return max(0.0, 1.0 - table.roots_s / seconds) if seconds > 0 else 0.0


def _retained_kb_per_trace(run):
    """tracemalloc: bytes still held once a round's report is kept and
    every collectable cycle is gone, per trace. Traced run only."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    return retained / 1024.0 / max(1, result.traces)


def traced(name, seed, seconds, workdir, trace_path):
    """Returns (attempted, failed, metrics, diagnostics)."""
    workload = _build(name, seed, os.path.join(workdir, "traced"))
    try:
        return _traced(workload, name, seconds, trace_path)
    finally:
        workload.close()


def _pooled_run(workload):
    """A traced ``app-farm`` round: the parent's wait for results is a
    span too, and the workers' busy time comes from the worker clock."""
    def run(recorder):
        respawns = workload.pool.stats["respawns"]
        with Patcher() as patcher:
            _pool_wait(patcher, recorder)
            result = workload.run_round()
        result.worker_busy_s = sum(workload.worker_clock.samples()[0]) / 1e3
        result.respawns = workload.pool.stats["respawns"] - respawns
        return result
    return run


class _Tally:
    """Attempted/failed operations over every round of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result):
        self.attempted += result.attempted
        self.failed += result.failed
        return result


def _traced(workload, name, seconds, trace_path):
    values = {}
    tally = _Tally()
    pooled = workload.uses_pool
    # Untraced round with the collector watched: the gc.* metrics and
    # the untraced side of the tracing overhead.
    gc_watch = GcWatch()
    gc.collect()
    first = tally.add(workload.run_round(gc_watch))
    first.batch = None
    values["gc.gen2_collections"] = len(gc_watch.pauses[2])
    values["gc.pause_share"] = gc_watch.total() / first.seconds
    values["gc.gen2_pause_ms_max"] = max(gc_watch.pauses[2],
                                         default=0.0) * 1e3
    untraced_rates = [first.commands_per_s]

    run = (_pooled_run(workload) if pooled
           else lambda recorder: workload.run_round())
    result, recorder, delta = _traced_round(run)
    tally.add(result)
    traced_rates = [result.commands_per_s]
    spans = recorder.spans()
    table = layers.SpanTable(layers.window(spans, result.start,
                                           result.start + result.seconds))
    values["trace.unattributed_share"] = _unattributed(table, result.seconds)
    # The parent's wait spans follow its wakeups, which depend on when
    # results arrive; every other span repeats exactly for a seed.
    values["trace.spans_per_cmd"] = (
        (len(table.spans) - table.calls("pool.wait")) / result.commands)

    if pooled:
        values.update(_pool_layers(workload, result, table, recorder))
        values["journal.read_ms"] = layers.SpanTable(layers.window(
            spans, *result.resume_window)).mean_total_ms("journal.read")
        # The worker-side layers: the same batch replayed in this
        # process under the same wrappers.
        result.batch = None
        inproc, inproc_recorder, inproc_delta = _traced_round(
            lambda recorder: workload.run_in_process())
        tally.add(inproc)
        values.update(layers.replay_layers(
            layers.SpanTable(inproc_recorder.spans()),
            inproc_recorder.counts, inproc_delta, inproc.commands,
            inproc.traces, inproc.batch))
        inproc.batch = None
    elif workload.name == "record":
        values.update(layers.replay_layers(
            table, recorder.counts, delta, result.commands, result.traces,
            None, unit_of_work=len(result.action_us)))
        values.update(layers.recorder_layers(table))
        values["scripting.page_errors_per_cmd"] = (workload.page_errors
                                                   / result.commands)
        encodes = table.by_name.get("tape.encode", [])
        values["tape.encode_ms_per_session"] = (
            sum(total for _, total in encodes) * 1e3 / result.traces)
        values["tape.bytes_per_session"] = (workload.saved_tape_bytes
                                            / result.traces)
    else:
        values.update(layers.replay_layers(
            table, recorder.counts, delta, result.commands, result.traces,
            result.batch))
        values["tape.bytes_per_session"] = workload.tape_bytes / result.traces
        values["tape.playback_self_us_per_fetch"] = table.mean_self_us(
            "net.perform")
    recorder.write_chrome_trace(trace_path)
    result.batch = None
    del spans, table, recorder

    # Alternate untraced and traced rounds for the rest of the time: the
    # overhead ratio compares their medians.
    start = _now()
    while _now() - start < seconds:
        gc.collect()
        plain = tally.add(workload.run_round())
        plain.batch = None
        untraced_rates.append(plain.commands_per_s)
        again = tally.add(_traced_round(run)[0])
        again.batch = None
        traced_rates.append(again.commands_per_s)
    values["trace.overhead_ratio"] = (stats.median(untraced_rates)
                                      / stats.median(traced_rates))
    values["mem.retained_kb_per_trace"] = _retained_kb_per_trace(
        lambda: tally.add(workload.run_round()))
    diagnostics = {"workload": name, "gc": gc_watch.summary(first.seconds),
                   "untraced_commands_per_s": stats.median(untraced_rates),
                   "traced_commands_per_s": stats.median(traced_rates),
                   "chrome_trace": trace_path, "host": host()}
    return (tally.attempted + workload.setup_attempted,
            tally.failed + workload.setup_failures,
            layers.fill(values), diagnostics)


def _pool_layers(workload, result, table, recorder):
    workers = workload.pool.workers
    wall = result.seconds
    decodes = recorder.counts["wire.decode"]
    journal_bytes = os.path.getsize(workload.journal_path())
    return {
        "pool.worker_busy_share": result.worker_busy_s / (workers * wall),
        "pool.parent_wait_share": sum(t for _, t in table.by_name.get(
            "pool.wait", [])) / wall,
        "pool.requeues": workload.requeues(),
        "pool.respawns": result.respawns,
        "wire.decode_self_us_per_trace": table.mean_self_us("wire.decode"),
        "wire.bytes_per_trace": (recorder.counts["wire.bytes"] / decodes
                                 if decodes else 0.0),
        "journal.append_self_us": table.mean_self_us("journal.append"),
        "journal.bytes_per_trace": journal_bytes / result.traces,
    }
