"""The three workloads: set-up, one timed round, and output checks.

Each workload object is built once per set-up. ``run_round()`` is one
closed-loop unit of work (the next trace starts when the previous one
finished) and returns a :class:`Round`; it checks its own outputs off
the clock and counts every failed operation. Set-up's own checks land
in ``setup_attempted`` and ``setup_failures``. Nothing here reads the
wall clock except to time the program.
"""

import contextlib
import gc
import math
import multiprocessing
import os
import random
import shutil
import time

from repro.apps.docs import DocsApplication
from repro.apps.framework import make_browser
from repro.apps.gmail import GmailApplication
from repro.apps.sites import SitesApplication
from repro.browser.tab import Tab
from repro.core.recorder import WarrRecorder
from repro.core.trace import WarrTrace
from repro.net.tape import Tape
from repro.net.transport import TapeConfig
from repro.session.batch import BatchRunner
from repro.session.events import SessionObserver
from repro.session import journal as run_journal
from repro.session.journal import read_journal, verify_exactly_once
from repro.session.policies import TimingPolicy
from repro.session import pool as pool_module
from repro.session.pool import WorkerPool, WorkerSpec
from repro.workloads.sessions import gmail_compose_session, sites_edit_session

from perfbench import corpus
from perfbench.spans import Patcher

_now = time.perf_counter

#: Pool size for ``app-farm``: one worker per core of the reference VM.
FARM_WORKERS = 2

#: Copies of the batch in the journal ``sites-edit`` and ``record``
#: resume each round, so that one resume reads hundreds of finished
#: traces (0.1 s or more), not a few milliseconds' worth.
SITES_RESUME_COPIES = 4
RECORD_RESUME_COPIES = 10


class Round:
    """What one timed round did and how long it took.

    Every round of a workload repeats the same work, so ``trace_ms`` and
    ``action_us`` hold one sample per trace and per command, in the same
    positions every round.
    """

    def __init__(self, start, seconds, commands, traces):
        #: perf_counter() at the start of the timed batch.
        self.start = start
        self.seconds = seconds
        self.commands = commands
        self.traces = traces
        self.trace_ms = []
        self.action_us = []
        #: Wall time of the round's resume, and its perf_counter() window.
        self.resume_s = None
        self.resume_window = None
        self.attempted = 0
        self.failed = 0
        #: The round's batch report (or recorded traces), for the
        #: traced run's per-layer counts; dropped by the caller.
        self.batch = None

    @property
    def commands_per_s(self):
        return self.commands / self.seconds

    def add_resume(self, window, failed):
        self.resume_window = window
        self.resume_s = window[1] - window[0]
        self.attempted += 1
        self.failed += 1 if failed else 0


class ActionClock(SessionObserver):
    """Standing observer: one sample per replayed command, from
    command-started to command-finished, plus each trace's end."""

    def __init__(self):
        self.action_s = []
        self.trace_ends = []
        self._started = 0.0

    def on_event(self, event):
        kind = event.kind
        if kind == "command-started":
            self._started = _now()
        elif kind == "command-finished":
            self.action_s.append(_now() - self._started)
        elif kind == "session-finished":
            self.trace_ends.append(_now())


def watching(gc_watch):
    """The collector watch around a round's timed batch (or nothing)."""
    return gc_watch if gc_watch is not None else contextlib.nullcontext()


def timed_resume(runner, traces, labels, failures):
    """Time one resume of a finished journal; returns ``(window,
    failed)`` for :meth:`Round.add_resume`.

    It starts from a collected heap, so a gen-2 pass over garbage left
    by the batch never lands inside it. The resume fails when it does
    not return every trace from the journal, or when
    ``failures(batch)`` finds a difference from the reference statuses.
    """
    gc.collect()
    start = _now()
    resumed = runner.run(traces, labels=labels)
    window = (start, _now())
    return window, (resumed.resumed_count != len(traces)
                    or bool(failures(resumed)))


def write_finished_journal(path, traces, labels, reports, copies):
    """A finished WJ1 journal of ``copies`` copies of a replayed batch,
    written from its reports the way a serial ``BatchRunner`` journals
    them; every copy has labels of its own (``<label>~<copy>``).

    Returns the (traces, labels) a resume of it must submit.
    """
    labels = ["%s~%d" % (label, copy) for copy in range(copies)
              for label in labels]
    traces = list(traces) * copies
    digests = [run_journal.trace_digest(trace.to_text()) for trace in traces]
    config = run_journal.batch_config(labels, digests, "serial")
    with run_journal.RunJournal.create(path, config, fsync=False) as journal:
        for index, (label, report) in enumerate(
                zip(labels, list(reports) * copies)):
            journal.start(index, label)
            status = (run_journal.REPLAYED if report.complete
                      else run_journal.FAILED)
            journal.finish(index, label, status, report=report.to_dict())
    return traces, labels


def copy_of(label):
    """The original label of a journal copy's ``<label>~<copy>``."""
    return label.rsplit("~", 1)[0]


def _trace_ms(start, ends):
    """Per-trace wall ms in a serial batch: the gap between consecutive
    trace ends (the first measured from the batch start)."""
    result = []
    previous = start
    for end in ends:
        result.append((end - previous) * 1e3)
        previous = end
    return result


def statuses(report):
    return [result.status for result in report.results]


def _batch_failures(batch, reference_by_label, expected_traces):
    """Failed operations in a replayed batch: each command that failed
    or whose status differs from the reference pass, each halted trace,
    and each trace missing from the report."""
    failed = max(0, expected_traces - batch.trace_count)
    for run in batch.runs:
        report = run.report
        if report.halted:
            failed += 1
        want = reference_by_label(run.label)
        got = statuses(report)
        if len(got) != len(want):
            failed += abs(len(want) - len(got))
        failed += sum(1 for mine, theirs in zip(got, want)
                      if mine != theirs or mine == "failed")
    return failed


class SitesEdit:
    """Serial batch replay of Fig. 4 Sites editing, hermetic from tapes."""

    name = "sites-edit"
    uses_pool = False
    workers = 1
    #: Every position is its own work (see ``stats.best_of``).
    trace_keys = action_keys = None

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.tape_dir = os.path.join(workdir, "tapes")
        self.traces = corpus.sites_edit_corpus(seed)
        self.labels = [trace.label for trace in self.traces]
        # Record one WT1 tape per trace against the live application.
        live = BatchRunner(corpus.sites_live, timing=TimingPolicy.no_wait(),
                           tape=TapeConfig.record(self.tape_dir))
        recorded = live.run(self.traces, labels=self.labels)
        # Reference pass: hermetic playback, off the clock. It warms
        # every first-touch cache and fixes the statuses later rounds
        # must reproduce; its own journal must pass the exactly-once
        # audit.
        reference_journal = os.path.join(workdir, "reference.wj1")
        reference = self._runner(journal=reference_journal).run(
            self.traces, labels=self.labels)
        self.reference = {run.label: statuses(run.report)
                          for run in reference.runs}
        self.reference_page_errors = reference.page_error_count
        self.setup_failures = _batch_failures(
            reference, self.reference.get, len(self.traces))
        self.setup_failures += sum(
            1 for run in recorded.runs
            if statuses(run.report) != self.reference.get(run.label))
        # Each distinct recorded trace replayed completely once.
        self.setup_failures += sum(1 for run in reference.runs
                                   if not run.report.complete)
        # The journal every round resumes: the reference reports, four
        # times over.
        self.journal = os.path.join(workdir, "resume.wj1")
        self.resume_traces, self.resume_labels = write_finished_journal(
            self.journal, self.traces, self.labels,
            [run.report for run in reference.runs], SITES_RESUME_COPIES)
        for path, labels in ((reference_journal, self.labels),
                             (self.journal, self.resume_labels)):
            if not verify_exactly_once(path, labels)["exactly_once"]:
                self.setup_failures += 1
        self.setup_attempted = 2 * len(self.traces) + 2
        self.commands = sum(len(trace) for trace in self.traces)
        self.tape_bytes = sum(
            os.path.getsize(TapeConfig.playback(self.tape_dir).tape_path(label))
            for label in self.labels)

    def _runner(self, observers=None, **journal):
        return BatchRunner(corpus.sites_hermetic,
                           timing=TimingPolicy.no_wait(),
                           tape=TapeConfig.playback(self.tape_dir),
                           observers=observers, **journal)

    def run_round(self, gc_watch=None):
        # The resume goes first: after the batch, its collection would
        # scan every report the batch still holds.
        resume = timed_resume(
            self._runner(journal=self.journal, resume=True),
            self.resume_traces, self.resume_labels,
            lambda resumed: _batch_failures(
                resumed, lambda label: self.reference[copy_of(label)],
                len(self.resume_traces)))
        gc.collect()
        clock = ActionClock()
        runner = self._runner(observers=[clock])
        with watching(gc_watch):
            start = _now()
            batch = runner.run(self.traces, labels=self.labels)
            seconds = _now() - start
        result = Round(start, seconds, batch.command_count, batch.trace_count)
        result.trace_ms = _trace_ms(start, clock.trace_ends)
        result.action_us = [s * 1e6 for s in clock.action_s]
        result.attempted = self.commands
        result.failed = _batch_failures(batch, self.reference.get,
                                        len(self.traces))
        if batch.page_error_count != self.reference_page_errors:
            result.failed += 1
        result.add_resume(*resume)
        result.batch = batch
        return result

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class WorkerClock:
    """Per-trace and per-command wall time measured inside pool workers.

    Installed on ``repro.session.pool._replay_task`` for the pool's whole
    life, so every worker inherits it at fork, respawned ones included.
    Each sample lands in shared memory at its trace's and commands' fixed
    positions in the batch, whichever worker ran it; a requeued trace's
    final attempt overwrites the earlier one. Each trace is timed from
    the start of its task to its finished report (parse, fresh browser,
    replay, report), each command by an :class:`ActionClock`.
    """

    def __init__(self, context, labels, slots):
        self.position = {}
        commands = 0
        for index, (label, trace) in enumerate(zip(labels, slots)):
            self.position[label] = (index, commands, len(trace))
            commands += len(trace)
        self.trace_s = context.Array("d", len(labels), lock=False)
        self.action_s = context.Array("d", commands, lock=False)
        self.reset()

    def reset(self):
        """Mark every position untimed (NaN) before a round."""
        self.trace_s[:] = [math.nan] * len(self.trace_s)
        self.action_s[:] = [math.nan] * len(self.action_s)

    def wrap(self, replay_task):
        def timed(factory, engine_config, trace_text, tracer, tape=None,
                  label=None, observers=None):
            clock = ActionClock()
            start = _now()
            payload = replay_task(factory, engine_config, trace_text, tracer,
                                  tape=tape, label=label,
                                  observers=list(observers or ()) + [clock])
            elapsed = _now() - start
            # Warm-up batches use labels outside the timed batch.
            if label in self.position:
                index, first, commands = self.position[label]
                self.trace_s[index] = elapsed
                if len(clock.action_s) == commands:
                    self.action_s[first:first + commands] = clock.action_s
            return payload
        timed.__wrapped__ = replay_task
        return timed

    def samples(self):
        """(trace ms, action µs) by batch position; NaN where untimed."""
        return ([s * 1e3 for s in self.trace_s],
                [s * 1e6 for s in self.action_s])


class AppFarm:
    """A mixed corpus through a warm 2-worker pool with a WJ1 journal,
    then resumed from the finished journal."""

    name = "app-farm"
    uses_pool = True
    workers = FARM_WORKERS

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.distinct = corpus.app_farm_distinct(seed)
        self.labels, self.slots = corpus.app_farm_batch(seed, self.distinct)
        self.slot_kind = {label: trace.label
                          for label, trace in zip(self.labels, self.slots)}
        self.commands = sum(len(trace) for trace in self.slots)
        # Slots of one distinct trace repeat the same work in a fresh
        # browser: their samples share one best (see ``stats.best_of``).
        self.trace_keys = [trace.label for trace in self.slots]
        self.action_keys = [(trace.label, index) for trace in self.slots
                            for index in range(len(trace))]
        # Reference pass, in-process and off the clock: every distinct
        # trace must replay completely, and every GMail trace must have
        # relaxed (the compose view was re-rendered, so ids are stale).
        reference = self.in_process_runner().run(self.distinct)
        self.reference = {run.label: statuses(run.report)
                          for run in reference.runs}
        self.setup_failures = sum(1 for run in reference.runs
                                  if not run.report.complete)
        self.setup_failures += sum(
            1 for run in reference.runs
            if run.label.startswith("gmail") and run.report.relaxed_count == 0)
        self.setup_attempted = 2 * len(self.distinct)
        # The pool forks: the worker clock must be in place before the
        # workers start, and stays until the pool is closed so that a
        # respawned worker has it too.
        self.worker_clock = WorkerClock(multiprocessing.get_context("fork"),
                                        self.labels, self.slots)
        self._patcher = Patcher()
        self._patcher.wrap_function([pool_module], "_replay_task",
                                    self.worker_clock.wrap)
        self.pool = WorkerPool(
            WorkerSpec("perfbench.corpus:farm_browser"), FARM_WORKERS,
            timing=TimingPolicy.no_wait()).start()
        # Warm-up: every worker imports, builds its factory and replays.
        warm = [(trace.label, trace.to_text()) for trace in self.distinct]
        for _ in range(2):
            self.pool.run(warm)
        self._round = 0

    def in_process_runner(self):
        return BatchRunner(corpus.farm_browser, timing=TimingPolicy.no_wait())

    def run_in_process(self):
        """The pooled batch's traces, serially in this process: how the
        traced run sees the layers that run inside the workers."""
        start = _now()
        batch = self.in_process_runner().run(self.slots, labels=self.labels)
        seconds = _now() - start
        result = Round(start, seconds, batch.command_count, batch.trace_count)
        result.attempted = self.commands
        result.failed = self.check_batch(batch)
        result.batch = batch
        return result

    def reference_for(self, label):
        return self.reference[self.slot_kind.get(label, label)]

    def check_batch(self, batch):
        """Failed operations in a replayed farm batch (statuses, halts,
        and GMail slots that did not relax)."""
        failed = _batch_failures(batch, self.reference_for, len(self.slots))
        failed += sum(1 for run in batch.runs
                      if run.label.startswith("gmail")
                      and run.report.relaxed_count == 0)
        return failed

    def journal_path(self):
        return os.path.join(self.workdir, "round-%d.wj1" % self._round)

    def run_round(self, gc_watch=None):
        previous = self.journal_path()
        if os.path.exists(previous):
            os.remove(previous)
        self._round += 1
        journal = self.journal_path()
        runner = BatchRunner(corpus.farm_browser, pool=self.pool,
                             timing=TimingPolicy.no_wait(), journal=journal)
        batches_before = self.pool.stats["batches"]
        self.worker_clock.reset()
        with watching(gc_watch):
            start = _now()
            batch = runner.run(self.slots, labels=self.labels)
            seconds = _now() - start
        result = Round(start, seconds, batch.command_count, batch.trace_count)
        result.trace_ms, result.action_us = self.worker_clock.samples()
        # Every trace and command must have reported its timing.
        if any(math.isnan(v) for v in result.trace_ms) \
                or any(math.isnan(v) for v in result.action_us):
            result.failed += 1
        result.attempted = self.commands + 2
        result.failed += self.check_batch(batch)
        if not verify_exactly_once(journal, self.labels)["exactly_once"]:
            result.failed += 1
        result.add_resume(*timed_resume(BatchRunner(
            corpus.farm_browser, pool=self.pool,
            timing=TimingPolicy.no_wait(), journal=journal, resume=True),
            self.slots, self.labels, self.check_batch))
        # Resume must execute nothing: no batch reached the pool.
        if self.pool.stats["batches"] != batches_before + 1:
            result.failed += 1
        result.batch = batch
        return result

    def requeues(self):
        """Extra attempts recorded in the current round's journal."""
        snapshot = read_journal(self.journal_path())
        return sum(record.attempts - 1 for record in snapshot.finishes)

    def close(self):
        self.pool.close()
        self._patcher.restore()
        shutil.rmtree(self.workdir, ignore_errors=True)


#: One ``record`` round: (kind, size) per session. GMail body length,
#: Sites typed characters, Docs edited cells are fixed; text is seeded.
#: Twenty-four sessions, so that the per-session tail has ten beyond it.
RECORD_PLAN = (("gmail", 60), ("sites", 90), ("docs", 0),
               ("gmail", 90), ("sites", 150), ("docs", 0),
               ("gmail", 120), ("sites", 210), ("docs", 0),
               ("gmail", 150), ("sites", 270), ("docs", 0)) * 2


class InputClock:
    """Times each user input the simulated user hands the tab."""

    METHODS = ("click", "double_click", "type_key", "drag")

    def __init__(self):
        self.samples = []

    def install(self, patcher):
        samples = self.samples

        def timed(function):
            def wrapper(*args, **kwargs):
                start = _now()
                try:
                    return function(*args, **kwargs)
                finally:
                    samples.append(_now() - start)
            wrapper.__wrapped__ = function
            return wrapper

        for method in self.METHODS:
            patcher.wrap_method(Tab, method, timed)


class RecordSessions:
    """Live recording with WarrRecorder and RecordTransport; every
    trace and WT1 tape is saved, read back and compared."""

    name = "record"
    uses_pool = False
    workers = 1
    #: Every position is its own work (see ``stats.best_of``).
    trace_keys = action_keys = None

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random("record:%d" % seed)
        # Session inputs are drawn once: every round records the same
        # sessions, so every round's traces must be identical.
        self.sessions = []
        for index, (kind, size) in enumerate(RECORD_PLAN):
            label = "%s-%02d" % (kind, index)
            self.sessions.append((label, kind, self._inputs(rng, kind, size)))
        self.digests = None
        self.journal = None
        self.input_clock = InputClock()
        # Warm-up round off the clock fixes the reference digests.
        warm = self.run_round()
        self.digests = [trace.to_text() for trace in warm.batch]
        self.traces = warm.batch
        self.labels = [trace.label for trace in self.traces]
        # Each distinct recorded trace replays completely once, live and
        # with recorded timing, journaled.
        replayed_journal = os.path.join(workdir, "replayed.wj1")
        replayed = BatchRunner(corpus.recorded_apps_browser,
                               journal=replayed_journal).run(
                                   self.traces, labels=self.labels)
        self.reference = {run.label: statuses(run.report)
                          for run in replayed.runs}
        self.setup_attempted = warm.attempted + len(self.traces) + 2
        self.setup_failures = warm.failed + sum(
            1 for run in replayed.runs if not run.report.complete)
        # Every round resumes ten copies of that replay's reports.
        journal = os.path.join(workdir, "resume.wj1")
        self.resume_traces, self.resume_labels = write_finished_journal(
            journal, self.traces, self.labels,
            [run.report for run in replayed.runs], RECORD_RESUME_COPIES)
        for path, labels in ((replayed_journal, self.labels),
                             (journal, self.resume_labels)):
            if not verify_exactly_once(path, labels)["exactly_once"]:
                self.setup_failures += 1
        self.journal = journal

    @staticmethod
    def _inputs(rng, kind, size):
        if kind == "gmail":
            return {"to": "%s@example.com" % corpus.letters(rng, 6),
                    "subject": corpus.words(rng, 12),
                    "body": corpus.words(rng, size)}
        if kind == "sites":
            return {"text": corpus.words(rng, size)}
        return {"seed": rng.randrange(1 << 30)}

    @staticmethod
    def _drive(kind, inputs):
        """(apps, start URL, drive(browser)) for one session."""
        if kind == "gmail":
            return ([GmailApplication], corpus.GMAIL_START,
                    lambda b: gmail_compose_session(b, **inputs))
        if kind == "sites":
            return ([SitesApplication], corpus.SITES_START,
                    lambda b: sites_edit_session(b, **inputs))
        rng = random.Random(inputs["seed"])
        return ([DocsApplication], corpus.DOCS_START,
                lambda b: corpus.docs_session(b, rng))

    def record_one(self, label, kind, inputs):
        """Record and save one session; returns (trace, tape, paths)."""
        apps, start_url, drive = self._drive(kind, inputs)
        browser, _ = make_browser(apps)
        recorder = WarrRecorder().attach(browser)
        recorder.begin(start_url, label=label)
        tape_session = TapeConfig.record(self.workdir).attach(
            browser.network, label)
        try:
            drive(browser)
        finally:
            recorder.detach()
            tape = tape_session.finish()
        trace_path = os.path.join(self.workdir, "%s.warr" % label)
        recorder.trace.save(trace_path)
        self.page_errors += len(browser.page_errors)
        return recorder.trace, tape, trace_path, tape_session.path

    def run_round(self, gc_watch=None):
        del self.input_clock.samples[:]
        self.page_errors = 0
        traces, saved = [], []
        ends = []
        with Patcher() as patcher, watching(gc_watch):
            self.input_clock.install(patcher)
            start = _now()
            for label, kind, inputs in self.sessions:
                trace, tape, trace_path, tape_path = self.record_one(
                    label, kind, inputs)
                ends.append(_now())
                traces.append(trace)
                saved.append((trace, tape, trace_path, tape_path))
            seconds = _now() - start
        result = Round(start, seconds, sum(len(trace) for trace in traces),
                       len(traces))
        result.trace_ms = _trace_ms(start, ends)
        result.action_us = [s * 1e6 for s in self.input_clock.samples]
        result.attempted = result.commands + 2 * len(traces)
        self.saved_tape_bytes = sum(os.path.getsize(tape_path)
                                    for _, _, _, tape_path in saved)
        result.failed = self.round_trip_failures(saved)
        if self.digests is not None:
            result.failed += sum(
                1 for trace, digest in zip(traces, self.digests)
                if trace.to_text() != digest)
        if self.journal is not None:
            result.add_resume(*timed_resume(
                BatchRunner(corpus.recorded_apps_browser,
                            journal=self.journal, resume=True),
                self.resume_traces, self.resume_labels,
                lambda resumed: _batch_failures(
                    resumed, lambda label: self.reference[copy_of(label)],
                    len(self.resume_traces))))
        result.batch = traces
        return result

    @staticmethod
    def round_trip_failures(saved):
        """Read every saved trace and tape back; each inexact round trip
        (text -> WarrTrace -> text, WT1 -> Tape -> WT1) is a failure."""
        failed = 0
        for trace, tape, trace_path, tape_path in saved:
            with open(trace_path, encoding="utf-8") as handle:
                text = handle.read()
            parsed = WarrTrace.from_text(text)
            if parsed != trace or parsed.to_text() != text \
                    or text != trace.to_text():
                failed += 1
            with open(tape_path, "rb") as handle:
                blob = handle.read()
            decoded = Tape.decode(blob)
            if decoded.encode() != blob or len(decoded) != len(tape) \
                    or blob != tape.encode():
                failed += 1
        return failed

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    SitesEdit.name: SitesEdit,
    AppFarm.name: AppFarm,
    RecordSessions.name: RecordSessions,
}
