"""Per-layer tracing from outside the program.

A :class:`Tracer` swaps public functions and methods of the layers for
timing wrappers, and puts the originals back on :meth:`Tracer.restore`.
Nothing inside ``src/`` changes: every number here is the time spent in,
or the count of, calls into one layer's public entry points.  The
wrappers cost a few hundred nanoseconds per call (the scheduler is
called once per VM step), so the traced run reports its own overhead
and the end-to-end metrics always come from untraced runs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

perf = time.perf_counter


class Tracer:
    """Accumulates busy time (``secs``), counts and samples per key."""

    def __init__(self) -> None:
        self.secs: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._undo: list = []

    def wrap(self, owner, name: str, make: Callable) -> None:
        """Replace ``owner.name`` with ``make(original)`` until restore."""
        own = name in vars(owner)
        original = getattr(owner, name)
        self._undo.append((owner, name, original, own))
        setattr(owner, name, make(original))

    def timed(self, owner, name: str, key: str, count=None) -> None:
        """Time every call of ``owner.name`` into ``secs[key]``;
        ``count(result, args)`` returns ``{counter: amount}`` to add."""

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf()
                result = original(*args, **kwargs)
                self.secs[key] += perf() - t0
                if count is not None:
                    for counter, n in count(result, args).items():
                        self.counts[counter] += n
                return result

            return wrapper

        self.wrap(owner, name, make)

    def restore(self) -> None:
        for owner, name, original, own in reversed(self._undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()


class TimedScheduler:
    """A delegating :class:`~repro.vm.scheduler.Scheduler` that times picks."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def pick(self, runnable):
        t0 = perf()
        tid = self.inner.pick(runnable)
        self.tracer.secs["vm.scheduler.pick_s"] += perf() - t0
        self.tracer.counts["vm.scheduler.picks"] += 1
        return tid

    def on_yield(self, tid: int) -> None:
        self.inner.on_yield(tid)

    def on_spawn(self, tid: int) -> None:
        self.inner.on_spawn(tid)


def install_program_layers(tracer: Tracer) -> None:
    """Wrap isa, analysis, vm, detectors and trace entry points in-process."""
    import repro.harness.registry as registry
    import repro.session as session
    import repro.trace as trace_pkg
    import repro.trace.trace as trace_mod
    import repro.vm.machine as machine_mod
    from repro.detectors import RaceDetector
    from repro.harness.workload import Workload
    from repro.trace import Trace, TraceStore

    def loops(imap, _args):
        return {"analysis.spin_loops": imap.num_loops}

    tracer.timed(Workload, "fresh_program", "isa.build_s")
    # The live path reaches the static analysis through the cached entry
    # point; record_trace calls the uncached one.
    tracer.timed(session, "instrument_program_cached", "analysis.instrument_s", loops)
    tracer.timed(trace_mod, "instrument_program", "analysis.instrument_s", loops)
    tracer.timed(machine_mod, "get_decoded_program", "vm.decode_s")

    # Schedulers: repro.run builds RandomScheduler(seed); record_trace
    # goes through the registry's build_scheduler.
    tracer.wrap(session, "RandomScheduler",
                lambda cls: lambda seed: TimedScheduler(cls(seed), tracer))
    tracer.wrap(registry, "build_scheduler",
                lambda build: lambda spec, seed: TimedScheduler(build(spec, seed), tracer))

    def run_wrapper(original):
        def run(machine):
            picks0 = tracer.secs["vm.scheduler.pick_s"]
            deliver0 = tracer.secs["detectors.deliver_s"]
            t0 = perf()
            result = original(machine)
            total = perf() - t0
            inner = (tracer.secs["vm.scheduler.pick_s"] - picks0) + (
                tracer.secs["detectors.deliver_s"] - deliver0
            )
            tracer.secs["vm.interp_self_s"] += total - inner
            tracer.counts["vm.steps"] += machine.step_count
            tracer.counts["vm.events"] += machine.event_count
            return result

        return run

    tracer.wrap(machine_mod.Machine, "run", run_wrapper)

    def batch(_result, args):
        _detector, reads, writes, ctrl = args
        return {
            "detectors.batches": 1,
            "detectors.delivered_events": len(reads) + len(writes) + len(ctrl),
        }

    tracer.timed(RaceDetector, "consume_batch", "detectors.deliver_s", batch)
    tracer.timed(RaceDetector, "finalize", "detectors.finalize_s",
                 lambda report, _a: {"detectors.racy_contexts": report.racy_contexts})
    tracer.timed(trace_pkg, "record_trace", "trace.record_s",
                 lambda trace, _a: {"trace.events": len(trace.events)})
    tracer.timed(TraceStore, "put", "trace.store.put_s")
    tracer.timed(TraceStore, "get", "trace.store.get_s")
    tracer.timed(Trace, "batches", "trace.batches_s")
    tracer.timed(trace_pkg, "analyze_trace", "trace.analyze_s")


def install_service_layers(tracer: Tracer) -> None:
    """Wrap harness and service entry points inside the daemon process.

    Service numbers are kept as ``(time.monotonic(), value)`` events so the
    client can keep only those inside its traced round.
    """
    from repro.harness.parallel import ResultCache, WorkerPool
    from repro.service.fairness import AdmissionQueue
    from repro.service.journal import RequestJournal

    def event(key: str, value: float) -> None:
        tracer.samples[key].append((time.monotonic(), value))

    def timed_events(owner, name: str, key: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf()
                result = original(*args, **kwargs)
                event(key, perf() - t0)
                return result

            return wrapper

        tracer.wrap(owner, name, make)

    timed_events(ResultCache, "get", "harness.cache.get")
    timed_events(ResultCache, "put", "harness.cache.put")
    timed_events(RequestJournal, "accepted", "service.journal.append")
    timed_events(RequestJournal, "done", "service.journal.append")

    pushed: Dict[object, float] = {}

    def push_wrapper(original):
        def push(queue, tenant, item, now):
            ok, retry = original(queue, tenant, item, now)
            if ok:
                pushed[item] = time.monotonic()
            return ok, retry

        return push

    def pop_wrapper(original):
        def pop(queue):
            item = original(queue)
            t0 = pushed.pop(item, None)
            if t0 is not None:
                event("service.queue_wait", time.monotonic() - t0)
            return item

        return pop

    tracer.wrap(AdmissionQueue, "push", push_wrapper)
    tracer.wrap(AdmissionQueue, "pop", pop_wrapper)

    submitted: Dict[object, float] = {}

    def submit_wrapper(original):
        def submit(pool, spec, token=None, *args, **kwargs):
            submitted[token] = time.monotonic()
            return original(pool, spec, token, *args, **kwargs)

        return submit

    def poll_wrapper(original):
        def poll(pool):
            exits = original(pool)
            for exit in exits:
                t0 = submitted.pop(exit.token, None)
                if t0 is not None:
                    event("harness.pool.exec", time.monotonic() - t0)
                if exit.kind == "crash":
                    event("harness.pool.crash_exits", 1.0)
            return exits

        return poll

    tracer.wrap(WorkerPool, "submit", submit_wrapper)
    tracer.wrap(WorkerPool, "poll", poll_wrapper)
