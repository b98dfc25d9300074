"""Batched event delivery mechanics (machine-side)."""

from repro import ProgramBuilder, RaceDetector, ToolConfig, build_library
from repro.vm import Machine, RandomScheduler
from repro.vm.events import Event, MemRead, MemWrite


def _two_writer_program():
    pb = ProgramBuilder("batch_demo")
    pb.global_("X", 1)
    worker = pb.function("worker")
    x = worker.addr("X")
    worker.store(x, worker.add(worker.load(x), 1))
    worker.ret()
    main = pb.function("main")
    t1 = main.spawn("worker", [])
    t2 = main.spawn("worker", [])
    main.join(t1)
    main.join(t2)
    main.halt()
    pb.link(build_library())
    return pb.build()


class RecordingSink:
    """A minimal batch-capable listener recording delivery shapes."""

    batch_capable = True
    skip_in_library_traffic = False

    def __init__(self):
        self.batches = []
        self.events = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def consume_batch(self, reads, writes, ctrl=()):
        self.batches.append((list(reads), list(writes), list(ctrl)))


def _run(listener, batch_size=4096):
    machine = Machine(
        _two_writer_program(),
        scheduler=RandomScheduler(1),
        listener=listener,
        batch_size=batch_size,
    )
    return machine, machine.run()


def test_batch_capable_sink_gets_batches_not_events():
    sink = RecordingSink()
    machine, result = _run(sink)
    assert result.ok
    assert sink.batches, "no batch was ever flushed"
    # memory traffic arrived through consume_batch, not __call__
    assert not any(isinstance(e, (MemRead, MemWrite)) for e in sink.events)
    reads = [t for b in sink.batches for t in b[0]]
    writes = [t for b in sink.batches for t in b[1]]
    assert reads and writes
    # tuple shape: (seq, tid, addr, value, loc, atomic, in_library)
    assert all(len(t) == 7 for t in reads + writes)


def test_batch_sequence_numbers_reconstruct_total_order():
    sink = RecordingSink()
    _run(sink)
    seqs = []
    for reads, writes, ctrl in sink.batches:
        merged = sorted(
            [t[0] for t in reads] + [t[0] for t in writes] + [s for s, _ in ctrl]
        )
        # batches are disjoint, in-order windows of the event stream
        if seqs:
            assert merged[0] > seqs[-1]
        seqs.extend(merged)
    assert seqs == sorted(seqs)


def test_small_batch_size_forces_intermediate_flushes():
    big = RecordingSink()
    _run(big, batch_size=100_000)
    small = RecordingSink()
    _run(small, batch_size=4)
    assert len(small.batches) > len(big.batches)
    # same traffic either way
    flat = lambda b: [t for batch in b for kind in batch for t in kind]
    assert len(flat(small.batches)) == len(flat(big.batches))


def test_legacy_listener_still_gets_events():
    class LegacyListener:
        def __init__(self):
            self.events = []

        def __call__(self, event: Event) -> None:
            self.events.append(event)

    legacy = LegacyListener()
    machine, result = _run(legacy)
    assert result.ok
    assert any(isinstance(e, MemWrite) for e in legacy.events)
    assert machine._sink is None


def test_direct_step_bypasses_batching():
    """Batching only engages inside run(); manual stepping delivers
    per-event so external drivers (traces, debuggers) see everything."""
    sink = RecordingSink()
    machine = Machine(
        _two_writer_program(), scheduler=RandomScheduler(1), listener=sink
    )
    for _ in range(200):
        runnable = machine._runnable()
        if not runnable:
            break
        machine.step(machine.scheduler.pick(runnable))
    assert not sink.batches
    assert any(isinstance(e, (MemRead, MemWrite)) for e in sink.events)


def test_skip_in_library_traffic_follows_interception_mode():
    assert RaceDetector(ToolConfig.helgrind_lib()).skip_in_library_traffic
    assert not RaceDetector(
        ToolConfig.helgrind_nolib_spin(7)
    ).skip_in_library_traffic
