"""The four benchmark workloads, their checks, and the traced run.

Every in-process workload is a fixed list of *cells* (one timed unit of
work each).  A run sets the workload up ``SETUPS`` times (caches cleared,
fresh store, recordings, one untimed warm-up round) and keeps the last
set-up, then runs timed rounds until its time is up.  Each round visits
every cell once in an order drawn from the benchmark seed; ``gc.collect``
runs before each cell and each output is checked after it, both outside
the timed region.  ``pass_s`` is the sum over cells of each cell's median
time across rounds, which stays steady where whole-round totals do not.

In-process times are reported at a reference host speed.  The shared
host's speed moves by up to 2x within seconds to minutes, so each timed
piece of work is bracketed by runs of a fixed calibration kernel, and its
wall time ``dt`` is reported as ``dt * REF_KERNEL_S / kernel_dt``, where
``kernel_dt`` is the mean kernel time just before and just after it: the
time it would take on a host where the kernel takes ``REF_KERNEL_S``.
The kernel runs no ``repro`` code, so a change in the program moves the
scaled times as much as the wall times.  ``service-mix`` times stay wall
times: its work runs in the daemon's processes, out of the kernel's reach.

``service-mix`` drives the real daemon over two keep-alive loopback
connections in a closed loop; there a cell is one request of a round.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from layers import Tracer, install_program_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

#: the paper's tool, Helgrind+ with library interception and spin(7)
TOOL = "helgrind-lib-spin"
#: VM seeds the service rounds draw from (one per round, so each round's
#: submissions are cold); every one of them is pinned in golden.json
SERVICE_SEEDS = tuple(range(1001, 1009))
SETUPS = 3
WORKLOADS = ("parsec-live", "parsec-replay", "suite-record", "service-mix")
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "cold_p50_ms": "ms",
    "cold_p95_ms": "ms",
}
#: the calibration kernel's time on the reference host
REF_KERNEL_S = 1e-3
TENANTS = ("tenant-a", "tenant-b")
CONNECTIONS = 2

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Golden fingerprints


def golden_key(workload: str, preset: str, seed: int) -> str:
    return f"{workload}|{preset}|{seed}"


def report_hex(report) -> str:
    """sha256 of ``Report.fingerprint()``: the form the daemon serves."""
    return hashlib.sha256(report.fingerprint().encode()).hexdigest()


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["fingerprints"]


def regenerate_golden() -> int:
    """Pin every fingerprint any seed can ask for, from direct live runs.

    Replays and daemon verdicts are then checked against live analysis,
    so a path that drifts from it shows as a mismatch.
    """
    import repro
    from repro.detectors import ToolConfig
    from repro.workloads import build_suite, parsec_workloads

    fps: Dict[str, str] = {}
    not_ok: List[str] = []

    def pin(name: str, preset: str, seed: int) -> None:
        session = repro.run(name, preset, seed=seed)
        if session.result.status != "ok":
            not_ok.append(golden_key(name, preset, seed))
        fps[golden_key(name, preset, seed)] = session.fingerprint

    for wl in parsec_workloads():
        for preset in ToolConfig.presets():
            pin(wl.name, preset, wl.seed)
    for wl in build_suite():
        pin(wl.name, TOOL, wl.seed)
        for seed in SERVICE_SEEDS:
            pin(wl.name, TOOL, seed)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(
            {
                "tool": TOOL,
                "presets": list(ToolConfig.presets()),
                "service_seeds": list(SERVICE_SEEDS),
                "fingerprints": dict(sorted(fps.items())),
            },
            fh,
            indent=0,
        )
        fh.write("\n")
    print(f"pinned {len(fps)} fingerprints in {GOLDEN_PATH}")
    for key in not_ok:
        print(f"status not ok: {key}")
    return 1 if not_ok else 0


# ---------------------------------------------------------------------------
# Bookkeeping


@dataclass
class Tally:
    """Operations attempted and failed; ``wrong`` marks wrong outputs."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, problems: Sequence[str], wrong: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += int(wrong)
            self.problems.extend(problems)


def check_report(golden, key: str, report, status: str) -> List[str]:
    problems = []
    if status != "ok":
        problems.append(f"{key}: status {status}")
    if golden.get(key) != report_hex(report):
        problems.append(f"{key}: fingerprint differs from golden")
    return problems


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def kernel() -> int:
    """The calibration kernel: plain interpreter work (about 1.2 ms on a
    2-vCPU x86-64 VM), the same instructions on every call."""
    table: Dict[int, int] = {}
    recent: List[int] = []
    acc = 0
    for i in range(4000):
        k = i & 255
        table[k] = table.get(k, 0) + i
        recent.append(k)
        if len(recent) > 64:
            recent.clear()
        acc += (i * 7) ^ k
    return acc


def kernel_s(runs: int = 1) -> float:
    """Median wall time of ``runs`` calls of the calibration kernel."""
    spent = []
    for _ in range(runs):
        t0 = perf()
        kernel()
        spent.append(perf() - t0)
    return statistics.median(spent)


def at_ref_speed(dt: float, kernel_dt: float) -> float:
    """Wall time ``dt``, measured while the kernel took ``kernel_dt``,
    scaled to the reference host."""
    return dt * REF_KERNEL_S / kernel_dt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_program_caches() -> None:
    from repro.analysis.instrument import clear_instrument_cache
    from repro.vm.decode import clear_decode_cache

    clear_instrument_cache()
    clear_decode_cache()


# ---------------------------------------------------------------------------
# In-process workloads


@dataclass
class Cell:
    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


class InProcess:
    """Base: ``setup`` builds ``cells``; ``before_round`` resets state."""

    name = ""

    def __init__(self, golden: Dict[str, str], work_dir: Path, limit: Optional[int]):
        self.golden = golden
        self.work_dir = work_dir
        self.limit = limit
        self.cells: List[Cell] = []

    def setup(self) -> None:
        raise NotImplementedError

    def before_round(self) -> None:
        pass

    def _take(self, items):
        return items[: self.limit] if self.limit else items


class ParsecLive(InProcess):
    name = "parsec-live"

    def setup(self) -> None:
        import repro
        from repro.workloads import parsec_workloads

        for wl in self._take(parsec_workloads()):
            key = golden_key(wl.name, TOOL, wl.seed)
            self.cells.append(
                Cell(
                    wl.name,
                    lambda name=wl.name: repro.run(name, TOOL),
                    lambda s, key=key: check_report(
                        self.golden, key, s.report, s.result.status
                    ),
                )
            )


class ParsecReplay(InProcess):
    name = "parsec-replay"

    def setup(self) -> None:
        import repro.trace
        from repro.detectors import ToolConfig
        from repro.trace import TraceStore, trace_key
        from repro.workloads import parsec_workloads

        self.store = TraceStore(self.work_dir / "traces")
        presets = ToolConfig.presets()
        for wl in self._take(parsec_workloads()):
            program = wl.fresh_program()
            trace = repro.trace.record_trace(program, seed=wl.seed, max_steps=wl.max_steps)
            key = trace_key(program.fingerprint(), wl.seed, wl.max_steps)
            self.store.put(key, trace)

            def run(key=key):
                trace = self.store.get(key)
                trace.batches()
                analyses = [repro.trace.analyze_trace(trace, p) for p in presets]
                return trace.status, analyses

            def check(out, wl=wl):
                status, analyses = out
                return [
                    problem
                    for p, a in zip(presets, analyses)
                    for problem in check_report(
                        self.golden, golden_key(wl.name, p, wl.seed), a.report, status
                    )
                ]

            self.cells.append(Cell(wl.name, run, check))


class SuiteRecord(InProcess):
    name = "suite-record"

    def setup(self) -> None:
        import repro.trace
        from repro.trace import trace_key
        from repro.workloads import build_suite

        self.rounds = 0
        self.store = None
        for wl in self._take(build_suite()):

            def run(wl=wl):
                program = wl.fresh_program()
                trace = repro.trace.record_trace(
                    program, seed=wl.seed, max_steps=wl.max_steps
                )
                key = trace_key(program.fingerprint(), wl.seed, wl.max_steps)
                self.store.put(key, trace)
                return key

            def check(key, wl=wl):
                # Read the stored recording back and analyze it: checks
                # the codec and the write path, not just the recorder.
                trace = self.store.get(key)
                if trace is None:
                    return [f"{wl.name}: stored trace unreadable"]
                report = repro.trace.analyze_trace(trace, TOOL).report
                return check_report(
                    self.golden, golden_key(wl.name, TOOL, wl.seed), report, trace.status
                )

            self.cells.append(Cell(wl.name, run, check))

    def before_round(self) -> None:
        from repro.trace import TraceStore

        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
        self.rounds += 1
        self.store = TraceStore(self.work_dir / f"traces-{self.rounds}")


IN_PROCESS = {cls.name: cls for cls in (ParsecLive, ParsecReplay, SuiteRecord)}


def run_round(
    wl: InProcess,
    rng: random.Random,
    tally: Tally,
    times: Dict[str, List[tuple]],
    tracer: Optional[Tracer] = None,
) -> float:
    """One pass over the cells in seeded order.

    Appends each cell's (scaled, wall) time to ``times``; returns the
    round's scaled total.
    """
    wl.before_round()
    order = list(wl.cells)
    rng.shuffle(order)
    total = 0.0
    for cell in order:
        gc.collect()
        kernel_before = kernel_s()
        if tracer is not None:
            install_program_layers(tracer)
        error = None
        t0 = perf()
        try:
            out = cell.run()
        except Exception as exc:  # a crashing cell is a failed operation
            error = exc
        dt = perf() - t0
        if tracer is not None:
            tracer.restore()
        scaled = at_ref_speed(dt, (kernel_before + kernel_s()) / 2)
        times.setdefault(cell.name, []).append((scaled, dt))
        total += scaled
        tally.add([f"{cell.name}: raised {error!r}"] if error else cell.check(out))
    return total


def set_up(cls, golden, work_root: Path, limit, rng, tally, setups: int):
    """Set the workload up ``setups`` times; returns (workload, scaled seconds each)."""
    wl = None
    spent = []
    for k in range(setups):
        if wl is not None:
            shutil.rmtree(wl.work_dir, ignore_errors=True)
        clear_program_caches()
        gc.unfreeze()
        gc.collect()
        kernel_before = kernel_s(3)
        t0 = perf()
        wl = cls(golden, work_root / f"setup-{k}", limit)
        wl.work_dir.mkdir(parents=True)
        wl.setup()
        dt = perf() - t0
        setup_s = at_ref_speed(dt, (kernel_before + kernel_s(3)) / 2)
        spent.append(setup_s + run_round(wl, rng, tally, {}))
        # Freeze what set-up and warm-up left (caches, stores) so the
        # collections in the timed rounds walk only what the cells
        # allocate, not the benchmark's and the caches' long-lived heap.
        gc.collect()
        gc.freeze()
    return wl, spent


def measure_in_process(name, golden, work_root, seed, seconds, limit=None, setups=SETUPS):
    rng = random.Random(seed)
    tally = Tally()
    wl, setup_times = set_up(IN_PROCESS[name], golden, work_root, limit, rng, tally, setups)
    times: Dict[str, List[tuple]] = {}
    totals: List[float] = []
    start = perf()
    while True:
        r0 = perf()
        totals.append(run_round(wl, rng, tally, times))
        elapsed = perf() - start
        if elapsed + (perf() - r0) > seconds:
            break
    medians = [statistics.median(s for s, _ in v) for v in times.values()]
    pass_s = sum(medians)
    return {
        "wall_pass_s": sum(statistics.median(w for _, w in v) for v in times.values()),
        "setup_times": setup_times,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb(),
        "req_per_s": len(medians) / pass_s,
        "cold_p50_ms": quantile(medians, 0.50) * 1000.0,
        "cold_p95_ms": quantile(medians, 0.95) * 1000.0,
        "cold_samples": len(medians),
        "round_totals": totals,
        "tally": tally,
    }


# ---------------------------------------------------------------------------
# service-mix


def _read_ready(proc: subprocess.Popen) -> dict:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(60.0):
            raise RuntimeError("daemon did not print its ready line")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"daemon exited before ready (code {proc.wait()})")
    return json.loads(line)


class Daemon:
    """One daemon process plus the benchmark's two client connections."""

    def __init__(self, work_dir: Path, trace_out: Optional[Path] = None) -> None:
        work_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        argv = [sys.executable, str(HERE / "daemon.py"), str(work_dir / "state")]
        if trace_out is not None:
            argv.append(str(trace_out))
        self.log = open(work_dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log
        )
        try:
            ready = _read_ready(self.proc)
        except Exception:
            self.stop()
            raise
        self.pid = ready["pid"]
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=120)
            for _ in range(CONNECTIONS)
        ]

    def post(self, conn, body: dict) -> dict:
        conn.request(
            "POST", "/v1/analyze", body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        return json.loads(conn.getresponse().read())

    def stats(self) -> dict:
        conn = self.conns[0]
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        for conn in getattr(self, "conns", ()):
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


@dataclass
class Reply:
    phase: str
    case: str
    latency_s: float
    status: str
    duration_s: float
    problems: List[str]
    wrong: bool


def service_round(daemon: Daemon, cases, golden, vm_seed: int, rng, tag: str):
    """Submit every case cold, then again; returns (replies, busy seconds)."""
    order = list(cases)
    rng.shuffle(order)
    replies: List[Reply] = []
    busy = 0.0
    with ThreadPoolExecutor(CONNECTIONS) as pool:
        for phase in ("cold", "repeat"):

            def client(j: int) -> List[Reply]:
                out = []
                for i in range(j, len(order), CONNECTIONS):
                    case = order[i]
                    body = {
                        "v": 1,
                        "id": f"{tag}-{phase}-{i}",
                        "tenant": TENANTS[(i // CONNECTIONS) % 2],
                        "kind": "workload",
                        "workload": case,
                        "tool": TOOL,
                        "seed": vm_seed,
                    }
                    t0 = perf()
                    resp = daemon.post(daemon.conns[j], body)
                    latency = perf() - t0
                    out.append(_reply(phase, case, latency, resp, golden, vm_seed))
                return out

            t0 = perf()
            futures = [pool.submit(client, j) for j in range(CONNECTIONS)]
            for fut in futures:
                replies.extend(fut.result())
            busy += perf() - t0
    return replies, busy


def _reply(phase, case, latency, resp, golden, vm_seed) -> Reply:
    status = resp.get("status", "?")
    problems: List[str] = []
    wrong = False
    if status != "ok":
        # No retry: a refused or failed request is a failed operation.
        problems.append(f"{case}@{vm_seed} {phase}: {status}: {resp.get('error')}")
    else:
        verdict = resp.get("verdict", {})
        key = golden_key(case, TOOL, vm_seed)
        if verdict.get("fingerprint") != golden.get(key):
            problems.append(f"{key} {phase}: fingerprint differs from golden")
            wrong = True
        if verdict.get("run_status") != "ok":
            problems.append(f"{key} {phase}: run status {verdict.get('run_status')}")
            wrong = True
    return Reply(
        phase, case, latency, status, float(resp.get("duration_s") or 0.0), problems, wrong
    )


def suite_cases(limit: Optional[int]) -> List[str]:
    from repro.workloads import build_suite

    names = [wl.name for wl in build_suite()]
    return names[:limit] if limit else names


def _tally_replies(tally: Tally, replies: Sequence[Reply]) -> None:
    for reply in replies:
        tally.add(reply.problems, wrong=reply.wrong)


def start_service(golden, work_root, seed, limit, tally, setups, trace_out=None):
    """Start the daemon ``setups`` times, each with a warm-up round."""
    cases = suite_cases(limit)
    rng = random.Random(seed)
    daemon = None
    spent = []
    for k in range(setups):
        if daemon is not None:
            daemon.stop()
        t0 = perf()
        daemon = Daemon(work_root / f"service-{k}", trace_out)
        try:
            replies, _ = service_round(
                daemon, cases, golden, SERVICE_SEEDS[seed % len(SERVICE_SEEDS)], rng, "warm"
            )
        except BaseException:
            daemon.stop()
            raise
        _tally_replies(tally, replies)
        spent.append(perf() - t0)
    return daemon, cases, rng, spent


def measure_service(golden, work_root, seed, seconds, limit=None, setups=SETUPS):
    tally = Tally()
    daemon, cases, rng, setup_times = start_service(
        golden, work_root, seed, limit, tally, setups
    )
    try:
        latencies: Dict[tuple, List[float]] = {}
        cold: List[float] = []
        totals: List[float] = []
        requests = 0
        busy = 0.0
        start = perf()
        for r in range(1, len(SERVICE_SEEDS)):
            r0 = perf()
            vm_seed = SERVICE_SEEDS[(seed + r) % len(SERVICE_SEEDS)]
            replies, round_busy = service_round(daemon, cases, golden, vm_seed, rng, f"r{r}")
            _tally_replies(tally, replies)
            busy += round_busy
            requests += len(replies)
            totals.append(sum(x.latency_s for x in replies))
            for x in replies:
                latencies.setdefault((x.phase, x.case), []).append(x.latency_s)
                if x.phase == "cold" and x.status == "ok":
                    cold.append(x.latency_s)
            if perf() - start + (perf() - r0) > seconds:
                break
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return {
        "setup_times": setup_times,
        "pass_s": sum(statistics.median(v) for v in latencies.values()),
        "peak_rss_mb": rss,
        "req_per_s": requests / busy,
        "cold_p50_ms": quantile(cold, 0.50) * 1000.0,
        "cold_p95_ms": quantile(cold, 0.95) * 1000.0,
        "cold_samples": len(cold),
        "round_totals": totals,
        "tally": tally,
    }


def end_to_end_metrics(result: dict, import_s: float) -> dict:
    values = {k: result[k] for k in END_TO_END if k != "setup_s"}
    values["setup_s"] = import_s + statistics.median(result["setup_times"])
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measure(workload: str, golden, work_root: Path, seed: int, seconds: float, **kw):
    if workload == "service-mix":
        return measure_service(golden, work_root, seed, seconds, **kw)
    return measure_in_process(workload, golden, work_root, seed, seconds, **kw)


# ---------------------------------------------------------------------------
# The traced run


#: per-layer metrics the in-process wrappers gather, with their units;
#: the two ratios are derived from cache statistics and store size
PROGRAM_LAYERS = {
    "isa.build_s": "s",
    "analysis.instrument_s": "s",
    "analysis.spin_loops": "count",
    "vm.decode_s": "s",
    "vm.decode_hit_ratio": "ratio",
    "vm.scheduler.pick_s": "s",
    "vm.scheduler.picks": "count",
    "vm.interp_self_s": "s",
    "vm.steps": "count",
    "vm.events": "count",
    "detectors.deliver_s": "s",
    "detectors.batches": "count",
    "detectors.delivered_events": "count",
    "detectors.finalize_s": "s",
    "detectors.racy_contexts": "count",
    "trace.record_s": "s",
    "trace.events": "count",
    "trace.store.put_s": "s",
    "trace.store.bytes_per_event": "B/event",
    "trace.store.get_s": "s",
    "trace.batches_s": "s",
    "trace.analyze_s": "s",
}


def traced_run(golden, work_root, seed, limit=None):
    """One untraced and one traced round of every workload, after set-up.

    Returns (per-layer metrics, per-workload layer breakdown, tally).
    Layer times and counts are summed over the traced rounds of the
    three in-process workloads; each workload's share is in the
    breakdown.  The service layers come from one traced daemon round.
    """
    from repro.vm.decode import decode_cache_info

    tally = Tally()
    tracer = Tracer()
    breakdown: Dict[str, Dict[str, float]] = {}
    untraced = traced = 0.0
    decode = {"hits": 0, "misses": 0}
    for name, cls in IN_PROCESS.items():
        rng = random.Random(seed)
        wl, _ = set_up(cls, golden, work_root / name, limit, rng, tally, 1)
        untraced += run_round(wl, rng, tally, {})
        before = {**tracer.secs, **tracer.counts}
        info = decode_cache_info()
        traced += run_round(wl, rng, tally, {}, tracer)
        for k in decode:
            decode[k] += decode_cache_info()[k] - info[k]
        after = {**tracer.secs, **tracer.counts}
        breakdown[name] = {k: v - before.get(k, 0) for k, v in after.items()
                           if v != before.get(k, 0)}
        if name == "suite-record":
            stored_bytes = wl.store.total_bytes()
        shutil.rmtree(wl.work_dir, ignore_errors=True)

    values = {**tracer.secs, **tracer.counts}
    values["vm.decode_hit_ratio"] = decode["hits"] / max(1, sum(decode.values()))
    values["trace.store.bytes_per_event"] = stored_bytes / max(
        1, breakdown["suite-record"].get("trace.events", 0)
    )
    metrics = {k: (values.get(k, 0), unit) for k, unit in PROGRAM_LAYERS.items()}
    metrics.update(traced_service(golden, work_root, seed, limit, tally))
    metrics["tracing_overhead"] = (traced / untraced, "ratio")
    return metrics, breakdown, tally


def traced_service(golden, work_root, seed, limit, tally) -> dict:
    trace_out = work_root / "service-trace.json"
    daemon, cases, rng, _ = start_service(golden, work_root, seed, limit, tally, 1, trace_out)
    try:
        stats0 = daemon.stats()
        lo = time.monotonic()
        replies, _ = service_round(
            daemon, cases, golden, SERVICE_SEEDS[(seed + 1) % len(SERVICE_SEEDS)], rng, "traced"
        )
        hi = time.monotonic()
        stats1 = daemon.stats()
        _tally_replies(tally, replies)
    finally:
        daemon.stop()
    with open(trace_out) as fh:
        events = json.load(fh)

    def window(key):
        return [v for t, v in events.get(key, []) if lo <= t <= hi]

    def p50_ms(values):
        return quantile(values, 0.5) * 1000.0 if values else 0.0

    cold = [x for x in replies if x.phase == "cold" and x.status == "ok"]
    received = stats1["received"] - stats0["received"]
    return {
        "harness.cache.get_s": (sum(window("harness.cache.get")), "s"),
        "harness.cache.put_s": (sum(window("harness.cache.put")), "s"),
        "harness.pool.exec_ms_p50": (p50_ms(window("harness.pool.exec")), "ms"),
        "harness.pool.crash_exits": (len(window("harness.pool.crash_exits")), "count"),
        "service.journal.append_s": (sum(window("service.journal.append")), "s"),
        "service.queue_wait_ms_p50": (p50_ms(window("service.queue_wait")), "ms"),
        "service.server_ms_p50": (p50_ms([x.duration_s for x in cold]), "ms"),
        "service.transport_ms_p50": (
            p50_ms([x.latency_s - x.duration_s for x in cold]), "ms"
        ),
        "service.index_hit_ratio": (
            (stats1["served_index"] - stats0["served_index"]) / max(1, received),
            "ratio",
        ),
        "service.errors": (sum(1 for x in replies if x.status != "ok"), "count"),
    }
