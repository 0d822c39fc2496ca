"""wassray benchmark runner.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one client, one thread, one process)
against the library in ``src/`` of the checkout it sits in, checks every
operation's output, and prints as its last stdout line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times the operations with nothing patched and reports the
end-to-end metrics. ``--trace 1`` repeats the workload's first block,
alternating untraced and traced rounds, and reports per-layer metrics from
the spans of the traced rounds plus the tracing overhead.

Times are scaled to a reference host speed (see ``SpeedTrack``); the line
before the result holds the unscaled figures. ``perfbench/BASELINE.md``
defines every metric and records the figures at the seed commit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("verify-all", "transport", "ray-schedules")
SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
PROBE_TIMEOUT_S = 60

# Median time of one SpeedProbe solve on the reference box (2-vCPU
# Firecracker VM, Python 3.11, scipy 1.17) in its fast phase. It only sets
# the scale: scaled times read as seconds on a host running at that speed.
REFERENCE_SOLVE_S = 2.5e-3
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "goodput_ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="set up, print setup_s and exit"
    )
    return parser.parse_args(argv)


def import_library():
    # BLAS and OpenMP pools stay at one thread: the loop has one client.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "wassray" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wassray sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import wassray

    if Path(wassray.__file__).resolve().parent != (SRC / "wassray").resolve():
        sys.exit(f"perfbench: imported wassray from {wassray.__file__}, not from {SRC}")


class SpeedProbe:
    """Host-speed probe: a fixed 6x6 transport LP solved by scipy's HiGHS.

    The probe never calls wassray, so no change to the library can move
    it, and it runs the same scipy and HiGHS code that most of the
    library's time is spent in.
    """

    def __init__(self):
        import numpy as np
        from scipy import sparse
        from scipy.optimize import linprog

        n = 6
        rng = np.random.default_rng(0)
        var = np.arange(n * n)
        rows = np.concatenate([var // n, n + var % n])
        self._args = dict(
            c=rng.random(n * n),
            A_eq=sparse.csr_matrix((np.ones(2 * n * n), (rows, np.tile(var, 2)))),
            b_eq=np.full(2 * n, 1.0 / n),
            bounds=(0.0, None),
            method="highs",
        )
        self._linprog = linprog
        self()  # first call pays scipy's lazy imports

    def __call__(self) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self._linprog(**self._args)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class SpeedTrack:
    """Samples host speed every PROBE_INTERVAL_S, from a SIGALRM handler.

    On the reference box the same code runs up to 1.8x slower for seconds
    at a time, as other guests load the host. A timed span is scaled by
    REFERENCE_SOLVE_S over the mean probe time sampled inside it (or, for
    a span that holds no sample, the samples just before and just after
    it), and the time spent in probes is taken out of it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.speeds: list[float] = []
        self._paused = False
        self._pending = False
        self._busy = False

    def sample(self):
        self._busy = True  # a tick arriving meanwhile is dropped
        try:
            start = time.perf_counter()
            speed = self.probe()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
            self.speeds.append(speed)
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if self._paused:
            self._pending = True
        elif not self._busy:
            self.sample()

    def pause(self):
        """Hold probes back until ``resume``, e.g. while a traced call runs."""
        self._paused = True

    def resume(self):
        self._paused = False
        if self._pending:
            self._pending = False
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # a sample after the last span
        return False

    def _inside(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def busy(self, start, end) -> float:
        """Seconds spent probing between ``start`` and ``end``."""
        lo, hi = self._inside(start, end)
        return sum(self.durations[lo:hi])

    def scale(self, start, end) -> float:
        lo, hi = self._inside(start, end)
        window = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0) : lo + 1]
        return REFERENCE_SOLVE_S / statistics.mean(window)


@dataclass
class Record:
    kind: str
    primary: bool
    outcome: str
    start: float
    end: float
    elapsed: float  # wall seconds of the call alone, probes taken out
    scaled: float = 0.0  # the same at the reference host speed; see rescale


def rescale(records, track):
    for r in records:
        r.scaled = r.elapsed * track.scale(r.start, r.end)
    return records


def run_round(ops, track, tracer=None, pause=False):
    """Run ops in order, timing each call alone; check outputs afterwards.

    The tracer, when given, is installed around each call only, and speed
    probes wait until the call returns, so probes and checks add no spans.
    ``pause`` holds probes back in the same way without tracing, so that
    untraced and traced rounds are timed alike.
    """
    from workloads import FAILED

    pause = pause or tracer is not None
    outputs = []
    for op in ops:
        error = None
        if pause:
            track.pause()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out, error = None, exc
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        if pause:
            track.resume()
        outputs.append((out, error, start, end))
    records = []
    for op, (out, error, start, end) in zip(ops, outputs):
        if error is not None:
            print(f"perfbench: {op.kind} raised", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
            outcome = FAILED
        else:
            outcome = op.check(out)
        elapsed = end - start - track.busy(start, end)
        records.append(Record(op.kind, op.primary, outcome, start, end, elapsed))
    return records


def setup(args, workdir, track):
    """Everything before the first timed operation, then the time it ended."""
    from workloads import WORKLOADS

    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    first = workload.block(0)
    warm = run_round(first[:1], track)[0]  # untimed warm-up: lazy imports, first-call caches
    return workload, first, warm, time.perf_counter()


def probe_setup(args):
    """Scaled set-up time of fresh processes, each going through ``setup`` alone."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_loop(workload, first, track, seconds):
    """Whole blocks, one after another, until ``seconds`` have passed."""
    records = []
    deadline = time.perf_counter() + seconds
    b = 0
    while True:
        records += run_round(first if b == 0 else workload.block(b), track)
        workload.release(b)
        b += 1
        if time.perf_counter() >= deadline:
            return records


def latency_summary(records, field):
    """(goodput per s, median ms, p90 ms, samples) of the successful ops, by ``field``."""
    from workloads import OK

    ok = [r for r in records if r.outcome == OK]
    latencies = [getattr(r, field) for r in ok if r.primary]
    if not latencies:
        raise RuntimeError("no successful primary operation was timed")
    if len(latencies) == 1:
        p90 = latencies[0]
    else:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    goodput = len(ok) / sum(getattr(r, field) for r in records)
    return goodput, 1e3 * statistics.median(latencies), 1e3 * p90, len(latencies)


def end_to_end(records, setup_samples):
    from workloads import OK

    goodput, p50, p90, _ = latency_summary(records, "scaled")
    values = {
        "setup_s": statistics.median(setup_samples),
        "goodput_ops_per_s": goodput,
        "ok_frac": sum(r.outcome == OK for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_loop(args, first, track):
    """Alternate untraced and traced rounds of the first block.

    Returns the records, (untraced, traced) record pairs per round, and
    the per-layer metrics: counts from the first traced round, which must
    repeat exactly in every later one, and times as medians over rounds.
    """
    from tracer import LAYER_METRICS, Tracer, layer_metrics, write_spans

    tracer = Tracer()
    records, pairs, rounds, first_spans = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        if len(rounds) % 2:  # alternate which side runs first
            traced = run_round(first, track, tracer)
            plain = run_round(first, track, pause=True)
        else:
            plain = run_round(first, track, pause=True)
            traced = run_round(first, track, tracer)
        spans = tracer.take()
        first_spans = first_spans or spans
        rounds.append(layer_metrics(spans))
        records += plain + traced
        pairs.append((plain, traced))
    metrics = {}
    repeat = True
    for m in LAYER_METRICS:
        series = [r[m.name] for r in rounds]
        if m.unit == "s":
            value = statistics.median(series)
        else:
            value = series[0]
            repeat = repeat and all(v == value for v in series)
        metrics[m.name] = {"value": value, "unit": m.unit}
    write_spans(first_spans, OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    return records, pairs, metrics, repeat


def trace_overhead(pairs):
    """Median scaled traced round over median scaled untraced round, minus one."""
    plain = statistics.median(sum(r.scaled for r in p) for p, _ in pairs)
    traced = statistics.median(sum(r.scaled for r in t) for _, t in pairs)
    return traced / plain - 1.0


def main(argv=None):
    args = parse_args(argv)
    import_library()
    from workloads import FAILED, OK, WRONG

    track = SpeedTrack(SpeedProbe())
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        with track:
            workload, first, warm, setup_end = setup(args, workdir, track)
            setup_wall = setup_end - T_START - track.busy(T_START, setup_end)
            track.sample()
            if args.setup_probe:
                records = []
            elif args.trace:
                records, pairs, metrics, repeat = traced_loop(args, first, track)
            else:
                records = timed_loop(workload, first, track, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rescale(records, track)
    setup_s = setup_wall * track.scale(T_START, setup_end)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics["trace_overhead_frac"] = {"value": trace_overhead(pairs), "unit": "ratio"}
        info = {"traced_rounds": len(pairs), "counts_repeat": repeat}
    else:
        metrics = end_to_end(records, [setup_s] + probe_setup(args))
        goodput, p50, p90, samples = latency_summary(records, "elapsed")
        info = {"latency_samples": samples, "unscaled": {
            "setup_s": setup_wall, "goodput_ops_per_s": goodput, "op_p50_ms": p50,
            "op_p90_ms": p90}}
        repeat = True
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, {OK: 0, FAILED: 0, WRONG: 0})[r.outcome] += 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ops": by_kind,
                      "warm_up": warm.outcome, **info, **workload.info()}))
    # every operation of every workload succeeds on a sound library, so a
    # failed operation is as much a fault as a wrong answer
    all_ok = warm.outcome == OK and all(r.outcome == OK for r in records)
    result = {
        "correct": repeat and all_ok,
        "attempted": len(records),
        "failed": sum(r.outcome != OK for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
