"""dimwalk benchmark.

    python3 bench/run.py --workload walk|series|cli|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.

Each measurement happens in a worker process (this script with
``--worker``). ``setup_s`` is the median, over SETUP_SAMPLES workers, of the
time from spawning a worker until it reports that its set-up is done:
interpreter start, ``import dimwalk``, input generation and one untimed
warm-up round. Only the last worker goes on to the timed rounds.
"""

import os

# The program computes serially; pinning BLAS/OpenMP pools keeps numpy from
# spreading work over helper threads that compete for the machine's cores.
# Set before numpy is imported here, and inherited by every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # a run, set-ups and checks included, ends within this
WORKLOADS = ("walk", "series", "cli")
CLI_COMMANDS = ("coeffs", "model", "walk", "eval", "verify", "extract")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "round_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "accurate_outputs": "count",
}


def per_layer_units() -> dict:
    import spans

    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in spans.WARMUP_SPANS:
        units[f"{name}.warmup_calls"] = "count"
        units[f"{name}.warmup_self_s"] = "s"
    for name in spans.COUNTERS:
        units[name] = "B"
    units["cli.import_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
        units[f"cli.{cmd}.peak_rss_mb"] = "MB"
    units["trace.overhead_pct"] = "%"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    p.add_argument("--worker", choices=("probe", "measure", "trace"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- worker side


class Phase:
    """Timings of the timed rounds of one phase."""

    def __init__(self, n_ops):
        self.rounds: list[float] = []
        self.wall = self.cpu = 0.0
        self.attempted = 0
        self.mismatch = [0] * n_ops
        self.op_walls = [[] for _ in range(n_ops)]
        self.op_rss = [0.0] * n_ops

    @property
    def ops_per_s(self):
        return self.attempted / self.wall


def run_rounds(wl, seconds, warm, phase):
    """Whole rounds until `seconds` have passed (at least one round)."""
    needed = {op.src for op in wl.ops if op.src is not None}
    start = time.perf_counter()
    while True:
        outs, round_wall = [], 0.0
        for i in range(len(wl.ops)):
            out, wall, cpu = wl.run_op(i, outs)
            # keep only outputs a later operation reads, so that the harness
            # holds no extra objects for the garbage collector to scan
            outs.append(out if i in needed else None)
            round_wall += wall
            phase.wall += wall
            phase.cpu += cpu
            phase.attempted += 1
            phase.op_walls[i].append(wall)
            phase.op_rss[i] = max(phase.op_rss[i], wl.last_rss_mb)
            if not out == warm[i]:
                phase.mismatch[i] += 1
        phase.rounds.append(round_wall)
        if time.perf_counter() - start >= seconds:
            return


def failures(check, phase) -> int:
    rounds = len(phase.rounds)
    return sum(rounds if not ok else m for ok, m in zip(check.ok, phase.mismatch))


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import dimwalk

    if Path(dimwalk.__file__).resolve().parent != (ROOT / "src" / "dimwalk").resolve():
        print(f"error: imported dimwalk from {dimwalk.__file__}, not from src/", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _work(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _make(args, workdir):
    import workloads as W

    if args.workload == "walk":
        return W.Walk(args.seed, args.smoke)
    if args.workload == "series":
        return W.Series(args.seed, args.smoke)
    return W.Cli(args.seed, ROOT, workdir, args.smoke)


def _work(args, workdir) -> int:
    import spans

    tracing = args.worker == "trace"
    rec = spans.Recorder()
    uninstall = spans.install(rec) if tracing else None
    wl = _make(args, workdir)
    span_dir = workdir / "spans"
    span_dir.mkdir()
    if tracing and wl.name == "cli":
        wl.trace_dir = span_dir
    warm = []
    for i in range(len(wl.ops)):
        warm.append(wl.run_op(i, warm)[0])
    print("READY", flush=True)
    if args.worker == "probe":
        return 0

    if not tracing:
        phase = Phase(len(wl.ops))
        run_rounds(wl, args.seconds, warm, phase)
        peak = wl.peak_rss_mb()
        check = wl.check(warm)
        metrics = {
            "ops_per_s": phase.ops_per_s,
            "round_p50_s": statistics.median(phase.rounds),
            "cpu_s_per_op": phase.cpu / phase.attempted,
            "peak_rss_mb": peak,
            "accurate_outputs": check.accurate,
        }
        phases = [phase]
    else:
        metrics, phases = _traced(args, wl, warm, rec, uninstall, span_dir)
        check = wl.check(warm)
    for msg in check.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = sum(failures(check, ph) for ph in phases)
    attempted = sum(ph.attempted for ph in phases)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0


def _chunks(wl, rec):
    """Span documents recorded since the last call, in-process or per command."""
    if wl.name == "cli":
        docs, wl.round_spans = wl.round_spans, []
        return docs
    spans_, counters = rec.take()
    return [{"spans": spans_, "counters": counters}]


def _aggregate(docs, into):
    import spans

    for doc in docs:
        for name, (calls, self_s) in spans.self_times(doc["spans"]).items():
            acc = into.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in doc["counters"].items():
            acc = into.setdefault(name, [0, 0.0])
            acc[1] += value


def _traced(args, wl, warm, rec, uninstall, span_dir):
    """The warm-up round is traced. Then untraced and traced rounds alternate,
    in the order ut, tu, ut, ..., until `seconds` have passed, so that both
    kinds see the same drift of machine speed."""
    import spans

    warm_docs = _chunks(wl, rec)
    warm_totals: dict = {}
    _aggregate(warm_docs, warm_totals)
    uninstall()
    wl.trace_dir = None

    untraced, traced = Phase(len(wl.ops)), Phase(len(wl.ops))
    totals: dict = {}
    first_round: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced.rounds:
        order = (False, True) if len(traced.rounds) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                run_rounds(wl, 0, warm, untraced)
                continue
            uninstall = spans.install(rec)
            if wl.name == "cli":
                wl.trace_dir = span_dir
            run_rounds(wl, 0, warm, traced)
            uninstall()
            wl.trace_dir = None
            docs = _chunks(wl, rec)
            if not first_round:
                first_round.extend(docs)
            _aggregate(docs, totals)

    rounds = len(traced.rounds)
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / rounds
        metrics[f"{name}.self_s"] = self_s / rounds
    for name in spans.WARMUP_SPANS:
        calls, self_s = warm_totals.get(name, (0, 0.0))
        metrics[f"{name}.warmup_calls"] = calls
        metrics[f"{name}.warmup_self_s"] = self_s
    for name in spans.COUNTERS:
        metrics[name] = totals.get(name, (0, 0.0))[1] / rounds
    metrics["cli.import_s"] = _import_time(wl) if wl.name == "cli" else 0.0
    for cmd in CLI_COMMANDS:
        idx = [i for i in range(len(wl.ops)) if wl.name == "cli" and wl.command(i) == cmd]
        per_round = [sum(untraced.op_walls[i][r] for i in idx) for r in range(len(untraced.rounds))]
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(per_round) if idx else 0.0
        metrics[f"cli.{cmd}.peak_rss_mb"] = max((untraced.op_rss[i] for i in idx), default=0.0)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced.ops_per_s / untraced.ops_per_s)

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"warmup": warm_docs, "first_traced_round": first_round}, fh)
    return metrics, [untraced, traced]


def _import_time(wl, samples=5) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dimwalk.cli"], env=wl.env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------ orchestrator side


class Worker:
    """One worker process; records when it prints READY."""

    def __init__(self, args, phase):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--worker", phase] + (["--smoke"] if args.smoke else [])
        self.ready_at = None
        self.lines: list[str] = []
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if line.strip() == "READY" and self.ready_at is None:
                self.ready_at = time.perf_counter()
            else:
                self.lines.append(line)

    def finish(self, deadline) -> int:
        self.reader.join(max(0.0, deadline - time.perf_counter()))
        if self.reader.is_alive():
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            self.reader.join()
            raise TimeoutError("worker did not finish in time")
        return self.proc.wait()


def orchestrate(args) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    phases = ["trace"] if args.trace else ["probe"] * (SETUP_SAMPLES - 1) + ["measure"]
    setups = []
    for phase in phases:
        w = Worker(args, phase)
        code = w.finish(deadline)
        if code != 0 or w.ready_at is None:
            raise RuntimeError(f"{phase} worker for {args.workload} exited with {code}")
        setups.append(w.ready_at - w.t0)
    result = json.loads(w.lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def show(workload, res) -> None:
    print(f"# {workload}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {str(res['correct']).lower()}")
    for name, m in res["metrics"].items():
        print(f"{workload:8s} {name:40s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dimwalk" / "__init__.py").is_file():
        print(f"error: no dimwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = orchestrate(args)
        show(name, results[name])
    if args.trace:
        for name, res in results.items():
            print(f"{name}: tracing overhead {res['metrics']['trace.overhead_pct']['value']:.2f} % "
                  "of untraced ops_per_s")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
