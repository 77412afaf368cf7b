"""memcav benchmark: times each workload from outside the package.

    python3 bench/run.py --workload budget-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1

With ``--trace 0`` a run prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics of a
traced run of the same workload.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

T_PROCESS = time.perf_counter()

# Cap BLAS/OpenMP threads at nproc (default 1) before numpy is imported;
# child processes inherit the same settings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
for _var in THREAD_VARS:
    try:
        _n = int(os.environ.get(_var, "1"))
    except ValueError:
        _n = 1
    os.environ[_var] = str(max(1, min(_n, NPROC)))

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"
OUT = BENCH / "_out"
SETUP_REPEATS = 7       # setup_s is the median of this many fresh-process set-ups
SETUP_TIMEOUT_S = 120.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="workload name, see BENCHMARK.json")
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_memcav():
    """Put the checkout's src first on sys.path and import the benchmark modules."""
    if not (SRC / "memcav" / "__init__.py").is_file():
        sys.exit(f"error: memcav sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import memcav
    if Path(memcav.__file__).resolve().parent != (SRC / "memcav").resolve():
        sys.exit(f"error: imported memcav from {memcav.__file__}, not from {SRC}")


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(fails)


class Samples:
    """Per-unit (start, wall_s, items, traced), in flat arrays so that keeping
    them barely moves the process's peak RSS."""

    def __init__(self):
        self.columns = (array("d"), array("d"), array("q"), array("b"))

    def add(self, *row) -> None:
        for column, value in zip(self.columns, row):
            column.append(value)

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)


def run_loop(work, seconds: float, min_samples: int, tally: Tally, tracer_for, speed):
    """Run units of work for `seconds`; returns their Samples.

    tracer_for(i) picks the tracer of iteration i, so a traced run can
    alternate traced and untraced iterations over the same stretch of time.
    speed, if given, times its reference kernel between units, outside the
    timed region.
    """
    samples = Samples()
    i = 0
    t_start = time.perf_counter()
    while True:
        if speed:
            speed.tick()
        tr = tracer_for(i)
        with tr.iteration(i):
            t0 = time.perf_counter()
            result = work.run(i, tr)
            outer = time.perf_counter() - t0
        n, fails = work.check(i, result)
        tally.add(fails)
        if i >= work.warmup:
            samples.add(t0, work.wall(result, outer), n, tr.enabled)
        i += 1
        if (len(samples) >= min_samples and time.perf_counter() - t_start >= seconds
                and work.at_boundary(i)):
            if speed:
                speed.tick(force=True)
            return samples


def tail(walls: list[float], q: float) -> dict:
    import numpy as np

    walls = np.asarray(walls)
    p50, tail_value = np.quantile(walls, [0.5, q])
    return {"samples": len(walls), "p50": float(p50), "tail_percentile": round(100 * q, 3),
            "tail": float(tail_value), "samples_beyond_tail": int((walls > tail_value).sum())}


def setup_times(workload: str, seed: int, cwd: Path, speed) -> list[tuple[float, float]]:
    """Fresh processes that import memcav and make the inputs: [(start, seconds until ready)]."""
    from proc import time_until_ready

    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        t0 = time.perf_counter()
        wall, code, stderr = time_until_ready(argv, cwd, dict(os.environ), SETUP_TIMEOUT_S)
        if code != 0:
            sys.exit(f"error: set-up child exited {code}: {stderr.strip()}")
        out.append((t0, wall))
    speed.tick(force=True)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[label] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def environment(args, seconds) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": seconds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC, "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "caches": cache_sizes(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(work, samples, setups, loop_speed, setup_speed) -> tuple[dict, dict]:
    """Speed-scaled end-to-end metrics, plus the record of samples and raw figures."""
    def figures(loop_scale, setup_scale):
        walls = [wall * loop_scale(t0) for t0, wall, _, _ in samples]
        stats = tail(walls, work.tail_q)
        return stats, {
            "setup_s": statistics.median(wall * setup_scale(t0) for t0, wall in setups),
            "wall_s_p50": stats["p50"],
            "wall_s_tail": stats["tail"],
            "items_per_s": items / sum(walls),
        }

    items = sum(s[2] for s in samples)
    stats, metrics = figures(loop_speed.scale, setup_speed.scale)
    _, raw = figures(lambda t0: 1.0, lambda t0: 1.0)
    rss_kb = work.peak_rss_kb()
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    stats.update({"items": items, "item": work.item, "setup_samples": len(setups),
                  "speed_kernel_s_median": {"loop": statistics.median(loop_speed.took),
                                            "setup": statistics.median(setup_speed.took)},
                  "raw": raw})
    return metrics, stats


def bench_one(args, spec) -> int:
    import workloads as wl
    import speed
    from spans import CallCounter, NoTrace, Tracer

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = wl.Inputs(workdir, args.seed)
        work = wl.make(args.workload, inputs, SRC)
        setup_in_process = time.perf_counter() - T_PROCESS
        if args.setup_only:
            print("ready", flush=True)
            return 0

        tally = Tally()
        record = {"environment": environment(args, seconds),
                  "setup_in_process_s": setup_in_process}
        if args.trace == 0:
            setup_speed = speed.fresh_process(workdir)
            loop_speed = setup_speed if work.fresh_processes else speed.in_process(work.speed_window)
            setups = setup_times(args.workload, args.seed, workdir, setup_speed)
            no_trace = NoTrace()
            samples = run_loop(work, seconds, work.min_iterations, tally,
                               lambda i: no_trace, loop_speed)
            for fails in work.finish():
                tally.add(fails)
            metrics, record["samples"] = end_to_end(work, samples, setups, loop_speed, setup_speed)
            declared = spec["end_to_end"]
        else:
            import layers
            from memcav import qnd

            # odd iterations traced, even ones not: the overhead ratio then
            # compares iterations run over the same stretch of machine time
            no_trace, tr = NoTrace(), Tracer([CallCounter(qnd)])
            samples = run_loop(work, seconds, work.min_iterations, tally,
                               lambda i: tr if i % 2 else no_trace, None)
            for fails in work.finish():
                tally.add(fails)
            untraced = [s[1] for s in samples if not s[3]]
            traced = [s[1] for s in samples if s[3]]
            metrics = layers.layer_metrics(tr, work, SRC, statistics.median(untraced),
                                           statistics.median(traced), len(traced))
            record["samples"] = {"untraced": tail(untraced, work.tail_q),
                                 "traced": tail(traced, work.tail_q)}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tr.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json")
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        sys.exit(f"error: non-finite metrics {bad}")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record.update(result)
    record["failures"] = tally.messages[:50]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for message in tally.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} seconds={seconds}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"{work.item}_per_s = {metrics['items_per_s']:.6g} 1/s")
        for name, value in record["samples"]["raw"].items():
            print(f"raw.{name} = {value:.6g} (unscaled)")
    print(f"ops_failed_ratio = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    print("# samples " + json.dumps(record["samples"], separators=(",", ":")))
    print("# environment " + json.dumps(record["environment"], separators=(",", ":")))
    print(json.dumps(result))
    return 0


def bench_all(args, spec) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    for w in spec["workloads"]:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("# environment")))
        try:
            ok = ok and proc.returncode == 0 and json.loads(lines[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload is not None and args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    import_memcav()
    return bench_all(args, spec) if args.all else bench_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
