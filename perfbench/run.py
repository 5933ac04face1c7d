"""tsgan benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones. Lines before
it are a readable report: environment, per-round checks, and every metric
with its unit. See perfbench/NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import OPS, STAGES, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups per run; a fixed count, since each leaves the process's peak
# memory a little higher
SETUP_REPEATS = 5
# what the library workloads' process imports, timed in a fresh interpreter
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import numpy; from tsgan import data, evaluate, models, pipeline, stats, "
               "training; from tsgan.numcore import RngStream, Tensor; "
               "print(time.perf_counter() - t0)")
CLI_COMMANDS = ("synth-data", "ingest", "stats", "train", "forecast", "evaluate", "rerun")


def environment() -> dict:
    """Python, numpy, BLAS, cores, CPU model and the checkout's commit."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library (None if unknown)."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest subcommand process (MB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _rate(rounds: list[dict], work: str, seconds: str) -> float:
    """Work per second over the given rounds (0 if nothing was timed)."""
    spent = sum(r[seconds] for r in rounds)
    return sum(r[work] for r in rounds) / spent if spent else 0.0


def _kinds(workload) -> tuple:
    """The kinds of round a workload takes turns at; most have one."""
    return getattr(workload, "ROUND_KINDS", ("",))


def _by_kind(rounds: list[dict]) -> dict:
    groups = {}
    for r in rounds:
        groups.setdefault(r.get("kind", ""), []).append(r)
    return groups


def _per_set(rounds: list[dict], key: str) -> float:
    """Mean `key` of one round of each kind, summed over the kinds."""
    return sum(statistics.fmean(r[key] for r in rs) for rs in _by_kind(rounds).values())


def typical(rounds: list[dict], scaled: bool = True) -> tuple[float, float, float]:
    """(wall_s, train windows/s, forecast windows/s): medians over the rounds.

    For each kind of round, the median round wall time and the median
    training seconds among the rounds that trained; wall_s sums the former
    over the kinds, and the training rate is one round of each kind's rows
    over the sum of the latter. The forecast rate is the median over the
    evaluation forecasts. With `scaled`, each round's seconds are first
    scaled to the reference host speed by its `scale`.
    """
    def sec(r, key):
        return r[key] * (r["scale"] if scaled else 1.0)

    wall = rows = train_s = 0.0
    for rs in _by_kind(rounds).values():
        wall += statistics.median(sec(r, "wall_s") for r in rs)
        trained = [r for r in rs if r["train_s"] > 0]
        if trained:
            rows += trained[0]["train_rows"]
            train_s += statistics.median(sec(r, "train_s") for r in trained)
    forecasts = [r["forecast_units"] / sec(r, "forecast_s") for r in rounds
                 if r.get("forecast_s", 0) > 0]
    return (wall, rows / train_s if train_s else 0.0,
            statistics.median(forecasts) if forecasts else 0.0)


def _rounds(workload, ops, budget_s=None, count=None, start=0, meter=None,
            rss_children=False, **kwargs) -> list:
    """Run exactly `count` rounds, or as many as fit in `budget_s`.

    Without a count, a further round starts only if a round of the mean
    length so far still ends within the budget, so a run's length stays near
    its budget; but every kind of round runs at least once. Rounds are
    numbered from `start`; a round's number picks its inputs and its kind. A
    library workload's evaluation forecast follows a round, outside its
    `wall_s`, unless the round says it has nothing new to forecast with.
    A `meter` samples the host's speed before each round and after the last,
    and each round's `scale` takes its seconds to the reference host speed.
    Each round records the peak memory so far (of the largest child process
    with `rss_children`).
    """
    forecast = getattr(workload, "forecast", None)
    done, marks = [], []   # marks: the meter's sample before each round
    t0 = time.perf_counter()
    while True:
        gc.collect()  # the last round's garbage goes before this one starts
        marks.append(meter.sample() if meter is not None else None)
        r0 = time.perf_counter()
        out = workload.round(ops, start + len(done), **kwargs)
        # probe calls a round makes itself are not its work
        out["wall_s"] = time.perf_counter() - r0 - out.pop("probe_s", 0.0)
        out["peak_rss_mb"] = _peak_rss_mb(rss_children)
        if forecast is not None and out.pop("forecast_after", True):
            out["forecast_units"], out["forecast_s"] = ops.run("forecast", forecast) or (0, 0.0)
        done.append(out)
        elapsed = time.perf_counter() - t0
        if count is not None:
            finished = len(done) >= count
        else:
            finished = (len(done) >= len(_kinds(workload))
                        and elapsed * (len(done) + 1) / len(done) > budget_s)
        if finished:
            marks.append(meter.sample() if meter is not None else None)
            for r, before, after in zip(done, marks, marks[1:]):
                r["scale"] = meter.scale(before, after) if meter is not None else 1.0
            return done


def _sum_snapshots(snaps: list[dict]) -> dict:
    total = {"seconds": {}, "calls": {}, "counts": {}, "stage_ops": {}, "stage_steps": {},
             "intervals_ms": [], "loop_self_s": 0.0, "cli": {}}
    for snap in snaps:
        for key in ("seconds", "calls", "counts", "stage_steps", "cli"):
            for k, v in snap.get(key, {}).items():
                total[key][k] = total[key].get(k, 0) + v
        for stage, ops in snap["stage_ops"].items():
            dest = total["stage_ops"].setdefault(stage, {})
            for op, n in ops.items():
                dest[op] = dest.get(op, 0) + n
        total["intervals_ms"] += snap["intervals_ms"]
        total["loop_self_s"] += snap["loop_self_s"]
    return total


def _exact_counts(snap: dict) -> dict:
    """The counts of one round that must repeat exactly from round to round."""
    return {"calls": snap["calls"], "counts": snap["counts"],
            "stage_ops": snap["stage_ops"], "stage_steps": snap["stage_steps"]}


def per_layer_metrics(rounds: list[dict], sets: int, overhead_s: float) -> dict:
    """Per-layer values per set of rounds (one round of each kind), from one
    tracer snapshot per round."""
    n = sets
    total = _sum_snapshots(rounds)
    avg = {key: {k: v / n for k, v in total[key].items()}
           for key in ("seconds", "calls", "counts", "cli")}
    sec, calls, cnt = avg["seconds"], avg["calls"], avg["counts"]

    def s(name):
        return sec.get(name, 0.0)

    def c(name):
        return calls.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = c("tensor.backward")
    intervals = sorted(total["intervals_ms"])
    p50 = statistics.median(intervals) if intervals else 0.0
    p99 = (statistics.quantiles(intervals, n=100, method="inclusive")[98]
           if len(intervals) >= 2 else (intervals[0] if intervals else 0.0))
    m = {
        ("tensor.backward_s", "s"): s("tensor.backward"),
        ("tensor.backward_calls", "count"): steps,
        ("tensor.nodes_per_step", "count"): ratio(cnt.get("tensor.nodes", 0), steps),
        ("tensor.leaves_per_step", "count"): ratio(cnt.get("tensor.leaves", 0), steps),
    }
    for op in OPS:
        m[(f"tensor.nodes.{op}", "count")] = ratio(cnt.get(f"tensor.nodes.{op}", 0), steps)
    for stage in STAGES:
        ops = total["stage_ops"].get(stage, {})
        m[(f"tensor.nodes_per_step.{stage}", "count")] = ratio(
            sum(ops.values()), total["stage_steps"].get(stage, 0))
    m.update({
        ("network.forward_train_s", "s"): s("network.forward_train"),
        ("network.forward_train_calls", "count"): c("network.forward_train"),
        ("network.forward_eval_s", "s"): s("network.forward_eval"),
        ("network.forward_eval_calls", "count"): c("network.forward_eval"),
        ("network.forward_eval_rows_per_call", "rows"): ratio(
            cnt.get("network.forward_eval_rows", 0), c("network.forward_eval")),
        ("synthesis.forecast_s", "s"): s("synthesis.forecast"),
        ("synthesis.predict_calls", "count"): cnt.get("synthesis.predict_calls", 0),
        ("synthesis.predict_rows_per_call", "rows"): ratio(
            cnt.get("synthesis.predict_rows", 0), cnt.get("synthesis.predict_calls", 0)),
        ("optim.step_s", "s"): s("optim.step"),
        ("optim.step_calls", "count"): c("optim.step"),
        ("optim.clip_s", "s"): s("optim.clip"),
        ("optim.clip_calls", "count"): c("optim.clip"),
        ("optim.leaf_grads_s", "s"): s("optim.leaf_grads"),
        ("rng.draw_s", "s"): s("rng.draw"),
        ("rng.draw_calls", "count"): c("rng.draw"),
        ("training.step_ms_p50", "ms"): p50,
        ("training.step_ms_p99", "ms"): p99,
        ("training.loop_self_s", "s"): total["loop_self_s"] / n,
        ("pipeline.prepare_s", "s"): s("pipeline.prepare"),
        ("pipeline.prepare_calls", "count"): c("pipeline.prepare"),
        ("data.repair_s", "s"): s("data.repair"),
        ("data.features_s", "s"): s("data.features"),
        ("data.windows_s", "s"): s("data.windows"),
        ("checkpoint.save_s", "s"): s("checkpoint.save"),
        ("checkpoint.load_s", "s"): s("checkpoint.load"),
        ("checkpoint.bytes", "bytes"): cnt.get("checkpoint.bytes", 0),
        ("manifest.write_s", "s"): s("manifest.write"),
        ("manifest.digest_s", "s"): s("manifest.digest"),
        ("manifest.digest_bytes", "bytes"): cnt.get("manifest.digest_bytes", 0),
        ("evaluate.sweep_s", "s"): s("evaluate.sweep"),
    })
    for command in CLI_COMMANDS:
        m[(f"cli.{command}_s", "s")] = avg["cli"].get(command, 0.0)
    m[("trace.overhead_s", "s")] = overhead_s
    return {name: {"value": float(v), "unit": unit} for (name, unit), v in m.items()}


def build(name: str, seed: int, work: Path):
    import workloads as w
    if name == "cli-chain":
        return w.CliChain(seed, work, HERE)
    classes = {c.name: c for c in (w.RecurrentDesk, w.WganCritic, w.GeneratorFull)}
    return classes[name](seed)


WORKLOAD_NAMES = ("recurrent-desk", "wgan-critic", "cli-chain", "generator-full")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (numpy and every tsgan module)
    env = environment()
    print(f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    if (env["blas_threads"] or 0) > env["nproc"]:
        print(f"# warning: BLAS runs {env['blas_threads']} threads on {env['nproc']} cores")

    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        return _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def _import_s() -> float:
    """Seconds to import numpy and tsgan in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def _measure(name, seed, seconds, trace, work) -> dict:
    from workloads import Ops
    wl = build(name, seed, work)
    ops = Ops()
    cli = name == "cli-chain"
    # The library workloads' set-up also counts the import of tsgan that their
    # process starts with, timed in a fresh interpreter each repeat; the chain
    # pays its imports inside every set-up process.
    # the traced run reports seconds as measured
    meter = hostspeed.Meter() if wl.HOST_SCALED and not trace else None
    setups = []   # (seconds, scale to the reference host speed)
    after = meter.sample() if meter is not None else None
    for _ in range(getattr(wl, "SETUP_REPEATS", SETUP_REPEATS)):
        before = after
        gc.collect()
        imported = 0.0 if cli else ops.run("import", _import_s) or 0.0
        t0 = time.perf_counter()
        ops.run("setup", wl.setup)
        dt = imported + time.perf_counter() - t0
        after = meter.sample() if meter is not None else None
        setups.append((dt, meter.scale(before, after) if meter is not None else 1.0))

    if not trace:
        rounds = _rounds(wl, ops, budget_s=seconds, meter=meter, rss_children=cli)
        wall, train_rate, forecast_rate = typical(rounds)
        metrics = {
            "setup_s": (statistics.median(t * scale for t, scale in setups), "s"),
            "wall_s": (wall, "s"),
            "train_windows_per_s": (train_rate, "windows/s"),
            "forecast_windows_per_s": (forecast_rate, "windows/s"),
            # after one round of each kind: a slow host runs fewer rounds, and
            # the peak creeps up over rounds by a few MB
            "peak_rss_mb": (rounds[len(_kinds(wl)) - 1]["peak_rss_mb"], "MB"),
            "pass_ratio": ((ops.attempted - ops.failed) / ops.attempted, "ratio"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
        if meter is not None:
            calls = [t for sample in meter.samples for t in sample]
            print(f"# host speed: {len(calls)} probe calls, {min(calls):.6f} to "
                  f"{max(calls):.6f} s, median {statistics.median(calls):.6f} s; "
                  f"reference {hostspeed.REFERENCE_S} s")
            raw = typical(rounds, scaled=False)
            print(f"# as measured, before scaling: setup_s "
                  f"{statistics.median(t for t, _ in setups):.6g} s, wall_s {raw[0]:.6g} s, "
                  f"train_windows_per_s {raw[1]:.6g}, forecast_windows_per_s {raw[2]:.6g}")
        print("# setups (s, scale): " + ", ".join(f"{t:.4f} {sc:.4f}" for t, sc in setups))
        for i, r in enumerate(rounds):
            line = (f"# round {i} {r.get('kind', '')}: wall {r['wall_s']:.4f} s, train "
                    f"{_rate([r], 'train_rows', 'train_s'):.2f} windows/s")
            if "forecast_s" in r:
                line += f", forecast {_rate([r], 'forecast_units', 'forecast_s'):.2f} windows/s"
            print(line + (f", scale {r['scale']:.4f}" if meter is not None else ""))
        print(f"# fail_ratio {ops.failed / ops.attempted} ({ops.failed} of {ops.attempted} "
              f"operations failed)")
    else:
        plain = _rounds(wl, ops, budget_s=seconds / 2.0)
        # whole sets of rounds, at least two of each kind, so that the repeat
        # check compares something
        kinds = len(_kinds(wl))
        sets = max(2, -(-len(plain) // kinds))
        count = sets * kinds
        traced, snaps = [], []
        if cli:
            traced = _rounds(wl, ops, count=count, start=len(plain), trace=True)
            snaps = [_sum_snapshots(r["traces"]) for r in traced]
        else:
            tracer = Tracer()
            install(tracer)
            for i in range(count):
                tracer.reset()
                traced += _rounds(wl, ops, count=1, start=len(plain) + i)
                snaps.append(tracer.snapshot())
        for snap, r in zip(snaps, traced):
            snap["kind"] = r.get("kind", "")
        ops.run("counts repeat", _check_repeat, snaps)
        overhead = _per_set(traced, "wall_s") - _per_set(plain, "wall_s")
        metrics = per_layer_metrics(snaps, sets, overhead)
        _print_stages(snaps)
        print(f"# rounds {len(plain)} untraced, {len(traced)} traced")
    for note in ops.notes:
        print("# " + note)
    for key, m in metrics.items():
        print(f"# {key} {m['value']!r} {m['unit']}")
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def _check_repeat(snaps: list[dict]) -> None:
    """Each traced round's counts equal those of the first round of its kind."""
    from workloads import check
    first = {}
    for i, snap in enumerate(snaps):
        counts = first.setdefault(snap["kind"], _exact_counts(snap))
        check(_exact_counts(snap) == counts,
              f"traced round {i} counts differ from the first of its kind")


def _print_stages(snaps: list[dict]) -> None:
    """Tape nodes per update, by stage and op kind: the exact counts to claim against."""
    kinds = len({s["kind"] for s in snaps})
    snap = _sum_snapshots(snaps[:kinds])
    for stage, ops in sorted(snap["stage_ops"].items()):
        steps = snap["stage_steps"][stage]
        per = {op: n / steps for op, n in sorted(ops.items())}
        print(f"# stage {stage}: {steps} updates/set, nodes/update "
              f"{sum(ops.values()) / steps:g} " + json.dumps(per, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tsgan" / "__init__.py").is_file():
        print(f"error: no tsgan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
