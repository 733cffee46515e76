"""whiskerlab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ./src.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes over the same
inputs, reports the per-layer metrics from the traced ones, and the tracing
overhead as the difference between the two.  Metric names and units come
from BENCHMARK.json; the last line of standard output is the JSON result.
Details (environment, exact counts, output digests, latency tail) go to
bench/out/<workload>-seed<seed>-trace<trace>.json, and the spans of a traced
run to bench/out/<workload>-seed<seed>-spans.jsonl.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPS = 5  # set-ups per untraced run; setup_s takes their median
MIN_PASSES = 4  # untraced passes a run makes at least, so each interval has a fastest of 4
# Imports numpy, the package and the workloads in a fresh interpreter and
# prints how long that took; argv holds the directories to import from.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - t)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("stream", "live", "protocol"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "whiskerlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no whiskerlab source tree at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import whiskerlab

    if Path(whiskerlab.__file__).resolve().parent != SRC / "whiskerlab":
        print(f"whiskerlab imported from {whiskerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullTracer, Tracer

    spec = json.loads(spec_path.read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    wl = {"stream": workloads.Stream, "live": workloads.Live}.get(args.workload)
    wl = wl() if wl else workloads.Protocol(OUT)

    tracer = Tracer() if args.trace else NullTracer()
    setup_times, setup_digests = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        import_s = import_seconds()
        t0 = perf_counter()
        state, setup_info = wl.setup(args.seed, tracer)
        setup_times.append(import_s + perf_counter() - t0)
        setup_digests.append(setup_info.get("digests"))
    setup_spans = len(getattr(tracer, "spans", ()))
    untraced, traced = measure(wl, state, args.seconds, tracer, NullTracer())
    errors = [e for p in untraced + traced for e in p.errors]
    if len({(len(p.intervals), len(p.latencies)) for p in untraced + traced}) > 1:
        print("passes timed different numbers of intervals: an item failed in some passes "
              "and not in others\n" + "\n".join(errors[:10]), file=sys.stderr)
        return 1

    first = untraced[0]
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    if any(d != setup_digests[0] for d in setup_digests):
        failed += 1
        errors.append("set-ups with one seed produced different models")
    for k, p in enumerate(untraced[1:] + traced, start=1):
        if p.counts != first.counts or p.digests != first.digests:
            failed += 1
            errors.append(f"pass {k}: counts or outputs differ from pass 0")
    counts = {**setup_info.get("counts", {}), **first.counts}
    digests = {**setup_info.get("digests", {}), **first.digests}
    outputs_sha256 = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()

    latencies = np.array(fastest([p.latencies for p in untraced]) or [math.nan])
    tail_s = float(np.percentile(latencies, wl.tail_pct))
    tail = {"percentile": wl.tail_pct, "items": int(latencies.size), "passes": len(untraced),
            "beyond": int(np.sum(latencies > tail_s))}
    answers = {
        "error_rate": failed / attempted,
        "direction_acc": ratio(counts, "analysis.direction_right", "events.captures"),
        "accuracy": counts.get("learn.accuracy"),
    }
    wall_s = sum(fastest([p.intervals for p in untraced]))
    if args.trace:
        values = per_layer(tracer, counts, traced, setup_spans, wall_s)
        kind = "per_layer"
    else:
        values = {
            "setup_s": median(setup_times),
            "wall_s": wall_s,
            "slides_per_s": first.slides / wall_s,
            "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    env = environment(np)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setup_times,
        "passes": {"untraced": [sum(p.intervals) for p in untraced],
                   "traced": [sum(p.intervals) for p in traced]},
        "latency_tail": tail, "answers": answers, "counts": counts, "digests": digests,
        "outputs_sha256": outputs_sha256, "errors": errors, "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    report(details, wl, untraced, traced, attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(wl, state, seconds, tracer, null):
    """Repeat the workload's pass for ``seconds``, and at least MIN_PASSES
    times.  With tracing on, untraced and traced passes alternate and the
    run ends with as many of each."""
    untraced, traced = [], []
    start = perf_counter()
    while True:
        done = perf_counter() - start >= seconds
        if tracer.enabled:
            if done and len(traced) == len(untraced) >= 1:
                break
            traced_pass = len(untraced) > len(traced)
        else:
            if done and len(untraced) >= MIN_PASSES:
                break
            traced_pass = False
        p = wl.run_pass(state, tracer if traced_pass else null)
        (traced if traced_pass else untraced).append(p)
    return untraced, traced


def fastest(per_pass) -> list:
    """Each timed interval's shortest time across passes.  Every pass repeats
    the same work on the same inputs and the host can only slow it down, so
    the fastest reading is the steadiest estimate of the work's cost."""
    return [min(column) for column in zip(*per_pass, strict=True)]


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT / "bench")],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def ratio(counts, num, den):
    return counts[num] / counts[den] if counts.get(den) else None


def per_layer(tracer, counts, traced, setup_spans, wall_s) -> dict:
    """Per-layer metrics: median self time per call over every traced call
    (set-up included), exact counts of one pass (plus set-up), and the
    tracing overhead."""
    from workloads import FAMILY, GRID, TASKS

    times = tracer.self_times()

    def med(name, item_prefix="", scale=1.0):
        xs = [t for t, item in times.get(name, ()) if str(item).startswith(item_prefix)]
        return median(xs) * scale if xs else 0.0

    def count(name):
        return counts.get(name, 0)

    values = {
        "sim.simulate_slide.ms": med("sim.simulate_slide", scale=1e3),
        "sim.frames": count("sim.frames"),
        "features.features_stream.ms": med("features.features_stream", scale=1e3),
        "events.capture_samples.ms": med("events.capture_samples", scale=1e3),
        "events.captures": count("events.captures"),
        "events.capture_yield": ratio(counts, "events.one_capture_slides", "slides") or 0.0,
        "analysis.event_duration.ms": med("analysis.event_duration", scale=1e3),
        "analysis.identify_direction.ms": med("analysis.identify_direction", scale=1e3),
        "analysis.fit_log_regression.ms": med("analysis.fit_log_regression", scale=1e3),
        "analysis.indeterminate": count("analysis.indeterminate"),
        "analysis.direction_acc": ratio(counts, "analysis.direction_right", "events.captures") or 0.0,
        "taxel_grid.extract_taxels.ms": med("taxel_grid.extract_taxels", scale=1e3),
        "taxel_grid.frames": count("taxel_grid.frames"),
        # Computed, not measured: the ROI pixels of one colour channel per frame.
        "taxel_grid.bytes_read": count("taxel_grid.frames") * GRID.rows * GRID.cols * GRID.roi_side ** 2,
        "learn.dataset.build_dataset.s": med("learn.dataset.build_dataset"),
        "learn.dataset.attempts": count("learn.dataset.attempts"),
        "learn.dataset.retries": count("learn.dataset.retries"),
        "learn.dataset.capture_yield": ratio(counts, "learn.dataset.slides", "learn.dataset.attempts") or 0.0,
        "learn.dataset.save_dataset.s": med("learn.dataset.save_dataset"),
        "learn.dataset.load_dataset.s": med("learn.dataset.load_dataset"),
        "learn.dataset.jsonl_bytes": count("learn.dataset.jsonl_bytes"),
        "learn.dataset.split.s": med("learn.dataset.split"),
        "learn.evaluate.save_model.s": med("learn.evaluate.save_model"),
        "learn.evaluate.load_model.s": med("learn.evaluate.load_model"),
        "learn.evaluate.model_bytes": count("learn.evaluate.model_bytes"),
        "learn.accuracy": counts.get("learn.accuracy", 0.0),
        "learn.forest.nodes": count("learn.forest.nodes"),
        "learn.boosting.nodes": count("learn.boosting.nodes"),
        "trace.spans": (len(tracer.spans) - setup_spans) / len(traced),
        "trace.overhead_pct": (sum(fastest([p.intervals for p in traced])) / wall_s - 1) * 100,
    }
    for kind, family in FAMILY.items():
        values[f"learn.{family}.predict_row.ms"] = med(f"learn.{family}.predict", scale=1e3)
        values[f"learn.evaluate.evaluate.{family}.s"] = med("learn.evaluate.evaluate", kind + "/")
        for task in TASKS:
            values[f"learn.{family}.fit.{task}.s"] = med("learn.evaluate.train", f"{kind}/{task}")
            if family != "linear":
                values[f"learn.{family}.nodes.{task}"] = count(f"learn.{family}.nodes.{task}")
    return values


def blas_threads(np):
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import ctypes
    import glob

    libdir = os.path.dirname(os.path.dirname(np.__file__))
    for lib in glob.glob(os.path.join(libdir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
    }


def report(d, wl, untraced, traced, attempted, failed) -> None:
    """Human-readable summary; the JSON result line follows it."""
    env = d["env"]
    print(f"workload {d['workload']}  seed {d['seed']}  seconds {d['seconds']}  trace {d['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"({env['blas_threads']} threads), nproc {env['nproc']}, affinity {env['affinity_cpus']}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; {wl.item}s are the latency items")
    for name, m in d["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    tail = d["latency_tail"]
    print(f"  latency tail is p{tail['percentile']} of {tail['items']} {wl.item}s, each its fastest of "
          f"{tail['passes']} passes ({tail['beyond']} beyond)")
    for name, value in d["answers"].items():
        unit = "ratio" if value is not None else f"(not computed on {d['workload']})"
        print(f"  {name:36s} {value if value is not None else '-':>16} {unit}")
    print(f"  failed / attempted: {failed} / {attempted}")
    for e in d["errors"][:10]:
        print(f"  error: {e}")
    print("counts: " + json.dumps({k: v for k, v in d["counts"].items() if "confusion" not in k},
                                  sort_keys=True))
    print(f"outputs sha256 {d['outputs_sha256']}: " + json.dumps(d["digests"], sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
