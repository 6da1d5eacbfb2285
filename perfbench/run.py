"""equivkit benchmark: desk, sweep and joint workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck          # tiny-size self-check
    python3 perfbench/run.py --write-reference    # rebuild reference.json
    python3 perfbench/run.py --known-defects      # defects the inputs avoid

Each workload runs in a fresh interpreter (worker.py) that imports the
checkout's ``src`` with BLAS and OpenMP pinned to one thread.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run of the
first deck.  Set-up time is the median over several fresh interpreters.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKDIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("desk", "sweep", "joint")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)
# set-up is timed in the workload process and in this many more
EXTRA_SETUPS = 6
RUN_TIMEOUT_S = 140
SETUP_TIMEOUT_S = 8

sys.path.insert(0, BENCH_DIR)
from speedclock import REF_PROBE_S  # noqa: E402
from tracer import COUNT_SUFFIXES, LAYER_METRICS  # noqa: E402


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("EQUIVKIT_CALIBRATION_TABLE", None)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(ROOT, "src"),
    })
    return env


def worker(workload, seed, seconds, mode, size="full", timeout=RUN_TIMEOUT_S):
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--size", size, "--workdir", WORKDIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def check_checkout(need_reference=True):
    if not os.path.isfile(os.path.join(ROOT, "src", "equivkit", "__init__.py")):
        raise BenchError(f"no equivkit sources under {os.path.join(ROOT, 'src')}")
    if need_reference and not os.path.isfile(os.path.join(BENCH_DIR, "reference.json")):
        raise BenchError("perfbench/reference.json is missing")
    os.makedirs(WORKDIR, exist_ok=True)


def describe_versions(v):
    return (f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, "
            f"{v['blas']} ({v['blas_threads']} thread), nproc {v['nproc']}, {v['machine']}")


def measure(workload, seed, seconds):
    res = worker(workload, seed, seconds, "measure")
    runs = [res] + [worker(workload, seed, seconds, "setup", timeout=SETUP_TIMEOUT_S)
                    for _ in range(EXTRA_SETUPS)]
    setups = [r["setup_s"] for r in runs]
    setup_walls = [r["setup_wall_s"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "ops_per_s": res["ops_per_s"],
    }
    n, noun = res["attempted"], res["op_noun"]
    print(f"workload {workload}, seed {seed}: {res['decks']} deck(s) x {res['ops_per_deck']} "
          f"{noun}s, {res['busy_s']:.3f} s of wall time, closed loop, one client")
    print(f"deck times (s, reference speed): {', '.join(f'{b:.3f}' for b in res['deck_busy_s'])}; "
          f"ops_per_s uses their median")
    q25, q50, q75 = res["probe_ms"]
    print(f"speed probe: {res['probes']} samples, quartiles {q25:.4f} / {q50:.4f} / {q75:.4f} ms "
          f"(reference {1e3 * REF_PROBE_S:.4f} ms); raw wall clock: {noun} p50 "
          f"{res['wall_p50_ms']:.4f} ms, tail {res['wall_tail_ms']:.4f} ms, "
          f"{res['wall_ops_per_s']:.4f} {noun}s/s; set-up {statistics.median(setup_walls):.4f} s")
    print(f"versions: {describe_versions(res['versions'])}")
    print(f"{noun} latency: p50 {res['op_p50_ms']:.4f} ms; tail p{res['tail_percentile']:.2f} "
          f"{res['op_tail_ms']:.4f} ms with {res['tail_beyond']} of {n} samples beyond it")
    if workload == "sweep":
        rate = res["ops_per_s"] * res["decisions_per_op"]
        print(f"decisions_per_s {rate:.1f} 1/s ({res['decisions_per_op']} replicate x method "
              f"decisions per cell)")
    for group, (count, p50_ms, total_s) in res["groups"].items():
        print(f"  {group}: {count} x, p50 {p50_ms:.4f} ms, total {total_s:.4f} s")
    print(f"error_frac {res['failed']}/{n} = {res['failed'] / n:.6g}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for p in res["problems"]:
        print(f"problem: {p}")
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]:.6g} {unit}")
    return res["attempted"], res["failed"], {k: (metrics[k], u) for k, u in END_TO_END}


def self_check_trace(res):
    """Problems with a traced result's span accounting."""
    out = []
    wall = res["meta"]["wall_traced_s"]
    if res["self_min_s"] < -1e-9:
        out.append(f"negative self time {res['self_min_s']!r}")
    if res["self_sum_s"] > wall + 1e-6:
        out.append(f"self times sum to {res['self_sum_s']!r} s, more than the traced wall {wall!r} s")
    missing = [name for name, _ in LAYER_METRICS if name not in res["layer"]]
    if missing:
        out.append(f"per-layer metrics not emitted: {missing}")
    return out


def trace(workload, seed):
    res = worker(workload, seed, 0, "trace")
    meta = res["meta"]
    problems = res["problems"] + self_check_trace(res)
    print(f"workload {workload}, seed {seed}: traced deck 0, {res['attempted']} ops, "
          f"{res['spans']} spans written to {os.path.relpath(res['span_file'], ROOT)}")
    print(f"versions: {describe_versions(meta['versions'])}")
    print(f"wall untraced {meta['wall_untraced_s']:.4f} s, traced {meta['wall_traced_s']:.4f} s; "
          f"self times sum to {res['self_sum_s']:.4f} s")
    if res["missing_targets"]:
        print(f"not traced (absent from equivkit): {', '.join(res['missing_targets'])}")
    for p in problems:
        print(f"problem: {p}")
    for name, unit in LAYER_METRICS:
        print(f"{name} {res['layer'][name]:.6g} {unit}")
    failed = res["failed"] or (1 if problems else 0)
    metrics = {name: (res["layer"][name], unit) for name, unit in LAYER_METRICS}
    return res["attempted"], failed, metrics


def selfcheck():
    """Tiny-size check of the benchmark itself: every metric is emitted, span
    accounting adds up, and machine-independent counts repeat exactly.

    Failed operations are the program's, not the benchmark's; they are
    listed but do not fail the self-check.
    """
    bad = []
    for wl in WORKLOADS:
        mine = []
        res = worker(wl, 0, 0, "measure", size="tiny")
        for name, _ in END_TO_END[1:]:
            if not (isinstance(res.get(name), float) and math.isfinite(res[name]) and res[name] > 0):
                mine.append(f"end-to-end metric {name} missing or not positive")
        runs = [worker(wl, 0, 0, "trace", size="tiny") for _ in range(2)]
        for r in runs:
            mine += self_check_trace(r)
        for name, _ in LAYER_METRICS:
            if name.endswith(COUNT_SUFFIXES):
                a, b = runs[0]["layer"][name], runs[1]["layer"][name]
                if a != b:
                    mine.append(f"{name} differs between traced runs ({a} vs {b})")
        print(f"selfcheck {wl}: {'FAIL' if mine else 'ok'} "
              f"({res['failed']} of {res['attempted']} operations failed their checks)", flush=True)
        for p in res["problems"]:
            print(f"  operation failure: {p}")
        bad += [f"{wl}: {m}" for m in mine]
    for b in bad:
        print(f"selfcheck problem: {b}")
    return 1 if bad else 0


def write_reference():
    out = {}
    for wl in WORKLOADS:
        res = worker(wl, 0, 0, "reference", timeout=600)
        # outputs that fail their invariants are stored as they are: the
        # invariants run on every measured run and report them there
        for p in res["problems"]:
            print(f"reference {wl}: problem: {p}")
        out[wl] = res["records"]
        print(f"reference {wl}: {len(res['records'])} records", flush=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def known_defects():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "defects.py")], cwd=ROOT,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--known-defects", action="store_true")
    args = ap.parse_args()
    try:
        check_checkout(need_reference=not args.write_reference)
        if args.selfcheck:
            return selfcheck()
        if args.write_reference:
            return write_reference()
        if args.known_defects:
            return known_defects()
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            attempted, failed, metrics = trace(args.workload, args.seed)
        else:
            attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
