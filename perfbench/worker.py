"""One workload process: set up, run decks in a closed loop, check, report.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread and the checkout's ``src`` on the path.  Prints one JSON object on
its last stdout line.  Modes:

* setup     - only the timed set-up (import, table, case study, warm-ups)
* measure   - whole decks within --seconds of busy time; end-to-end metrics
* trace     - deck 0 untraced, then deck 0 traced; per-layer metrics
* reference - deck 0 at the given seed, full size; prints the records
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 0


def setup(workload, workdir):
    """Import equivkit, load the bundled table and case study, warm up."""
    import equivkit
    import equivkit.cli  # noqa: F401

    equivkit.default_calibration_table()
    equivkit.load_case_study()
    equivkit.case_study_labels()
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.WORKLOADS[workload]
    wl.warmup(workdir)
    return wl


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # the build-info layout differs across numpy releases
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _wall():
    t = time.perf_counter()
    return t, t


def run_deck(ops, wrap=None, clock=_wall):
    """Run ops in order; returns [(raw, error, seconds, wall seconds)].

    ``clock()`` returns (timed clock, wall clock); ``seconds`` is read on
    the first.
    """
    out = []
    for op in ops:
        fn = op.fn if wrap is None else (lambda f=op.fn: wrap(f))
        t, w = clock()
        try:
            raw, err = fn(), None
        except Exception:  # a failing operation is counted, not fatal
            raw, err = None, traceback.format_exc(limit=3)
        t1, w1 = clock()
        out.append((raw, err, t1 - t, w1 - w))
    return out


def records_and_problems(wl, decks, seed, size, use_reference=True):
    """Per-op records and problems (raises, invariant or reference misses)."""
    import workloads

    ref = None
    if use_reference:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)[wl.name]
    items = []
    for index, ops, results in decks:
        exact = seed == REFERENCE_SEED and index == 0 and size == "full"
        for op, (raw, err, *_times) in zip(ops, results):
            if err is not None:
                items.append((op, None, [f"{op.key}: raised\n{err}"]))
                continue
            try:
                rec = wl.record(op, raw)
                probs = wl.check(op, rec)
                if ref is not None:
                    probs += workloads.reference_problems(wl, op, rec, ref, exact)
            except Exception:  # a malformed output is a failed operation
                rec, probs = None, [f"{op.key}: unreadable output\n{traceback.format_exc(limit=3)}"]
            items.append((op, rec, probs))
    if wl.cross_check is not None:
        extra = wl.cross_check([(op, rec) for op, rec, _ in items])
        items = [(op, rec, probs + extra.get(id(op), [])) for op, rec, probs in items]
    return items


def tail_index(n, n_deck):
    """Index (sorted ascending) of the value with 10 samples per deck beyond it."""
    beyond = 10 * n // n_deck
    return max(n - beyond - 1, 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "reference"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = setup(args.workload, args.workdir)
    setup_wall_s = time.perf_counter() - _T0
    import speedclock

    # set-up at reference speed, from the probe right after it
    setup_s = setup_wall_s * speedclock.REF_PROBE_S / speedclock.probe_seconds()
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy as np

    if args.mode == "reference":
        ops = wl.deck(REFERENCE_SEED, 0, "full", args.workdir)
        decks = [(0, ops, run_deck(ops))]
        items = records_and_problems(wl, decks, REFERENCE_SEED, "full", use_reference=False)
        result["records"] = {op.key: rec for op, rec, _ in items}
        result["problems"] = [p for _, _, probs in items for p in probs]
        print(json.dumps(result))
        return 0

    if args.mode == "trace":
        import tracer as tracer_mod

        ops = wl.deck(args.seed, 0, args.size, args.workdir)
        t = time.perf_counter()
        plain = run_deck(ops)
        wall_plain = time.perf_counter() - t
        tr = tracer_mod.Tracer()
        tr.install()
        try:
            t = time.perf_counter()
            traced = run_deck(ops, wrap=tr.root)
            wall_traced = time.perf_counter() - t
        finally:
            tr.uninstall()
        items = records_and_problems(wl, [(0, ops, traced)], args.seed, args.size)
        for i, (op, (raw, err, *_times), (_, rec, probs)) in enumerate(zip(ops, plain, items)):
            same = (err is None and rec is not None
                    and json.dumps(wl.record(op, raw), sort_keys=True)
                    == json.dumps(rec, sort_keys=True))
            if not same and not probs:
                items[i] = (op, rec, [f"{op.key}: traced output differs from untraced output"])
        problems = [p for _, _, probs in items for p in probs]
        failed = sum(1 for _, _, probs in items if probs)
        own = tr.self_times()
        layer = tr.layer_metrics(wall_traced - wall_plain)
        meta = {"workload": args.workload, "seed": args.seed, "size": args.size,
                "wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
                "versions": versions()}
        os.makedirs(args.workdir, exist_ok=True)
        span_path = os.path.join(args.workdir, f"spans-{args.workload}-{args.seed}-{args.size}.json")
        tr.write(span_path, meta)
        result.update({
            "attempted": len(ops), "failed": failed, "problems": problems[:20],
            "layer": layer, "missing_targets": tr.missing,
            "self_min_s": float(own.min()) if own.size else 0.0,
            "self_sum_s": float(own.sum()), "spans": len(own), "span_file": span_path,
            "meta": meta,
        })
        print(json.dumps(result))
        return 0

    decks = []
    busy = 0.0
    latencies = []
    wall_latencies = []
    deck_busy = []
    deck_wall = []
    n_deck = None
    clock = speedclock.SpeedClock()
    clock.start()
    try:
        # whole decks while the next one, if it takes as long as the last,
        # still ends within --seconds of wall time; the first always runs
        while not decks or busy + deck_wall[-1] <= args.seconds:
            index = len(decks)
            ops = wl.deck(args.seed, index, args.size, args.workdir)
            n_deck = len(ops)
            results = run_deck(ops, clock=clock.read)
            decks.append((index, ops, results))
            latencies.extend(r[2] for r in results)
            wall_latencies.extend(r[3] for r in results)
            deck_busy.append(sum(r[2] for r in results))
            deck_wall.append(sum(r[3] for r in results))
            busy += deck_wall[-1]
    finally:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = records_and_problems(wl, decks, args.seed, args.size)
    failed = sum(1 for _, _, probs in items if probs)
    problems = [p for _, _, probs in items for p in probs]
    groups = {}
    for _index, ops, results in decks:
        for op, timed in zip(ops, results):
            groups.setdefault(op.group, []).append(timed[2])
    lat = np.sort(np.asarray(latencies))
    wall_lat = np.sort(np.asarray(wall_latencies))
    n = lat.size
    ti = tail_index(n, n_deck)
    result.update({
        "attempted": n, "failed": failed, "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": float(np.median(lat)) * 1e3,
        "op_tail_ms": float(lat[ti]) * 1e3,
        "tail_percentile": 100.0 * (ti + 1) / n,
        "tail_beyond": int(n - ti - 1),
        # per deck, so that one deck caught in a slow spell of a shared
        # machine does not set the rate
        "ops_per_s": n_deck / float(np.median(deck_busy)),
        "busy_s": busy,
        "deck_busy_s": deck_busy,
        "wall_ops_per_s": n / busy,
        "wall_p50_ms": float(np.median(wall_lat)) * 1e3,
        "wall_tail_ms": float(wall_lat[ti]) * 1e3,
        "probe_ms": [1e3 * q for q in np.quantile(clock.samples, [0.25, 0.5, 0.75])],
        "probes": len(clock.samples),
        "decks": len(decks),
        "ops_per_deck": n_deck,
        "op_noun": wl.op_noun,
        "decisions_per_op": wl.per_op(args.size) if wl.per_op else None,
        "versions": versions(),
        "groups": {g: [len(v), float(np.median(v)) * 1e3, float(np.sum(v))]
                   for g, v in sorted(groups.items())},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
