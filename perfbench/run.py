"""unidiv benchmark: closed-loop codebook, diversity and witness workloads.

    python3 perfbench/run.py --workload codebook --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports unidiv from ./src and
builds nothing.  One client sends one request at a time from this single
process, with BLAS/OpenMP pinned to one thread.  Inputs come from --seed.

--trace 0 times whole rounds of requests until --seconds have passed and
at least MIN_REQUESTS requests have run, then prints the end-to-end
metrics.  --trace 1 runs a fixed number of rounds (TRACE_ROUNDS of the
workload) twice, untraced and then traced, and prints the per-layer
metrics; its call counts repeat exactly for a given seed.

Every output is checked after the timed region (see workloads.py).  The
last line of stdout is the JSON result; the exit code is 1 if any check
failed and 2 if the sources are missing.  Results and traces are written
to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Ten requests beyond the 90th percentile.
MIN_REQUESTS = 100
SETUP_SAMPLES = 7

# A shared host runs this process at speeds that differ by up to 2x from
# one second to the next.  Every request is bracketed by a fixed
# pure-Python calibration loop, and the reported times are rescaled to the
# speed at which that loop takes CAL_REF_S:
#     ref_seconds = seconds * CAL_REF_S / mean(calibration before, after)
# The loop shares no code with unidiv, so a change to unidiv moves the
# rescaled times as it moves the raw ones.  The summary prints both.
CAL_STEPS = 400
CAL_REF_S = 0.004

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "item/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_CALLS = (
    "fields.KElem.mul",
    "fields.LElem.mul",
    "fields.LElem.sigma",
    "fields.LElem.norm_to_k",
    "rationals.as_rat",
    "polynomials.Polynomial",
    "algebra.inverse",
    "algebra.reduced_char_poly",
    "algebra.AlgElem.mul",
    "algebra.involution",
    "algebra.reduced_norm",
    "algebra.matrix_embed",
    "algebra.MatL.det",
    "codebook.unitary_matrix_numeric",
    "codebook.SubfieldSpec.check",
    "cli.parse_element",
)
LAYER_SELF = (
    "fields.KElem.mul",
    "fields.LElem.mul",
    "fields.LElem.sigma",
    "fields.LElem.norm_to_k",
    "algebra.inverse",
    "algebra.reduced_char_poly",
    "algebra.AlgElem.mul",
    "algebra.involution",
    "algebra.reduced_norm",
    "algebra.MatL.det",
    "codebook.unitary_matrix_numeric",
    "codebook.subfield",
    "codebook.generate_codebook",
    "codebook.iter_box_tuples",
    "codebook.norm_witness_search",
    "codebook.min_det_report",
    "codebook.pairwise_determinants",
    "cli.main",
    "cli.cmd_diversity",
    "cli.parse_element",
)
LAYER_RATIOS = (
    "algebra.inverse.calls_per_unit",
    "codebook.candidates_per_unit",
    "codebook.pair_evals_per_pair",
    "codebook.witness.exact_checks_per_tuple",
    "trace.overhead_ratio",
)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every --trace 1 metric, in print order."""
    units = {f"{n}.calls": "count" for n in LAYER_CALLS}
    units.update({f"{n}.self_s": "s" for n in LAYER_SELF})
    units.update({f"{m}.self_s": "s" for m in tracing.MODULES})
    units.update({n: "ratio" for n in LAYER_RATIOS})
    return units


def load_unidiv():
    """Import unidiv from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "unidiv" / "__init__.py").is_file():
        print(f"error: no unidiv sources under {SRC}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import unidiv
    import unidiv.cli  # noqa: F401  (loads every module the workloads use)

    if Path(unidiv.__file__).resolve().parent != SRC / "unidiv":
        print(f"error: imported unidiv from {unidiv.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return unidiv


def setup(workload: str, seed: int, tmpdir: Path):
    """Everything a run does before its first timed request."""
    unidiv = load_unidiv()
    wl = workloads.WORKLOADS[workload](unidiv, seed, tmpdir)
    return unidiv, wl, wl.next_round()


def measure_setup(args) -> float:
    """Median over fresh processes of process start to first request ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", repr(t0)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python Fraction loop now."""
    start = perf_counter()
    a = Fraction(1, 3)
    for i in range(CAL_STEPS):
        a = (a * Fraction(7, 5) + Fraction(i % 7, 3)) / Fraction(3, 2)
        a = Fraction(a.numerator % 1000003, a.denominator % 1000003 or 1)
    return perf_counter() - start


def run_requests(wl, requests, tracer=None):
    """Send each request after the previous one returns; record output and time.

    Each request is bracketed by calibrations; `ref_seconds` is its time
    rescaled to the reference speed (see CAL_REF_S).
    """
    results = []
    cal_before = calibrate()
    for rid, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(rid)
        start = perf_counter()
        try:
            out, err = wl.call(req), None
        except Exception as exc:  # a raising request is a failed request
            out, err = None, f"raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        cal_after = calibrate()
        scale = 2 * CAL_REF_S / (cal_before + cal_after)
        cal_before = cal_after
        results.append(
            {"req": req, "out": out, "err": err, "seconds": elapsed, "ref_seconds": elapsed * scale}
        )
    return results


def timed_rounds(wl, first_round, seconds: float, limit):
    """Whole rounds until `seconds` and MIN_REQUESTS are both reached,
    or exactly `limit` requests if it is given."""
    results = []
    start = perf_counter()
    batch = first_round
    while True:
        if limit is not None:
            batch = batch[: limit - len(results)]
        results += run_requests(wl, batch)
        if limit is not None:
            done = len(results) >= limit
        else:
            done = perf_counter() - start >= seconds and len(results) >= MIN_REQUESTS
        if done:
            return results
        batch = wl.next_round()


def check_all(wl, results, plant: bool) -> list[str]:
    """Run every output check; with `plant`, corrupt the first checkable output."""
    failures = []
    planted = not plant
    for i, r in enumerate(results):
        if r["err"] is None and not planted:
            r["out"] = wl.plant(r["req"], r["out"])
            planted = True
        if r["err"] is None:
            try:
                r["err"] = wl.check(r["req"], r["out"])
            except Exception as exc:  # a check that cannot run is a failure
                r["err"] = f"check raised {exc!r}"
        if r["err"] is not None:
            failures.append(f"request {i} ({r['req'].cls}): {r['err']}")
    return failures


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "commit": commit,
    }


def end_to_end(wl, results, setup_s: float) -> tuple[dict, dict]:
    latencies = [r["ref_seconds"] for r in results]
    work = sum(wl.work(r["req"]) for r in results)
    metrics = {
        "setup_s": setup_s,
        "work_per_s": work / sum(latencies),
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [r["seconds"] for r in results]
    info = {
        "requests": len(results),
        "work": work,
        "timed_s": sum(raw),
        "raw_work_per_s": work / sum(raw),
        "raw_latency_p50_ms": 1000 * percentile(raw, 50),
        "raw_latency_p90_ms": 1000 * percentile(raw, 90),
        "latencies": [[r["req"].cls, r["seconds"], r["ref_seconds"]] for r in results],
    }
    return metrics, info


def per_layer(wl, tracer, traced, untraced) -> dict:
    """Counts, self times at the reference speed, and derived ratios."""
    totals = tracer.totals(lambda rid: traced[rid]["ref_seconds"] / traced[rid]["seconds"])

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{n}.calls": calls(n) for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": totals.get(n, [0, 0.0])[1] for n in LAYER_SELF})
    for m in tracing.MODULES:
        metrics[f"{m}.self_s"] = sum(v[1] for k, v in totals.items() if k.startswith(m + "."))
    work = sum(wl.work(r["req"]) for r in traced)
    units = work if wl.item == "unit" else 0
    candidates = sum(r["out"].candidates_scanned for r in traced if wl.item == "unit" and r["err"] is None)
    metrics["algebra.inverse.calls_per_unit"] = ratio(calls("algebra.inverse"), units)
    metrics["codebook.candidates_per_unit"] = ratio(candidates, units)
    # Accepted diversity files only: a rejected file stops before its pairs.
    accepted = [
        (rid, r) for rid, r in enumerate(traced)
        if wl.item == "pair" and r["req"].params["expect"] is None
    ]
    evals = {rid: agg.get("algebra.reduced_norm", [0])[0] for rid, agg in tracer.per_request}
    metrics["codebook.pair_evals_per_pair"] = ratio(
        sum(evals[rid] for rid, _ in accepted), sum(wl.work(r["req"]) for _, r in accepted)
    )
    metrics["codebook.witness.exact_checks_per_tuple"] = ratio(
        calls("fields.LElem.norm_to_k"), work if wl.item == "tuple" else 0
    )
    metrics["trace.overhead_ratio"] = ratio(
        sum(r["ref_seconds"] for r in traced), sum(r["ref_seconds"] for r in untraced)
    )
    return metrics


def summary_lines(wl, metrics: dict, info: dict, failed: int, attempted: int) -> list[str]:
    """The eight end-to-end figures by their workload-specific names."""
    named = {"unit": "units_per_s", "pair": "pairs_per_s", "tuple": "tuples_per_s"}
    lines = [f"{wl.name}: {info['requests']} requests, {info['work']} {wl.item}s, "
             f"timed {info['timed_s']:.3f} s; times at the reference speed, raw noted"]
    rows = [("setup_s", metrics["setup_s"], "s", f"median of {SETUP_SAMPLES} set-ups")]
    for item, name in named.items():
        if item == wl.item:
            rows.append((name, metrics["work_per_s"], f"{item}/s",
                         f"work_per_s; raw {info['raw_work_per_s']:.6g}"))
        else:
            rows.append((name, None, f"{item}/s", f"n/a: {wl.name} emits no {item}s"))
    n = info["requests"]
    rows += [
        ("latency_p50_ms", metrics["latency_p50_ms"], "ms",
         f"n={n}; raw {info['raw_latency_p50_ms']:.6g}"),
        ("latency_p90_ms", metrics["latency_p90_ms"], "ms",
         f"n={n}, {n - math.ceil(0.9 * n)} beyond; raw {info['raw_latency_p90_ms']:.6g}"),
        ("failed_frac", failed / attempted, "fraction", f"{failed}/{attempted}"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss"),
    ]
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<16} {shown:>12} {unit:<9} {note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("codebook", "diversity", "witness"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, help="run exactly this many requests (smoke test)")
    parser.add_argument("--plant", action="store_true", help="corrupt one output (smoke test)")
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        tmpdir = OUT / f"probe-{os.getpid()}"
        tmpdir.mkdir(parents=True, exist_ok=True)
        try:
            setup(args.workload, args.seed, tmpdir)
            elapsed = time.time() - args.setup_probe
            print(elapsed * 2 * CAL_REF_S / (calibrate() + calibrate()))
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return 0

    load_unidiv()  # exits 2 before the set-up probes if the sources are missing
    setup_s = measure_setup(args) if args.trace == 0 else None
    tmpdir = OUT / f"run-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        unidiv, wl, first_round = setup(args.workload, args.seed, tmpdir)
        if args.trace == 0:
            results = timed_rounds(wl, first_round, args.seconds, args.requests)
            metrics, info = end_to_end(wl, results, setup_s)
            checked = results
        else:
            requests = first_round + [r for _ in range(wl.TRACE_ROUNDS - 1) for r in wl.next_round()]
            if args.requests is not None:
                requests = requests[: args.requests]
            untraced = run_requests(wl, requests)
            tracer = tracing.Tracer()
            tracing.install(tracer, unidiv)
            traced = run_requests(wl, requests, tracer)
            metrics = per_layer(wl, tracer, traced, untraced)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.json.gz")
            checked = untraced + traced
            info = None
        failures = check_all(wl, checked, args.plant)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    units = END_TO_END if args.trace == 0 else per_layer_units()
    env = environment(args)
    attempted, failed = len(checked), len(failures)
    if info is not None:
        for line in summary_lines(wl, metrics, info, failed, attempted):
            print(line)
    else:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for line in failures[:10]:
        print(f"FAIL {line}")
    print("env " + json.dumps(env))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "info": info, "failures": failures, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
