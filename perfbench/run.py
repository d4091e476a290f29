"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload codesign --seed 1 --seconds 30 \
        --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The line before it
records the environment, the input properties, the raw timings, the
sample counts and the checks that ran.  A failed output check prints
``"correct": false`` and exits with 1.

Reported times are divided by the run's slowdown against a fixed
yardstick workload (``yardstick.py``); ``info.raw`` keeps the wall
clock values.
"""

import os

# one BLAS/OpenMP thread: the benchmark measures one single-threaded
# client, and these must be set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


class Record:
    """One request: its input, answer, latency and verdict."""

    def __init__(self, inp, answer, latency, error=None):
        self.inp = inp
        self.answer = answer
        self.latency = latency
        self.error = error
        self.refused = answer.refused if answer is not None else None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def call(workload, state, inp, yardstick, tracer=None, request_id=None):
    """One timed request; yardstick samples inside it are not counted."""
    if tracer is not None:
        tracer.request = request_id
    spent = yardstick.spent
    t0 = time.perf_counter()
    try:
        answer = workload.request(state, inp)
        error = None
    except Exception:  # a failed request is counted, not fatal
        answer, error = None, traceback.format_exc()
    latency = time.perf_counter() - t0
    aside = yardstick.spent - spent
    if answer is not None:
        answer.core_s = max(answer.core_s - aside, 0.0)
    return Record(inp, answer, latency - aside, error)


def run_requests(workload, state, inputs, seconds, yardstick, tracer=None,
                 at_least=1):
    """Closed loop of one client until the next request would overrun.

    Runs past ``seconds`` if needed to answer ``at_least`` requests.
    Returns the records and the loop's wall time without yardstick
    samples.
    """
    records = []
    spent = yardstick.spent
    start = time.perf_counter()
    while True:
        records.append(call(workload, state, next(inputs), yardstick,
                            tracer, len(records)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.latency for r in records)
        if elapsed + typical > seconds and len(records) >= at_least:
            return records, elapsed - (yardstick.spent - spent)


def check_records(workload, state, records, checks):
    """Output checks, outside any timed region; returns failure messages."""
    from workloads import CheckFailure
    failures = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures.append(f"request {i} raised:\n{rec.error}")
            continue
        try:
            rec.refused = workload.check(state, rec.inp, rec.answer, checks)
        except CheckFailure as exc:
            rec.error = str(exc)
            failures.append(f"request {i}: {exc}")
    return failures


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def setup_seconds(workload, yardstick):
    """SETUP_REPEATS set-ups, each in a fresh process and yardstick-timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        yardstick.sample(0.05)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_time.py"),
             workload.name], capture_output=True, text=True, check=True,
            timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


def final_cost(workload, state, records):
    """Median cost over the first deck: the same inputs in every run."""
    costs = [workload.cost(state, r.inp, r.answer)
             for r in records[:workload.deck]
             if r.error is None and r.refused is None]
    return statistics.median(costs) if costs else 0.0


def end_to_end(workload, state, records, wall, setup_s):
    """Raw end-to-end values; ``rescale`` divides out the host's speed."""
    ok = [r for r in records if r.error is None]
    answered = [r for r in ok if r.refused is None]
    lat = [r.latency for r in answered]
    p90 = percentile(lat, 90)
    values = {
        "setup_s": setup_s,
        "solve_s": (statistics.fmean(r.answer.core_s for r in answered)
                    if answered else 0.0),
        "request_s_p50": percentile(lat, 50),
        "request_s_p90": p90,
        "requests_per_s": len(ok) / wall,
        "final_cost": final_cost(workload, state, records),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_share": len(ok) / len(records),
    }
    beyond = sum(1 for x in lat if x > p90)
    samples = {"requests": len(records), "answered": len(answered),
               "beyond_p90": beyond, "p90_resolved": beyond >= 10}
    return values, samples


# per-layer metric prefix -> traced function
TIMED_CALLS = (
    ("scenario.warm_start", "scenario.warm_start_configuration"),
    ("coupled.evaluate_statics", "coupled.evaluate_statics"),
    ("coupled.statics_minnorm", "coupled.statics_minnorm"),
    ("multibody.kinematics", "multibody.kinematics"),
    ("multibody.frame_jacobian", "multibody.frame_jacobian"),
    ("multibody.mass_matrix", "multibody.mass_matrix"),
)


def per_layer(workload, records, spans, overhead, jac_density):
    """Per-layer values from the spans of the traced requests."""
    import tracing
    n = len(records)
    ids = set(range(n))
    per_fn, self_time, errors = tracing.summarize(spans, ids)
    solves = [r.answer.value for r in records
              if r.error is None and workload.budget]
    iterations = sum(s.iterations for s in solves)

    def calls(fn):
        return per_fn.get(fn, (0, 0.0))[0]

    def mean_s(fn):
        count, total = per_fn.get(fn, (0, 0.0))
        return total / count if count else 0.0

    value = "ergoopt.ErgoProblem.value"
    derivs = "ergoopt.ErgoProblem.value_and_derivatives"
    tails = tracing.solve_tails(spans, ids)
    out = {
        "nlpsolver.self_s_per_iter": (self_time["nlpsolver"] / iterations
                                      if iterations else 0.0),
        "nlpsolver.iterations": iterations / len(solves) if solves else 0.0,
        "nlpsolver.evals_per_iter": ((calls(value) + calls(derivs))
                                     / iterations if iterations else 0.0),
        "nlpsolver.kkt_s": (per_fn.get("nlpsolver.kkt_residual",
                                       (0, 0.0))[1] / len(solves)
                            if solves else 0.0),
        "nlpsolver.jac_density": jac_density,
        "ergoopt.value_s": mean_s(value),
        "ergoopt.value_calls": calls(value) / n,
        "ergoopt.derivs_s": mean_s(derivs),
        "ergoopt.derivs_calls": calls(derivs) / n,
        "fad.deriv_to_value_ratio": (mean_s(derivs) / mean_s(value)
                                     if calls(value) and calls(derivs)
                                     else 0.0),
        "ergoopt.solution_statics_s": (statistics.fmean(tails) if tails
                                       else 0.0),
        "coupled.rejected": sum(
            count for (fn, err), count in errors.items()
            if fn == "coupled.evaluate_statics" and err in tracing.REFUSALS),
        "templates.build_s": statistics.fmean(
            s[2] - s[1] for s in spans if s[0] == "templates.build_humanoid"),
        "trace.overhead_share": overhead,
    }
    for metric, fn in TIMED_CALLS:
        out[f"{metric}_s"] = mean_s(fn)
        out[f"{metric}_calls"] = calls(fn) / n
    for layer in ("scenario", "ergoopt", "coupled", "multibody"):
        out[f"{layer}.self_s"] = self_time[layer] / n
    return out


def rescale(values, units, slowdown):
    """Seconds divide by the run's slowdown, rates multiply by it."""
    factor = {"s": 1.0 / slowdown, "1/s": slowdown}
    return {k: v * factor.get(units[k], 1.0) for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ergolift", "__init__.py")):
        print(f"error: no program to measure: {SRC}/ergolift is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and the program
    import_s = time.perf_counter() - t0
    import tracing
    from metrics import UNITS
    from yardstick import Yardstick

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer().install() if args.trace else None

    if tracer is not None:
        tracer.request = "setup"
    t0 = time.perf_counter()
    state = workload.setup()
    build_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.request = "prepare"
    workload.prepare(state)
    inputs_s = time.perf_counter() - t0 - build_s
    if tracer is not None:
        tracer.request = "warmup"
    workload.warm_up(state)
    inputs = workload.inputs(state, args.seed)
    yardstick = Yardstick()

    checks = workloads.Checks()
    info = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "closed_loop_clients": 1, "env": environment(),
            "inputs": workload.describe(state),
            "setup": {"import_s": import_s, "build_s": build_s,
                      "inputs_s": inputs_s}}
    if tracer is None:
        # final_cost reads the whole first deck, even on a slow machine
        with yardstick:
            records, wall = run_requests(workload, state, inputs,
                                         args.seconds, yardstick,
                                         at_least=workload.deck or 1)
        failures = check_records(workload, state, records, checks)
        setup_times = setup_seconds(workload, yardstick)
        info["setup"]["fresh_process_s"] = setup_times
        metrics, info["samples"] = end_to_end(
            workload, state, records, wall, statistics.median(setup_times))
    else:
        # traced pass, then the same requests untraced: the difference
        # is the tracing overhead
        with yardstick:
            records, _ = run_requests(workload, state, inputs,
                                      args.seconds / 2, yardstick, tracer)
            tracer.uninstall()
            replay = [call(workload, state, r.inp, yardstick)
                      for r in records]
        failures = check_records(workload, state, records, checks)
        for i, (a, b) in enumerate(zip(records, replay)):
            if a.error is None and (b.error is not None or
                                    not workload.same_output(a.answer,
                                                             b.answer)):
                a.error = "traced and untraced outputs differ"
                failures.append(f"request {i}: {a.error}")
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(
            OUT, f"spans-{workload.name}-seed{args.seed}.json")
        tracer.write(spans_path)
        info["spans"] = {"count": len(tracer.spans),
                         "file": os.path.relpath(spans_path, ROOT)}

    answered = [r for r in records if r.error is None and r.refused is None]
    jac = workload.jac_density(state, [r.answer for r in answered])
    if workload.budget and answered:
        info["inputs"]["jac_density"] = jac
        info["max_violation"] = max(workload.violation(r.answer)
                                    for r in answered)
    if tracer is not None:
        overhead = (sum(r.latency for r in records)
                    / sum(r.latency for r in replay) - 1.0)
        metrics = per_layer(workload, records, tracer.spans, overhead, jac)
    slowdown = yardstick.slowdown()
    info["yardstick"] = {"slowdown": slowdown,
                         "samples": len(yardstick.samples)}
    info["raw"] = metrics
    info["refused"] = {}
    for r in records:
        if r.refused:
            info["refused"][r.refused] = info["refused"].get(r.refused, 0) + 1
    info["checks"] = checks.counts
    info["failures"] = failures[:5]
    correct = not failures and bool(answered)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in
                    rescale(metrics, UNITS, slowdown).items()}}))
    if not correct:
        for f in failures:
            print(f, file=sys.stderr)
        if not answered:
            print("no request was answered", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
