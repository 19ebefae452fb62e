"""Benchmark of the nsds library: three seeded workloads, one process each.

Usage (from the repository root)::

    python3 bench/run.py --workload filippov --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/selftest.py

The process imports ``nsds`` from ``src/`` and runs single-threaded: the
BLAS/OpenMP thread variables are pinned to 1 before numpy is imported, and
no process pool (``run_batch`` included) is used, because on a 2-CPU
machine a pool would measure the scheduler.

Each workload is a fixed list of at least 20 jobs generated from the seed
(see ``workloads.py``); one job is one public API call.  The list is run in
rounds until ``--seconds`` have passed.  Round 0 is a warm-up whose outputs
are checked against reference invariants; every later round must reproduce
round 0's output fingerprints, or its jobs count as failed.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its unit,
the environment, and each round's wall time.

Why times are scaled by a calibration kernel
--------------------------------------------
On a 2-vCPU virtual machine (Xeon, 2.1 GHz) that shares its host, the CPU
time of identical work changes by up to 2x with the host's load, in steady
states that last from seconds to several minutes, longer than a run; CPU
time and wall time move together, so neither measure escapes it.  Within one
run the fastest repeat of a job can then be 2x slower than in the next run.
So right before every job the benchmark times :func:`kernel`, a fixed loop
of small numpy operations of the kind ``nsds`` performs, which never calls
``nsds``.  A job's time is the median over its repeats of its measured time
divided by the kernel's, times :data:`KERNEL_REF_S`: the job's seconds on a
machine where the kernel takes that long (the machine above when its host
is idle).  A change to ``nsds`` moves the job times and leaves the kernel
alone.  In a 150 s probe of 23 jobs on that machine, the IQR/median of the
per-round sum of job times was 0.213 measured and 0.054 scaled.  The
measured figures and the host speed (median kernel time over
``KERNEL_REF_S``) are printed beside the metrics.  Every repeat is checked
against the warm-up output.  Jobs take 10-100 ms and their inputs vary only
within bands where the work is nearly constant, so a 35 s run repeats every
job 20-50 times and different seeds cost the same.

Workloads, and why each exists
------------------------------
``filippov``: event-driven Filippov integration.  Oscillator runs (RK4
stepping and crossing localization), the dissipative oscillator (crossings,
the least-norm corner, the stopped fill), ``move_away_1`` and ``smq_flow``
(sliding with projection, then a corner stop), the brick (slide to rest),
sign consensus on path-3 (sign-cell LPs, several surfaces), one
``integrate_caratheodory`` run and one in-process ``nsds simulate`` that
writes CSV.  ``integrate`` and ``fields`` do almost all the work; the few
LPs and least-norm calls keep ``geometry`` under 5% of self time.  This is
where event localization and sliding cost shows.

``certify``: grid certification on seeded symmetric windows with odd point
counts, so the kink axis x1 = 0 is always sampled.  thm1 on the oscillator
(``set_lie_derivative`` LPs), prop13w on the cart with the axis exclusion
band (``maximin_value`` LPs and ``proximal``), thm3 on the oscillator (the
upper-Lie path, which falsifies at the first kink point, so one job kind
exits early) and one in-process ``nsds lyapunov``.  ``geometry.solve_lp``
dominates and ``integrate`` does no work.

``fixed_step``: fixed-step flows with no event localization.  Sphere packing
with n in 3..5 from configurations the benchmark rejection-samples itself;
half of them start with one agent at a tie between its nearest entities, so
the two-vertex ``least_norm`` path of the tie regime near equilibrium is
exercised from the first step.  ``norm`` consensus on path-3/4 with
dt_max = 2e-4, one of them run to t = 4 so that its trajectory holds 20k
samples, sample-and-hold on the cart with partition diameter 1e-3, and one
in-process ``nsds sample-hold``.  ``MoveAwayLaw.direction`` and
``least_norm`` take most of the time and ``solve_lp`` is never called.

End-to-end metrics (``--trace 0``)
----------------------------------
``setup_s``: import ``nsds`` and build the models, functions, grids and
inputs in a fresh process that has just imported numpy; median of this
process and twenty fresh child processes, run one at a time at even
intervals across the run.  Import work slows less with the host's load than
the kernel does (1.26x against 1.8x), so set-up is scaled by the numpy
import timed right before it instead, which is import work of the same
kind that ``nsds`` does not control: set-up seconds divided by numpy import
seconds, times :data:`NUMPY_IMPORT_REF_S`.  Over 270 fresh processes on
that machine, the set-up time after numpy slowed 1.32x between idle and
loaded host states, the scaled figure 1.07x.
``wall_s``: time to finish the job list, the sum of the (scaled) per-job
times.
``job_s.p50``: median of the per-job times (the job count is printed
beside it).  ``peak_rss_mb``: ``ru_maxrss`` of the workload process; most
of it is numpy and ``nsds`` itself, and the 20k-sample consensus trajectory
of ``fixed_step`` adds about 5 MB, so a change in how trajectories are
stored shows there.
``pass_ratio``: jobs that returned and passed their check, over jobs
attempted.  ``fail_ratio`` = 1 - ``pass_ratio`` is printed by name and
carried by ``attempted``/``failed``; it is not a metric because a metric
must never be 0.

Per-layer metrics (``--trace 1``) and what each should move
------------------------------------------------------------
``calls`` and ``self_s`` of one traced round for every span in
``spans.py`` (self times, as measured, are the fastest over the traced
rounds), plus
ratios.  The arrow gives the end-to-end metric and workload the layer
should move; every other workload is predicted not to change.

- ``integrate.integrate_filippov.self_s`` (stall check, bisection, phase
  dispatch), ``integrate.rk4_step.{calls,self_s}``,
  ``integrate.rk4_per_sample`` (event-localization waste),
  ``integrate.samples``, ``integrate.events`` -> ``wall_s`` on filippov.
- ``integrate.gradient_flow.self_s``, ``integrate.sample_and_hold.self_s``
  -> ``wall_s`` on fixed_step.
- ``integrate.integrate_caratheodory.self_s``,
  ``integrate.consensus_flow.self_s``, ``integrate.Trajectory.to_csv.self_s``
  -> ``job_s.p50`` on filippov.
- ``fields.PiecewiseField.cell_value.calls`` (RHS evaluations),
  ``fields.PiecewiseField.switch_values``, ``fields.sliding_field``,
  ``fields.filippov_set``, ``fields.classify_point.calls`` -> ``wall_s`` on
  filippov.
- ``fields.control_inclusion`` -> ``wall_s`` on certify.
- ``geometry.solve_lp``, ``geometry.solve_lp.infeasible_share``,
  ``geometry.maximin_value`` -> ``wall_s`` on certify (on filippov they
  also cover the sign-cell LPs).
- ``geometry.least_norm``, ``geometry.least_norm.share_{1v,2v,3v_plus}``
  -> ``wall_s`` on fixed_step.
- ``nonsmooth.gradient``, ``nonsmooth.proximal`` (on the certified
  function objects) -> ``wall_s`` on certify.
- ``lie.set_lie_derivative``, ``lie.set_lie_derivative.singleton_share``,
  ``lie.lyapunov_certify.self_s``, ``lie.monotonicity_verdict.self_s``
  -> ``wall_s`` on certify.
- ``scenarios.MoveAwayLaw.direction`` -> ``wall_s`` on fixed_step.
- ``cli.main.self_s`` -> ``job_s.p50`` on all three.
- ``<module>.self_share``: share of traced job time spent in each module's
  spans (``bench`` is job time outside every span).
- ``trace.overhead_ratio``: traced ``wall_s`` / untraced ``wall_s`` - 1,
  from alternating traced and untraced rounds in the same process.

Input-property counters for later fast paths: the ``least_norm`` vertex-count
histogram (``share_1v``, ``share_2v``, ``share_3v_plus``), the share of
``set_lie_derivative`` calls with a singleton field set and a singleton
gradient set, and the share of ``solve_lp`` calls that are infeasible.

Excluded case
-------------
Sign consensus on path-4 from ``linspace(0, 5, 4) ** 1.3`` with t = 10
chatters: 59,084 ``SurfaceHit`` events and 119,306 samples in 88 s.  Path-5
took 87 s, path-8 170 s and path-10 255 s.  That is too slow for a
benchmark run and is left as a regression fixture for sliding-exit
handling.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
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
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_CHILDREN = 20
KERNEL_REF_S = 1e-3  # the kernel's time on the reference machine
NUMPY_IMPORT_REF_S = 0.06  # numpy's import time on the reference machine


def kernel() -> float:
    """Fixed calibration work: small-vector numpy arithmetic in a Python loop."""
    import numpy as np  # here, so that set-up still times the numpy import

    v = np.array([0.3, -0.7])
    acc = 0.0
    for _ in range(300):
        w = v * 1.0001 + 0.5
        acc += float(w @ v) + float(np.linalg.norm(w))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def setup(workload: str, seed: int, tmpdir: str):
    """Import numpy, then import nsds and build the job list; returns
    (seconds to import numpy, set-up seconds after it, jobs)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports nsds

    jobs = workloads.prepare(workloads.generate(workload, seed), tmpdir)
    return t1 - t0, time.perf_counter() - t1, jobs


def child_setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(numpy import seconds, set-up seconds) from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    numpy_s, setup_s = proc.stdout.split()[-2:]
    return float(numpy_s), float(setup_s)


def run_round(jobs, tracer=None):
    """Run every job once, each right after the kernel.  Returns per-job
    lists of job seconds, kernel seconds and results (or exceptions)."""
    seconds, kernels, results = [], [], []
    for i, job in enumerate(jobs):
        run = job.run if tracer is None else (lambda i=i, job=job: tracer.run_job(i, job.run))
        kernels.append(kernel_seconds())
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a failing job is counted, not fatal
            result = exc
        seconds.append(time.perf_counter() - t0)
        results.append(result)
    return seconds, kernels, results


def job_fingerprint(job, result):
    if isinstance(result, Exception):
        return None
    try:
        return job.fingerprint(result)
    except Exception:
        return None


def check_round(jobs, results) -> tuple[list[object], list[str | None]]:
    """Reference checks on the warm-up round: (fingerprints, problems).
    A job that fails its check gets no fingerprint."""
    fingerprints, problems = [], []
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            try:
                problem = job.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        fingerprints.append(job_fingerprint(job, result) if problem is None else None)
        problems.append(problem)
    return fingerprints, problems


def count_failures(jobs, results, reference) -> int:
    """Jobs whose output is not the checked warm-up output."""
    return sum(
        1 for job, result, ref in zip(jobs, results, reference)
        if ref is None or job_fingerprint(job, result) != ref
    )


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_all(args) -> int:
    """Run every workload, one fresh process after another."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                             "--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            cwd=ROOT).returncode
             for name in WORKLOADS]
    return max(codes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nsds" / "__init__.py").is_file():
        print(f"error: no nsds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        numpy_s, setup_s, jobs = setup(args.workload, args.seed, tmpdir)
        if args.setup_only:
            print(repr(numpy_s), repr(setup_s))
            return 0
        return measure(args, jobs, (numpy_s, setup_s))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def per_job(rounds, scaled: bool = True) -> list[float]:
    """Per job, the median over rounds of its seconds, each divided by the
    kernel seconds before it and multiplied by KERNEL_REF_S when scaled."""
    return [statistics.median(t / k * KERNEL_REF_S if scaled else t for t, k in samples)
            for samples in zip(*rounds)]


def measure(args, jobs, setup_sample: tuple[float, float]) -> int:
    print("env " + json.dumps(environment()))
    setup_samples = [setup_sample]
    # Set-up is timed in fresh child processes too, spread over the run so
    # that a stretch of machine interference does not hit every sample.
    children = 0 if args.trace else SETUP_CHILDREN
    start = time.perf_counter()
    deadline = start + args.seconds

    def sample_setup(until: float):
        while len(setup_samples) <= children and (
                start + (len(setup_samples) - 0.5) * args.seconds / children <= until):
            setup_samples.append(child_setup_sample(args.workload, args.seed))

    _, _, warm = run_round(jobs)
    reference, problems = check_round(jobs, warm)
    for job, problem in zip(jobs, problems):
        if problem is not None:
            print(f"FAIL {job.kind} {json.dumps(job.params)}: {problem}")
    failed = sum(problem is not None for problem in problems)
    attempted = len(jobs)

    if args.trace:
        import spans

        tracer = spans.Tracer()
        traced_functions = [f for job in jobs for f in job.functions]
    # Per traced flag, per round, per job: (job seconds, kernel seconds).
    rounds: dict[bool, list[list[tuple[float, float]]]] = {False: [], True: []}
    traced = bool(args.trace)
    while True:
        if traced:
            tracer.install(traced_functions)
            try:
                tracer.begin_round()
                seconds, kernels, results = run_round(jobs, tracer)
                tracer.end_round()
            finally:
                tracer.uninstall()
        else:
            seconds, kernels, results = run_round(jobs)
        rounds[traced].append(list(zip(seconds, kernels)))
        attempted += len(jobs)
        failed += count_failures(jobs, results, reference)
        if args.trace:
            traced = not traced
        sample_setup(time.perf_counter())
        if time.perf_counter() >= deadline and rounds[False] and (rounds[True] or not args.trace):
            break
    sample_setup(math.inf)

    untraced = per_job(rounds[False])
    measured = per_job(rounds[False], scaled=False)
    speed = statistics.median(k for r in rounds[False] for _, k in r) / KERNEL_REF_S
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{len(rounds[False])} untraced and {len(rounds[True])} traced rounds; "
          "measured round walls " + " ".join(f"{sum(t for t, _ in r):.3f}" for r in rounds[False]))
    print(f"host slowness (median kernel time / KERNEL_REF_S) = {speed:.3f}; "
          f"measured wall_s = {sum(measured)!r} s, job_s.p50 = {statistics.median(measured)!r} s, "
          f"setup_s = {statistics.median(s for _, s in setup_samples)!r} s, "
          f"numpy import = {statistics.median(n for n, _ in setup_samples)!r} s")
    print(f"fail_ratio = {failed / attempted!r} ratio ({failed} of {attempted} jobs)")
    if args.trace:
        metrics = spans.layer_metrics(tracer, sum(per_job(rounds[True])), sum(untraced))
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "setup_s": (statistics.median(s / n * NUMPY_IMPORT_REF_S for n, s in setup_samples),
                        "s"),
            "wall_s": (sum(untraced), "s"),
            "job_s.p50": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        extra = f"  (n={len(untraced)} jobs)" if name == "job_s.p50" else ""
        print(f"{name} = {value!r} {unit}{extra}")
    if args.trace:
        ranked = sorted(((value, name.removesuffix(".self_s"))
                         for name, (value, _) in metrics.items() if name.endswith(".self_s")),
                        reverse=True)
        print("largest self times: " + ", ".join(f"{name} {value:.4f} s"
                                                 for value, name in ranked[:5]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
