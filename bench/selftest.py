"""Self-test of the benchmark's seeding and fingerprints.

Run from the repository root::

    python3 bench/selftest.py [--seed N]

For every workload it checks that one seed gives identical inputs and
identical output fingerprints in two independent builds and runs of the job
list, that every job passes its reference check, and that the next seed
gives different inputs.  Exits with status 1 when any of these fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

import run  # pins the thread variables before numpy is imported


def fingerprints(workloads, specs, tmpdir) -> tuple[list, list]:
    jobs = workloads.prepare(specs, tmpdir)
    _, _, results = run.run_round(jobs)
    return run.check_round(jobs, results)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    run.OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    problems = []
    try:
        for name in workloads.WORKLOADS:
            specs = workloads.generate(name, args.seed)
            again = workloads.generate(name, args.seed)
            other = workloads.generate(name, args.seed + 1)
            if workloads.inputs_digest(specs) != workloads.inputs_digest(again):
                problems.append(f"{name}: seed {args.seed} gave different inputs twice")
            if workloads.inputs_digest(specs) == workloads.inputs_digest(other):
                problems.append(f"{name}: seeds {args.seed} and {args.seed + 1} gave "
                                "the same inputs")
            first, failures = fingerprints(workloads, specs, tmpdir)
            second, _ = fingerprints(workloads, again, tmpdir)
            problems += [f"{name}: {kind} failed its check: {text}"
                         for (kind, _), text in zip(specs, failures) if text is not None]
            if first != second:
                problems.append(f"{name}: seed {args.seed} gave different fingerprints")
            print(f"{name}: {len(specs)} jobs, inputs {workloads.inputs_digest(specs)[:12]}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for text in problems:
        print(f"FAIL {text}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
