"""Run one benchmark workload, or all of them, and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_refit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --workload many_rules --trace 1  # per-layer

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced).  The exit code is 1 when an output check
fails, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS / OpenMP thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it from
    there; exit 2 when the checkout carries no program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)


def _steal_ticks() -> int | None:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def fingerprint(start: dict) -> dict:
    """Machine state this run was measured on."""
    import numpy

    steal = _steal_ticks()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": start["nproc"],
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": start["loadavg"],
        "loadavg_end": _loadavg(),
        "steal_ticks": None
        if steal is None or start["steal"] is None
        else steal - start["steal"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _parse(argv):
    from perfbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("paper", "tiny"),
        default="paper",
        help="input sizes; 'tiny' is for the smoke tests",
    )
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload, each in a fresh process; exit non-zero if any fails."""
    from perfbench.metrics import WORKLOADS

    summary, status = {}, 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = {"correct": False, "exit_code": proc.returncode}
        if proc.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, its threads included: the calibration
    # then times the core the work runs on, and the fleet's thread
    # hand-offs stay on one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = {"loadavg": _loadavg(), "steal": _steal_ticks(), "nproc": nproc}
    from perfbench.runner import run_workload

    workdir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = run_workload(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scale=args.scale,
            workdir=workdir,
        )
    except Exception:  # boundary: report, then fail the command
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    machine = fingerprint(start)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("fingerprint: " + json.dumps(machine, sort_keys=True))
    for line in report.lines:
        print(line)
    if args.trace:
        out_dir = Path.cwd() / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report.trace_payload(machine, args.seed)))
        print(f"spans written to {path.relative_to(Path.cwd())}")
    for failure in report.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if report.complete:
        print(report.result_line())
    return 0 if report.correct else 1


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
