"""One workload in a fresh process: pin BLAS threads, import, warm up, run sessions.

Started by ``run.py``; prints one JSON object as its last line of output.

Phases:
  setup    import ginisafe and run the warm-up session, nothing else
  measure  setup, then the timed sessions, untraced
  trace    setup, then untraced and traced sessions in turn
"""

import os

# One BLAS thread, fixed before numpy is imported: OpenBLAS reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

#: Generator key of the warm-up session; timed sessions use keys 0, 1, ...
WARMUP_KEY = 10**9


def run_session(
    build, seed: int, key: int, workdir: Path, check: bool = True, rerun: bool = False
) -> dict:
    """Build one session from (seed, key), time its calls, then check the outputs.

    Only the calls are timed.  The warm-up session passes ``check=False``.
    With ``rerun`` every operation is run a second time, untimed, and must
    give byte-identical output.
    """
    import numpy as np
    from workloads import CheckFailed, ProgramError

    rng = np.random.default_rng([seed, key])
    ops = build(rng, int(rng.integers(2**31)), workdir)
    gc.collect()
    results = []
    for op in ops:
        start = time.perf_counter()
        try:
            text, error = op.call(), None
        except ProgramError as exc:
            text, error = None, str(exc)
        except Exception as exc:  # a traceback from the program is a failed call
            text, error = None, f"raised {exc!r}"
        results.append((text, error, time.perf_counter() - start))

    failed = wrong = 0
    for op, (text, error, _) in zip(ops, results):
        if error is None and check:
            try:
                op.check(text)
                if rerun and op.call() != text:
                    raise CheckFailed("identical argv gave different output")
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                error = f"wrong output: {exc}"
                wrong += 1
        if error is not None:
            failed += 1
            print(f"[{op.name} seed={seed} key={key}] {error}", file=sys.stderr)
    return {
        "latency_s": sum(dt for _, _, dt in results),
        "op_s": {op.name: dt for op, (_, _, dt) in zip(ops, results)},
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "output_bytes": sum(len(t) for op, (t, _, _) in zip(ops, results) if op.cli and t),
    }


def traced_run(build, work: dict, args, workdir: Path) -> dict:
    """Alternate untraced and traced sessions, so machine drift hits both alike.

    The tracer is installed only around the traced sessions; their spans are
    written to the results directory and summarised as per-layer metrics.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for key in range(2 * args.sessions):
        if key % 2 == 0:
            plain.append(run_session(build, args.seed, key, workdir, rerun=key == 0))
            continue
        tracer.session = len(traced)
        tracer.install()
        try:
            traced.append(run_session(build, args.seed, key, workdir))
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics(work)
    metrics["session.traced_ms"] = 1e3 * statistics.median(s["latency_s"] for s in traced)
    # Each traced session is paired with the untraced one just before it.
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(
        t["latency_s"] - p["latency_s"] for p, t in zip(plain, traced)
    )
    metrics["cli.output_bytes"] = statistics.median(s["output_bytes"] for s in traced)
    tracer.write(args.results / f"trace-{args.workload}-seed{args.seed}.npz")
    return {"sessions": plain, "traced_sessions": traced, "layer_metrics": metrics}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "process_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--results", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import numpy  # noqa: F401
    import ginisafe.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads

    build, work = workloads.WORKLOADS[args.workload]
    workdir = args.results / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = run_session(build, args.seed, WARMUP_KEY, workdir, check=False)
        out = {"setup_s": import_s + warmup["latency_s"], "env": environment()}
        if args.phase == "measure":
            out["sessions"] = [
                run_session(build, args.seed, key, workdir, rerun=key == 0)
                for key in range(args.sessions)
            ]
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.phase == "trace":
            out.update(traced_run(build, work, args, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
