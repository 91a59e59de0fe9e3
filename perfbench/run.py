"""Session benchmark of ginisafe: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload qudit_duals --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports ``src/ginisafe`` from it.
Every run starts fresh worker processes (see ``worker.py``): several that only
import and warm up, for the set-up time, and one that runs the timed sessions.
``--seconds`` fixes the number of sessions, not a time box; see README.md.
The last line of output is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: Seconds of --seconds per session.  This turns --seconds into a session
#: count that does not depend on how fast the run goes: 40, 100 and 100
#: sessions at 20 s.  The host's pace drifts within seconds, so the two
#: workloads whose medians move most with it get the most sessions.
SECONDS_PER_SESSION = {"qudit_duals": 0.5, "eta_search": 0.2, "safe_export": 0.2}

#: Fewest sessions in a timed phase, so ten sessions lie beyond the tail percentile.
MIN_SESSIONS = 40

#: Fresh processes that only import and warm up; with the measuring process
#: they give the set-up samples whose median is ``setup_s``.
SETUP_PROBES = 2

#: Wall-clock budget of one run, kept under the 180 s a run may take.
DEADLINE_S = 170.0


def session_count(workload: str, seconds: int) -> int:
    return max(MIN_SESSIONS, round(seconds / SECONDS_PER_SESSION[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten sessions beyond it, and its value."""
    ranked = sorted(latencies)
    return 100.0 * (len(ranked) - 10) / len(ranked), ranked[len(ranked) - 11]


def start_worker(args, phase: str, sessions: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--sessions", str(sessions), "--phase", phase, "--results", str(RESULTS),
    ]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{phase} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SECONDS_PER_SESSION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ginisafe" / "cli.py").is_file():
        print(f"error: no ginisafe sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    sessions = session_count(args.workload, args.seconds)
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            # Half the sessions untraced, half traced: the traced run lasts as long.
            run = start_worker(args, "trace", math.ceil(sessions / 2), deadline)
        else:
            probes = [start_worker(args, "setup", 0, deadline) for _ in range(SETUP_PROBES)]
            run = start_worker(args, "measure", sessions, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_sessions = run["sessions"] + run.get("traced_sessions", [])
    attempted = sum(s["attempted"] for s in all_sessions)
    failed = sum(s["failed"] for s in all_sessions)
    wrong = sum(s["wrong"] for s in all_sessions)
    latencies = [s["latency_s"] for s in run["sessions"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sessions": len(latencies), "attempted": attempted, "failed": failed,
        "wrong_outputs": wrong, **run["env"],
    }

    if args.trace:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(run["layer_metrics"].items())
        }
    else:
        setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
        percentile, tail_s = tail(latencies)
        summary["tail_percentile"] = percentile
        summary["setup_samples_s"] = setups
        metrics = {
            "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "metrics": metrics, "run": run}, indent=1) + "\n",
        encoding="utf-8",
    )
    print("# " + " ".join(f"{k}={v}" for k, v in summary.items() if k != "setup_samples_s"))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
