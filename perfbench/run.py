"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload simple-process --seed 1 --seconds 30 --trace 0

Each iteration runs in a fresh interpreter (``perfbench/workload.py``),
one at a time, until the next one would overrun ``--seconds``.  With
``--trace 0`` nothing is wrapped but one timer around the workload's
repeated operation, and the run reports the end-to-end metrics.  With
``--trace 1`` traced and untraced iterations alternate, and the run
reports the per-layer metrics, the self-time table and the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.

Inputs: each workload has a pool of ``POOL`` realizations (input seeds
``0..POOL-1``, one golden entry each in ``golden.json``).  The seed
picks where in the pool a run starts; iteration ``j`` runs realization
``(seed + j) % POOL`` (a traced run takes each one traced, then
untraced), so every run covers several realizations.

Correctness: every iteration's digests must equal the golden digests of
its realization.  A raised error, a degraded product, a dead-lettered
job, a digest mismatch or a leaked process or ``/dev/shm`` segment
counts as a failed operation.

The last line of standard output is the JSON result; details (the
environment, every iteration, the layer table) go to
``.perfbench/results/``.  ``--record-golden`` re-records the pool,
cross-checking every digest against the workload's independent
reference path first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from workload import WORKLOADS

#: the run's budget counts from interpreter start
START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
#: this invocation's scratch: iteration work directories and results
WORK = os.path.join(STATE, f"work-{os.getpid()}")
GOLDEN = os.path.join(HERE, "golden.json")
#: realizations per workload: input seeds 0..POOL-1
POOL = 4
#: a run ends within this many seconds whatever its children do
HARD_LIMIT_S = 165.0


def _clean_env() -> dict[str, str]:
    """The children's environment: library defaults, scratch inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["TMPDIR"] = os.path.join(STATE, "tmp")
    return env


def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _reap_group(pgid: int) -> bool:
    """Wait for a finished child's process group; kill stragglers.

    Returns ``True`` when something outlived the child (a leak).
    """
    deadline = time.monotonic() + 3.0
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            end = time.monotonic() + 5.0
            while _group_alive(pgid) and time.monotonic() < end:
                time.sleep(0.05)
            return True
        time.sleep(0.02)
    return False


def _spawn(request: dict[str, Any], timeout: float) -> tuple[int, bool]:
    """Run ``workload.py`` on ``request`` in its own session.

    Returns the exit code and whether something outlived the child.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), json.dumps(request)],
        cwd=ROOT, env=_clean_env(), stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        code = proc.wait()
    return code, _reap_group(proc.pid)


def run_child(
    workload: str, realization: int, mode: str, tag: str, timeout: float
) -> dict[str, Any]:
    """One fresh interpreter; returns its result plus hygiene findings."""
    work = os.path.join(WORK, tag)
    result_path = os.path.join(WORK, f"{tag}.json")
    shutil.rmtree(work, ignore_errors=True)
    request = {"workload": workload, "seed": realization, "mode": mode, "work": work,
               "result": result_path}
    shm_before = _shm()
    t_spawn = time.monotonic()
    code, leaked_group = 0, False
    if mode != "reference" and hasattr(WORKLOADS[workload], "make"):
        # the input is written by a process of its own (part of set-up)
        code, leaked_group = _spawn({**request, "mode": "make"}, timeout)
    if code == 0:
        code, leaked = _spawn(request, timeout - (time.monotonic() - t_spawn))
        leaked_group |= leaked
    out: dict[str, Any] = {}
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            out = json.load(fh)
    else:
        out["error"] = f"exit code {code}"
    spans = result_path + ".spans.json"
    if os.path.exists(spans):
        keep = os.path.join(STATE, "results", f"{tag}-r{realization}.spans.json")
        os.replace(spans, keep)
        out["spans_file"] = os.path.relpath(keep, ROOT)
    shutil.rmtree(work, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    if "t_start" in out:
        out["setup_s"] = out["t_start"] - t_spawn
    out["duration_s"] = time.monotonic() - t_spawn
    out["leaks"] = (
        (["process group outlived the run"] if leaked_group else [])
        + [f"child process {n}" for n in out.get("leaked_children", [])]
        + [f"/dev/shm/{n}" for n in sorted(_shm() - shm_before)]
    )
    return out


def _load_golden() -> dict[str, dict[str, dict[str, str]]]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def _matches(digests: dict[str, str], expected: dict[str, str]) -> bool:
    return bool(expected) and all(digests.get(k) == v for k, v in expected.items())


def environment() -> dict[str, Any]:
    """What every result is recorded with; compare only like with like."""
    clean = _clean_env()
    os.environ.clear()
    os.environ.update(clean)
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    from repro.sim.pmsolver import resolve_fft_workers

    tree = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    tree.update(f.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "fft_workers": resolve_fft_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": tree.hexdigest(),
    }


def _git_revision() -> str:
    """HEAD's commit id read from ``.git`` (no git process needed)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    golden = _load_golden().get(workload, {})
    if sorted(golden) != [str(r) for r in range(POOL)]:
        raise SystemExit(f"golden digests for {workload} do not cover realizations "
                         f"0..{POOL - 1}: run --record-golden")
    modes = ["trace", "measure"] if trace else ["measure"]
    iterations: list[dict[str, Any]] = []
    while True:
        # the seed picks the realizations; each iteration runs the next one
        # (a traced run measures each realization traced and untraced)
        realization = (seed + len(iterations) // len(modes)) % POOL
        mode = modes[len(iterations) % len(modes)]
        timeout = min(120.0, START + HARD_LIMIT_S - time.monotonic())
        it = run_child(workload, realization, mode, f"{workload}-{len(iterations)}", timeout)
        it.update(mode=mode, realization=realization)
        iterations.append(it)
        elapsed = time.monotonic() - START
        longest = max(i["duration_s"] for i in iterations)
        if "error" in it or (len(iterations) >= len(modes) and elapsed + longest > seconds):
            break

    attempted = failed = 0
    for it in iterations:
        ops = it.get("attempted") or 1  # a child that died before reporting: one
        it["digests_ok"] = _matches(it.get("digests", {}), golden[str(it["realization"])])
        ok = not it.get("error") and it["failed"] == 0 and it["digests_ok"]
        attempted += ops + len(it["leaks"])
        failed += (0 if ok else ops) + len(it["leaks"])

    timed = [i for i in iterations if i["mode"] == "measure" and "error" not in i]
    values: dict[str, float] = {}
    if timed:
        values = {
            "setup_s": statistics.median(i["setup_s"] for i in timed),
            "wall_s": statistics.median(i["wall_s"] for i in timed),
            "cpu_s": statistics.median(i["cpu_s"] for i in timed),
            # the peak over the realizations the run covered
            "peak_rss_mb": max(i["peak_rss_mb"] for i in timed),
            "op_p50_ms": 1e3 * statistics.median(_pct(i["op_s"], 50) for i in timed),
            "op_p90_ms": 1e3 * statistics.median(_pct(i["op_s"], 90) for i in timed),
        }
    table: list[str] = []
    if trace:
        from tracing import layer_table

        traced = [i for i in iterations if i["mode"] == "trace" and "error" not in i]
        if traced and timed:
            names = {name for i in traced for name in i["layers"]}
            values = {
                name: statistics.median(i["layers"].get(name, 0.0) for i in traced)
                for name in names
            }
            traced_wall = statistics.median(i["wall_s"] for i in traced)
            untraced_wall = statistics.median(i["wall_s"] for i in timed)
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_s"] = traced_wall - untraced_wall
            values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
            typical = min(traced, key=lambda i: abs(i["wall_s"] - traced_wall))
            with open(os.path.join(ROOT, typical["spans_file"])) as fh:
                spans = [tuple(s) for s in json.load(fh)["spans"]]
            table = layer_table(spans, typical["wall_s"])
            table.append(
                f"tracing overhead: {values['trace.overhead_s']:+.3f} s "
                f"({100 * values['trace.overhead_frac']:+.1f}% of untraced wall "
                f"{untraced_wall:.3f} s)"
            )

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    complete = bool(values) and set(values) <= {m["name"] for m in wanted}
    return {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if complete else max(failed, 1),
        "metrics": metrics,
        "_iterations": iterations,
        "_table": table,
    }


def record_golden(workloads: list[str]) -> int:
    """Record realizations ``0..POOL-1``; every digest cross-checked first."""
    golden = _load_golden() if os.path.exists(GOLDEN) else {}
    for workload in workloads:
        golden[workload] = {}
        for r in range(POOL):
            run = run_child(workload, r, "measure", f"{workload}-golden", 120.0)
            ref = run_child(workload, r, "reference", f"{workload}-golden-ref", 120.0)
            digests, expected = run.get("digests", {}), ref.get("digests", {})
            problems = run["leaks"] + ref["leaks"] + [
                e for e in (run.get("error"), ref.get("error")) if e
            ]
            if run.get("failed") or not _matches(digests, expected) or problems:
                print(f"{workload} realization {r}: cross-check failed {problems}",
                      file=sys.stderr)
                return 1
            golden[workload][str(r)] = digests
            print(f"{workload} realization {r}: {digests}", file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"record golden digests for realizations 0..{POOL - 1}")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    for sub in ("tmp", "results", WORK):
        os.makedirs(os.path.join(STATE, sub), exist_ok=True)
    try:
        env = environment()
        if args.record_golden:
            return record_golden([args.workload] if args.workload else list(WORKLOADS))
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(args, env, out)
    return 0


def report(args: argparse.Namespace, env: dict[str, Any], out: dict[str, Any]) -> None:
    """Keep the full record; print a summary, then the result line last."""
    iterations, table = out.pop("_iterations"), out.pop("_table")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "result": out,
              "iterations": iterations, "layer_table": table}
    path = os.path.join(STATE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for i, it in enumerate(iterations):
        shown = {k: round(it[k], 4) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
                 if k in it}
        print(f"iteration {i} [{it['mode']}, realization {it['realization']}] {shown} "
              f"ops={it.get('attempted', 0)} failed={it.get('failed', 0)} "
              f"digests_ok={it['digests_ok']} leaks={it['leaks']} {it.get('error') or ''}")
    print(f"details: {os.path.relpath(path, ROOT)}")
    for row in table:
        print(row)
    sys.stdout.flush()
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
