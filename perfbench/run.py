#!/usr/bin/env python3
"""Benchmark of the revivals simulator: three workloads, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/revivals``).
Each run measures set-up in several fresh processes, then runs the workload
in one more process of its own for at least S seconds of whole rounds, and
prints every metric by name and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
``--trace 1`` reports the per-layer metrics of a traced run. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("figure_kerr_damping", "sweep_displaced_n", "scan_onset_offset")

#: Fresh processes that only set up; with the workload's own process they
#: give the samples whose median is setup_s.
SETUP_PROBES = 8

#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

#: Single-threaded BLAS and OpenMP: within nproc, and steadier on a shared
#: host. The hot path is elementwise NumPy, which these do not touch.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def git_revision() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over src/ paths and contents: names the code in a tree without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "revivals" / "__init__.py").is_file():
        print(f"error: no src/revivals under {ROOT}; run from a source tree",
              file=sys.stderr)
        return 2

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(args, ["--setup-only"])
            finish_worker(proc)
            setups.append(ready)
        proc, ready = start_worker(args, [])
        setups.append(ready)
        result = json.loads(finish_worker(proc).strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    v = result["versions"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"git {git_revision()}  src sha256 {source_digest()}  python {v['python']}  "
          f"numpy {v['numpy']}  scipy {v['scipy']}  revivals {v['revivals']}  "
          f"nproc {os.cpu_count()}  threads " + ",".join(f"{k}={x}" for k, x in THREAD_ENV.items()))
    print(f"rounds {len(result['walls'])}  round walls (s) "
          + " ".join(f"{w:.4f}" for w in result["walls"]))
    for msg in result["messages"]:
        print(f"check: {msg}")

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for k, m in metrics.items():
        print(f"{k:28s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")

    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(summary, walls=result["walls"], setups=setups,
                        messages=result["messages"]), indent=2) + "\n")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
