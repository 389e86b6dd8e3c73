"""Benchmark of `transportkernels gram`, one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's input files from the seed under .bench_out/,
then runs `cli.main(["gram", ...])` on them in fresh interpreters, one
at a time (closed loop, one caller) with BLAS pools pinned to one
thread, for about S seconds. Every run is a new process because a CLI
user pays interpreter start and import on every call, and nothing one
run caches can reach the next.

--trace 0 reports the end-to-end metrics over the runs:
  gram_s       fastest wall seconds of the cli.main call
  setup_s      fastest seconds from spawning the child to cli.main
  peak_rss_mb  median peak resident memory of the child (its own rusage)
The times are the fastest run's, not the median, because on a shared
host other tenants only ever add time; see README.md for the spreads.
--trace 1 alternates traced and untraced runs and reports the per-layer
metrics of tracer.layer_metrics (low medians over the traced runs),
plus trace_overhead_frac and fail_frac.

Every run is checked: its exit code against the one eigvalsh's verdict
calls for, its kernel values and certificate against reference.py, and
its gram.csv, certificate.json and manifest.json against the first
run's bytes. A run failing any check
counts in "failed", with its causes on stderr and in report.json.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ARTIFACTS = ("gram.csv", "certificate.json", "manifest.json")
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    traced: bool
    wall_s: float
    gram_s: float | None = None
    setup_s: float | None = None
    rss_mb: float | None = None
    spans: dict | None = None
    causes: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, w: workloads.Workload, seed: int, root: Path) -> None:
        import reference

        self.reference = reference
        self.w = w
        self.root = root
        self.dir = root / ".bench_out" / f"{w.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        inputs = self.dir / "inputs"
        inputs.mkdir()
        hist_path, weight_path = workloads.write_inputs(w, seed, inputs)
        self.out = self.dir / "out"
        self.argv = workloads.gram_argv(w, hist_path, weight_path, self.out)
        self.refs = reference.kernel_references(w, seed)
        self.first: tuple[bytes, ...] | None = None
        self.checked: dict[tuple[bytes, ...], tuple[list[str], int, float]] = {}
        self.samples: list[Sample] = []

    def spawn(self, traced: bool) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        result_path = self.dir / "result.json"
        spans_path = self.dir / "spans.json"
        for path in (result_path, spans_path):
            path.unlink(missing_ok=True)
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            str(self.root / "src"),
            str(result_path),
            str(spans_path) if traced else "-",
            "--",
            *self.argv,
        ]
        with open(self.dir / "child.log", "w") as log:
            t_spawn = _now()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=self.root, env=CHILD_ENV
            )
            status, rusage, timed_out = _wait(proc)
        sample = Sample(traced=traced, wall_s=_now() - t_spawn)
        self.samples.append(sample)
        if timed_out:
            sample.causes.append(f"timeout: killed after {CHILD_TIMEOUT_S:.0f} s")
            return sample
        if not result_path.is_file():
            sample.causes.append(
                f"exception: child exited with status {status} before reporting"
            )
            return sample
        result = json.loads(result_path.read_text())
        sample.setup_s = result["t_main"] - t_spawn
        sample.gram_s = result["t_end"] - result["t_main"]
        sample.rss_mb = rusage.ru_maxrss / 1024.0
        if traced:
            sample.spans = json.loads(spans_path.read_text())
        if result["exception"]:
            sample.causes.append(f"exception: {result['exception']}")
            return sample
        self._check(sample, result["exit_code"])
        return sample

    def _check(self, sample: Sample, exit_code: int) -> None:
        paths = [self.out / name for name in ARTIFACTS]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            sample.causes.append(
                f"missing artifact: {', '.join(missing)} (exit code {exit_code})"
            )
            return
        blobs = tuple(p.read_bytes() for p in paths)
        if self.first is None:
            self.first = blobs
        elif blobs != self.first:
            changed = [n for n, a, b in zip(ARTIFACTS, blobs, self.first) if a != b]
            sample.causes.append(f"nondeterministic artifact: {', '.join(changed)}")
        if blobs not in self.checked:
            self.checked[blobs] = self.reference.check_artifacts(
                blobs[0], blobs[1], self.refs, self.w.m
            )
        causes, expected_code, _ = self.checked[blobs]
        sample.causes.extend(causes)
        if exit_code != expected_code:
            sample.causes.append(f"exit code {exit_code}, expected {expected_code}")

    def loop(self, seconds: float, trace: bool) -> None:
        """Spawn runs until another one would end after `seconds`.

        With `trace`, runs alternate traced and untraced, starting
        traced, and at least one of each is made.
        """
        start = _now()
        traced = trace
        while True:
            sample = self.spawn(traced=traced)
            if trace:
                traced = not traced
            both = not trace or {s.traced for s in self.samples} == {True, False}
            if both and _now() - start + sample.wall_s > seconds:
                break

    def timed(self, traced: bool) -> list[Sample]:
        return [s for s in self.samples if s.traced == traced and s.gram_s is not None]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.causes)

    def end_to_end(self) -> dict[str, float]:
        runs = self.timed(traced=False)
        return {
            "gram_s": min(s.gram_s for s in runs),
            "setup_s": min(s.setup_s for s in runs),
            "peak_rss_mb": statistics.median(s.rss_mb for s in runs),
        }

    def per_layer(self) -> dict[str, float]:
        from tracer import layer_metrics

        traced = self.timed(traced=True)
        missing = traced[0].spans["missing"]
        if missing:
            print(f"absent, their metrics read 0: {', '.join(missing)}", file=sys.stderr)
        per_run = [layer_metrics(s.spans) for s in traced]
        metrics = {k: statistics.median_low(m[k] for m in per_run) for k in per_run[0]}
        fastest = min(s.gram_s for s in self.timed(traced=False))
        fastest_traced = min(s.gram_s for s in traced)
        metrics["trace_overhead_frac"] = fastest_traced / fastest - 1.0
        metrics["fileio.gram_csv_bytes"] = len(self.first[0]) if self.first else 0
        metrics["psd.eig_err_rel"] = self.checked[self.first][2] if self.first else 0.0
        metrics["fail_frac"] = self.failed / len(self.samples)
        return metrics

    def report(self, metrics: dict[str, float], extra: dict) -> None:
        failures = [
            {"run": i, "traced": s.traced, "causes": s.causes}
            for i, s in enumerate(self.samples)
            if s.causes
        ]
        for f in failures:
            print(f"run {f['run']} failed: {'; '.join(f['causes'])}", file=sys.stderr)
        last_traced = next((s for s in reversed(self.samples) if s.spans), None)
        doc = {
            "workload": self.w.name,
            "sizes": {"m": self.w.m, "d": self.w.d, "N": self.w.mass, "pairs": self.w.pairs},
            **extra,
            "runs": [
                {"traced": s.traced, "gram_s": s.gram_s, "setup_s": s.setup_s,
                 "peak_rss_mb": s.rss_mb, "causes": s.causes}
                for s in self.samples
            ],
            "failures": failures,
            "metrics": metrics,
            "spans": last_traced.spans if last_traced else None,
        }
        (self.dir / "report.json").write_text(json.dumps(doc, indent=1) + "\n")


def _wait(proc: subprocess.Popen):
    """Reap the child with wait4, so ru_maxrss is that child's own peak."""
    deadline = _now() + CHILD_TIMEOUT_S
    timed_out = False
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if _now() > deadline:
                timed_out = True
                proc.kill()
                pid, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage, timed_out


def total_tables(w: workloads.Workload, seed: int) -> int:
    from transportkernels.histograms import Histogram
    from transportkernels.polytope import count_tables

    hists = [Histogram(h) for h in workloads.histograms(w, seed)]
    return sum(
        count_tables(hists[p], hists[q]) for p in range(w.m) for q in range(p, w.m)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "transportkernels" / "cli.py").is_file():
        print(
            f"error: {root} holds no src/transportkernels; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    w = workloads.WORKLOADS[args.workload]
    bench = Bench(w, args.seed, root)
    extra = {"seed": args.seed}
    if args.trace and w.visits_tables:
        extra["total_tables"] = total_tables(w, args.seed)
    bench.loop(args.seconds, bool(args.trace))
    if not bench.timed(traced=False) or (args.trace and not bench.timed(traced=True)):
        bench.report({}, extra)
        print("error: no run reached cli.main's end; nothing to measure", file=sys.stderr)
        return 1
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    bench.report(metrics, extra)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": bench.failed == 0,
        "attempted": len(bench.samples),
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
