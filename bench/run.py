"""gdapred pipeline benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. For about ``S`` seconds
the benchmark repeats rounds. Round k writes a synthetic corpus and
pipeline config drawn from seed * 1000 + k under ``.bench_work/``
(ten times; ``setup_s`` is the median over all of them), then runs the
workload's stage sequence in a fresh child process on a clean output
directory and checks the outputs. With ``--trace 1`` each round also
reruns the same inputs traced, which must reproduce the untraced
manifests byte for byte.

The last stdout line is the JSON result: the end-to-end metrics with
``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``. Times are wall times rescaled to a reference machine
speed measured around each step (see speed.py). Earlier lines give each
metric's median, upper percentile and sample count, the plain
wall-clock median (traced: each stage's time and every time's share
of run_s), ``failed_share``, the ``src/`` line count and the source
revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import digests_match, manifest_bytes, manifest_paths, \
    planted_cell_ok, quality
from layers import UNITS, benchmark_metrics, file_metrics
from speed import at_reference_speed, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 10
MIN_ROUNDS = 3
# a round takes seconds; this keeps a hung child inside the 180 s budget
CHILD_TIMEOUT_S = 60
# SimGIC sums IC values over a set of term ids, so its last digits follow
# Python's string-hash order, which changes per process unless pinned.
# Every child gets the same hash seed so that runs of one benchmark are
# byte-comparable: the traced-equals-untraced check then tests the
# wrappers alone.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = benchmark_metrics("end_to_end")


def tail_percentile(values: list[float]):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def revision() -> str:
    """The git commit when run in a clone, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


class Bench:
    """Rounds of: write round inputs, run untraced (and then traced)."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.child_timeout_s = CHILD_TIMEOUT_S
        self.attempted = 0
        self.failed = 0
        #: setup times at reference speed, and as plain wall times
        self.setup_s: list[float] = []
        self.setup_wall_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        #: traced minus untraced run_s, per round (same inputs)
        self.overhead_s: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def setup(self, round_seed: int) -> None:
        wall = []
        before = reference_s()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.inputs, ignore_errors=True)
            t0 = time.perf_counter()
            self.config_path = self.workload.write_inputs(
                self.inputs, self.out, round_seed)
            wall.append(time.perf_counter() - t0)
        after = reference_s()
        self.setup_wall_s += wall
        self.setup_s += [at_reference_speed(t, before, after) for t in wall]
        self.config = json.loads(self.config_path.read_text(encoding="utf-8"))

    def run_once(self, traced: bool) -> dict | None:
        """One child run on a clean output directory, checked; returns the
        child's result with the run's manifests, or None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        log_path = self.work / "child.log"
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.config_path),
               str(result_path)]
        if traced:
            cmd.append("--trace")
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log,
                                      env=CHILD_ENV,
                                      timeout=self.child_timeout_s).returncode
            except subprocess.TimeoutExpired:
                code = None
        if code != 0 or not result_path.exists():
            self.check(False, f"child exited with {code}; log:\n"
                       + log_path.read_text(encoding="utf-8")[-2000:])
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.attempted += len(result["stage_s"])
        ref = result["ref_s"]
        result["wall"] = {f"stage.{stage}_s": t for stage, t in result["stage_s"].items()}
        result["timings"] = {
            name: at_reference_speed(t, ref[i], ref[i + 1])
            for i, (name, t) in enumerate(result["wall"].items())}
        for times in (result["wall"], result["timings"]):
            times["run_s"] = sum(times.values())
        if result["failed_stage"]:
            self.failed += 1
            print(f"stage {result['failed_stage']} failed; log:\n"
                  + log_path.read_text(encoding="utf-8")[-2000:], file=sys.stderr)
            return None

        for path in manifest_paths(self.out):
            self.check(digests_match(path), f"digests of {path.parent.name}")
        if self.workload.planted_cell:
            self.check(planted_cell_ok(self.out, self.workload.planted_cell),
                       f"planted cell {self.workload.planted_cell}")
        result.update(quality(self.out))
        if traced:
            result["layers"].update(file_metrics(self.out, self.config))
            self.traced.append(result)
        else:
            self.untraced.append(result)
        result["manifests"] = manifest_bytes(self.out)
        return result

    def measure(self, seconds: float, trace: bool) -> None:
        """Rounds until the next one would end after ``seconds``.

        Round k runs on inputs drawn from seed * 1000 + k, so medians
        cover several corpora. A traced round reruns the same inputs
        and must reproduce the untraced manifests byte for byte.
        """
        started = time.perf_counter()
        rounds: list[float] = []
        while True:
            t0 = time.perf_counter()
            self.setup(self.seed * 1000 + len(rounds))
            plain = self.run_once(traced=False)
            if trace:
                traced = self.run_once(traced=True)
                if plain is not None and traced is not None:
                    self.check(traced.pop("manifests") == plain.pop("manifests"),
                               "traced run's manifests differ from the untraced run's")
                    self.overhead_s.append(traced["timings"]["run_s"]
                                           - plain["timings"]["run_s"])
            rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            # past the budget already (a slow or hung child): stop even
            # before MIN_ROUNDS, so the run ends within its time limit
            if elapsed + statistics.median(rounds) > seconds and \
                    (len(rounds) >= MIN_ROUNDS or elapsed > seconds):
                break


def series(runs: list[dict], name: str, key: str = "timings") -> list[float]:
    """One metric over runs: times from ``key`` ("timings" at reference
    speed, or "wall"), anything else from the run's quality figures."""
    return [r[key][name] if name in r[key] else r[name] for r in runs]


def report(values: dict[str, list[float]], units: dict[str, str],
           wall: dict[str, list[float]],
           shares: dict[str, list[float]] | None = None) -> dict:
    """Print each metric's line and return the result's ``metrics``;
    ``shares`` gives, per round, a time's share of that round's run_s."""
    shares = shares or {}
    metrics = {}
    for name, unit in units.items():
        vals = values[name]
        median = statistics.median(vals)
        metrics[name] = {"value": median, "unit": unit}
        line = f"{name}: {median:.6g} {unit} (median of n={len(vals)}"
        if unit == "s":
            p, q = tail_percentile(vals)
            line += f"; p{p}={q:.6g}" if p else "; no percentile has 10 samples beyond it"
        if name in wall:
            line += f"; wall-clock median {statistics.median(wall[name]):.6g} s"
        if name in shares:
            line += f"; {statistics.median(shares[name]):.1%} of run_s"
        print(line + ")")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "gdapred" / "__init__.py", ROOT / "tests" / "corpus.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a "
                  "gdapred checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "tests"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    try:
        bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"src_lines={src_lines()} revision={revision()}")
    if not bench.untraced or (args.trace and not bench.overhead_s):
        print("bench: no run completed", file=sys.stderr)
        return 1
    if args.trace:
        values = {name: [r["layers"][name] for r in bench.traced]
                  for name in UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = bench.overhead_s
        # where the traced time went: each stage's and each layer's share
        stages = {name: series(bench.traced, name) for name in bench.traced[0]["wall"]}

        def share(times: list[float]) -> list[float]:
            return [t / total for t, total in zip(times, stages["run_s"])]

        report(stages, dict.fromkeys(stages, "s"), {},
               {name: share(v) for name, v in stages.items() if name != "run_s"})
        metrics = report(values, UNITS, {},
                         {name: share(v) for name, v in values.items()
                          if UNITS[name] == "s" and name != "trace.overhead_s"})
    else:
        values = {name: series(bench.untraced, name)
                  for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = bench.setup_s
        wall = {name: series(bench.untraced, name, "wall")
                for name in bench.untraced[0]["wall"]}
        wall["setup_s"] = bench.setup_wall_s
        metrics = report(values, END_TO_END, wall)
    print(f"failed_share: {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} stage invocations and checks)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
