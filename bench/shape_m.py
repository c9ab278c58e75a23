"""One traced run at the roadmap's "M" shape, for comparison with its
measured starting point. Not a benchmark workload: it takes minutes.

    python3 bench/shape_m.py [--seed N]

Prints each stage's wall time and its time at reference speed (see
speed.py), then every per-layer metric.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import ROOT, Bench
from layers import UNITS

sys.path.insert(0, str(ROOT / "tests"))
from workloads import Workload  # noqa: E402

SHAPE_M = Workload(
    name="shape_m",
    corpus={"n_clusters": 24, "n_genes": 360, "n_diseases": 240,
            "leaves_per_branch": 40},
    options={"variants": ("HP", "HP_GO_LD"), "methods": ("walk",),
             "operators": ("hadamard",), "learners": ("random_forest", "cosine"),
             "dimension": 64, "epochs": 3, "walks_per_node": 10,
             "classifier_params": {"random_forest": {"n_trees": 50}}},
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work" / "shape_m"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(SHAPE_M, args.seed, work)
    bench.child_timeout_s = 1800
    try:
        bench.setup(args.seed)
        result = bench.run_once(traced=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print("| stage | wall s | s at reference speed |\n|---|---|---|")
    for name, seconds in result["wall"].items():
        print(f"| {name} | {seconds:.2f} | {result['timings'][name]:.2f} |")
    print(f"peak_rss_mib: {result['peak_rss_mib']:.1f}")
    for name in UNITS:
        if name in result["layers"]:
            print(f"{name}: {result['layers'][name]:.6g} {UNITS[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
