"""One run of a workload's stage sequence, in a fresh process.

    python3 bench/child.py CONFIG RESULT_JSON [--trace]

Every stage, in order, goes through ``gdapred.cli.main`` exactly as a
user would invoke it. The result file gets the wall time of each stage,
the reference-loop times taken before the first stage and after each
stage (see speed.py), this process's peak resident memory, the first
failing stage if any, and with ``--trace`` the per-layer metrics, whose
times are rescaled to the reference speed of their stage.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gdapred.pipeline import STAGE_FUNCTIONS, STAGES  # noqa: E402
from layers import EXTRACTORS, span_metrics  # noqa: E402
from speed import at_reference_speed, reference_s  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_stages(config: str, tracer=None) -> dict:
    from gdapred import cli

    if tracer is not None:
        tracer.install(STAGE_FUNCTIONS, EXTRACTORS)
    stage_s: dict[str, float] = {}
    ref_s = [reference_s()]
    failed = None
    try:
        for stage in STAGES:
            t0 = time.perf_counter()
            code = cli.main([stage, "--config", config])
            stage_s[stage] = time.perf_counter() - t0
            ref_s.append(reference_s())
            if code != 0:
                failed = stage
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"stage_s": stage_s, "ref_s": ref_s, "failed_stage": failed}


def stage_scales(spans, ref_s) -> dict[int, float]:
    """Reference-speed factor of every span: that of the stage it ran in."""
    factor = {}
    for i, stage in enumerate(STAGES[:len(ref_s) - 1]):
        factor[f"stage.{stage}"] = at_reference_speed(1.0, ref_s[i], ref_s[i + 1])
    scale: dict[int, float] = {}
    for s in spans:  # parents precede children
        scale[s.id] = scale[s.parent] if s.parent is not None else factor[s.name]
    return scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    result = run_stages(args.config, tracer)
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = span_metrics(
            tracer.spans, tracer.self_times(),
            stage_scales(tracer.spans, result["ref_s"]))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
