"""A traced benchmark child run at workload size.

``bench/test_bench.py`` traces a tiny corpus in-process; this runs
``bench/child.py --trace`` as the benchmark does, in its own process
with a pinned string-hash seed, on the ``walk_forest`` workload's inputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gdapred.pipeline import STAGES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_walk_forest_child_run(tmp_path):
    out = tmp_path / "out"
    config_path = WORKLOADS["walk_forest"].write_inputs(
        tmp_path / "inputs", out, seed=7000)
    result_path = tmp_path / "result.json"
    env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(config_path),
         str(result_path), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]

    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["failed_stage"] is None
    assert list(result["stage_s"]) == list(STAGES)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    files = layers.file_metrics(out, config)
    assert set(result["layers"]) | set(files) | {"trace.overhead_s"} \
        == set(layers.UNITS)
    assert files["learn.forest_nodes"] > 0
