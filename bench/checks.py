"""Output checks and quality figures, read from a run's artifacts.

Digests are recomputed here with hashlib rather than through the
program's own helper, so a manifest that lies about its outputs fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

COSINE_SUFFIX = "_cosine"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_paths(out_dir: Path) -> list[Path]:
    return sorted(out_dir.glob("*/manifest.json"))


def manifest_bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.parent.name: p.read_bytes() for p in manifest_paths(out_dir)}


def digests_match(manifest_path: Path) -> bool:
    """Every ``outputs`` digest of one manifest matches its file."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    stage_dir = manifest_path.parent
    return all((stage_dir / name).is_file() and sha256(stage_dir / name) == digest
               for name, digest in manifest["outputs"].items())


def quality(out_dir: Path) -> dict[str, float]:
    """Best classifier AUC and WAF, best cosine AUC, best SSM WAF."""
    cells = json.loads((out_dir / "evaluate" / "manifest.json")
                       .read_text(encoding="utf-8"))["details"]
    baseline = json.loads((out_dir / "baseline" / "baseline.json")
                          .read_text(encoding="utf-8"))
    learned = [row for cell, row in cells.items() if not cell.endswith(COSINE_SUFFIX)]
    cosine = [row for cell, row in cells.items() if cell.endswith(COSINE_SUFFIX)]
    return {
        "best_auc": max(row["auc"] for row in learned),
        "best_waf": max(row["waf"] for row in learned),
        "cosine_auc": max(row["auc"] for row in cosine),
        "baseline_best_waf": max(row["waf"] for row in baseline["measures"].values()),
    }


def planted_cell_ok(out_dir: Path, cell_prefix: str, min_auc: float = 0.90) -> bool:
    """The planted forest cell reaches ``min_auc`` and its WAF beats the
    cosine cell of the same embedding: acceptance criterion 6's thresholds,
    applied to whatever configuration the run used."""
    cells = json.loads((out_dir / "evaluate" / "manifest.json")
                       .read_text(encoding="utf-8"))["details"]
    forest = cells[f"{cell_prefix}_random_forest"]
    cosine = cells[f"{cell_prefix}{COSINE_SUFFIX}"]
    return forest["auc"] >= min_auc and forest["waf"] > cosine["waf"]
