"""In-memory span tracing installed from outside the program.

The tracer replaces public functions and methods of the gdapred modules
with thin wrappers that record one span per call: a name, the start and
end on ``time.perf_counter``, and the span that was open when the call
began. Nothing under ``src/`` knows about it; ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# (module, owner attribute or None for the module itself, attribute, span name)
# The owner is the namespace the caller looks the name up in: the
# pipeline imports its helpers by name, so those are patched on
# ``gdapred.pipeline``; ``gdapred.kge.embed`` resolves trainers on
# ``gdapred.kge``; ``ssm_baseline`` resolves IC tables on
# ``gdapred.semsim``; ``evaluate_run`` resolves ROC and the sweep on
# ``gdapred.evaluation``.
PIPELINE_NAMES = {
    "ontology": ("parse_obo", "parse_gaf", "parse_gene_phenotype",
                 "parse_disease_phenotype", "parse_mapping",
                 "parse_associations", "filter_associations",
                 "prune_annotations", "restrict_annotations",
                 "merge_annotation_maps"),
    "kg": ("build_kg", "read_triples", "write_triples"),
    "semsim": ("ssm_baseline", "write_scored_pairs"),
    "kge": ("embed", "read_embeddings", "write_embeddings"),
    "pairing": ("build_pair_features", "write_pair_features",
                "read_pair_features", "cosine_unit_score"),
    "learn": ("grid_search", "make_classifier", "load_model"),
    "evaluation": ("evaluate_run", "sample_negatives", "stratified_split",
                   "read_dataset", "write_dataset", "write_roc_tsv"),
    "pipeline": ("write_manifest", "write_timings", "file_digest",
                 "read_annotation_tsv", "write_annotation_tsv"),
}

TARGETS = (
    [("gdapred.pipeline", None, name, f"{layer}.{name}")
     for layer, names in PIPELINE_NAMES.items() for name in names]
    + [("gdapred.kge", None, name, f"kge.{name}")
       for name in ("generate_walks", "build_lexical_corpus",
                    "train_skipgram", "train_transe", "train_distmult")]
    + [("gdapred.semsim", None, name, f"semsim.{name}")
       for name in ("ic_seco", "ic_resnik")]
    + [("gdapred.evaluation", None, name, f"evaluation.{name}")
       for name in ("roc_auc", "threshold_sweep")]
    + [("gdapred.learn", cls, method, f"learn.{cls}.{method}")
       for cls in ("RandomForestClassifier", "GaussianNaiveBayes",
                   "MLPClassifier")
       for method in ("fit", "predict_proba")]
    + [("gdapred.learn", "BinaryClassifier", "save", "learn.save")]
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    #: facts an extractor read off the call's arguments and result
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(record)
        self._open.append(record)
        return record

    def close(self, record: Span) -> None:
        record.end = self.clock()
        popped = self._open.pop()
        if popped is not record:
            raise RuntimeError(f"span {record.name} closed out of order")

    def wrap(self, fn, name: str, extract=None):
        """``extract(args, kwargs, result)`` returns the span's attrs; it
        runs after the span closes, so its cost falls to the parent."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(record)
            if extract is not None:
                record.attrs = extract(args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attribute: str, name: str, extract=None) -> None:
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, extract))

    def install(self, stage_functions: dict, extractors: dict) -> None:
        """Wrap every target, and each stage function as ``stage.<name>``.

        ``extractors`` maps span names to attr extractors (see ``wrap``).
        """
        for module_name, owner_name, attribute, name in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self.patch(owner, attribute, name, extractors.get(name))
        for stage in stage_functions:
            original = stage_functions[stage]
            self._patched.append((stage_functions, stage, original))
            stage_functions[stage] = self.wrap(original, f"stage.{stage}")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    # -- derived times -----------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        kids = self.children()
        return {s.id: s.duration - covered(s, kids.get(s.id, ()))
                for s in self.spans}


def covered(span: Span, kids) -> float:
    """Length of the union of the child intervals, clipped to ``span``."""
    total = 0.0
    reach = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, reach)
        hi = min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
