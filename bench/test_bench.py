"""Tests of the benchmark's own machinery: span arithmetic, wrapper
removal, and the counts it derives from inputs and outputs."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "tests"))
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import layers  # noqa: E402
from tracing import TARGETS, Span, Tracer, covered  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_child_spans():
    # root 0..10 { a 1..4 { a1 2..3 }  b 5..9 }
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.span("root")
    a = tracer.span("a")
    a1 = tracer.span("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.span("b")
    tracer.close(b)
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [None, root.id, a.id, root.id]
    selfs = tracer.self_times()
    assert selfs[root.id] == 10 - 3 - 4
    assert selfs[a.id] == 3 - 1
    assert selfs[a1.id] == 1
    assert selfs[b.id] == 4


def test_covered_counts_overlap_once_and_clips_to_the_span():
    tracer = Tracer(clock=FakeClock(0, 10))
    parent = tracer.span("p")
    tracer.close(parent)
    kids = [Span(1, "k", 0, 2, 6), Span(2, "k", 0, 4, 8), Span(3, "k", 0, 9, 12)]
    assert covered(parent, kids) == (8 - 2) + (10 - 9)


def test_close_out_of_order_is_an_error():
    tracer = Tracer(clock=FakeClock(0, 1, 2))
    outer = tracer.span("outer")
    tracer.span("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_window_pairs_matches_enumeration():
    for length in range(0, 12):
        for window in range(1, 7):
            brute = sum(1 for i in range(length) for j in range(length)
                        if i != j and abs(i - j) <= window)
            assert layers.window_pairs(length, window) == brute


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A traced run of every stage on a tiny planted corpus, with the
    program's own count points observed through test-only probes."""
    from corpus import PlantedCorpus, write_config

    import gdapred.kge.skipgram as skipgram
    import gdapred.semsim as semsim
    from gdapred.pipeline import STAGE_FUNCTIONS

    tmp = tmp_path_factory.mktemp("tiny")
    corpus = PlantedCorpus(tmp / "data", n_clusters=2, n_genes=12,
                           n_diseases=8, leaves_per_branch=4,
                           go_leaves_per_cluster=4, seed=3)
    config = corpus.config(
        tmp / "out", variants=("HP", "HP_GO_LD"),
        methods=("walk", "walk_lexical"), operators=("hadamard",),
        learners=("random_forest", "cosine"), dimension=8, epochs=2,
        walks_per_node=2, window=3)
    config["grids"] = {"random_forest": {"n_trees": [2, 3], "max_depth": [None, 3]}}
    config["grid_folds"] = 2
    config_path = write_config(config, tmp / "config.json")

    originals = {(module, owner, attr): _lookup(module, owner, attr)
                 for module, owner, attr, _ in TARGETS}
    stage_originals = dict(STAGE_FUNCTIONS)

    probes = {"template_pairs": 0, "lookups": 0, "misses": 0}
    real_template = skipgram._pair_template
    real_groupwise = semsim.sim_groupwise
    real_pair = semsim.sim_resnik_pair

    def template(length, window, cache):
        out = real_template(length, window, cache)
        probes["template_pairs"] += out[0].size
        return out

    def groupwise(gene_terms, disease_terms, cfg, *args, **kwargs):
        if cfg.aggregation != "SIMGIC":
            probes["lookups"] += len(gene_terms) * len(disease_terms)
        return real_groupwise(gene_terms, disease_terms, cfg, *args, **kwargs)

    def pair(*args):
        probes["misses"] += 1
        return real_pair(*args)

    skipgram._pair_template = template
    semsim.sim_groupwise = groupwise
    semsim.sim_resnik_pair = pair
    tracer = Tracer()
    try:
        result = child.run_stages(str(config_path), tracer)
    finally:
        skipgram._pair_template = real_template
        semsim.sim_groupwise = real_groupwise
        semsim.sim_resnik_pair = real_pair
    return {"result": result, "tracer": tracer, "config": config,
            "out": tmp / "out", "probes": probes, "originals": originals,
            "stage_originals": stage_originals}


def _lookup(module, owner, attr):
    obj = importlib.import_module(module)
    if owner is not None:
        obj = getattr(obj, owner)
    return getattr(obj, attr)


def test_traced_run_succeeds_and_records_every_stage(tiny_run):
    assert tiny_run["result"]["failed_stage"] is None
    names = {s.name for s in tiny_run["tracer"].spans}
    from gdapred.pipeline import STAGES
    assert {f"stage.{s}" for s in STAGES} <= names
    assert "kge.train_skipgram" in names and "learn.grid_search" in names


def test_wrappers_are_uninstalled_after_a_traced_run(tiny_run):
    from gdapred.pipeline import STAGE_FUNCTIONS
    for key, original in tiny_run["originals"].items():
        assert _lookup(*key) is original, key
    assert STAGE_FUNCTIONS == tiny_run["stage_originals"]


def test_counts_are_exact_on_a_tiny_corpus(tiny_run):
    tracer, out, config = tiny_run["tracer"], tiny_run["out"], tiny_run["config"]
    probes = tiny_run["probes"]
    spans = layers.span_metrics(tracer.spans, tracer.self_times())
    files = layers.file_metrics(out, config)
    # every per-layer metric BENCHMARK.json lists is produced, and no other
    assert set(spans) | set(files) | {"trace.overhead_s"} == set(layers.UNITS)

    # the trainer sizes every sentence once to count, then once per epoch
    epochs = config["embedding"]["epochs"]
    assert spans["kge.sgns_pairs_per_epoch"] * (epochs + 1) == probes["template_pairs"]

    assert files["semsim.term_pair_lookups"] == probes["lookups"]
    assert files["semsim.term_pairs_distinct"] == probes["misses"]

    fits_in_grid = 0
    grid_ids = {s.id for s in tracer.spans if s.name == "learn.grid_search"}
    for s in tracer.spans:
        if s.name == "learn.RandomForestClassifier.fit" and s.parent in grid_ids:
            fits_in_grid += 1
    assert files["learn.grid_fits"] == fits_in_grid == 4 * (4 * 2 + 1)

    from gdapred.learn import load_model
    nodes = 0
    for path in (out / "train").glob("model_*random_forest.json"):
        for tree in load_model(path).trees_:
            stack = [tree]
            while stack:
                node = stack.pop()
                nodes += 1
                if "leaf" not in node:
                    stack += [node["left"], node["right"]]
    assert files["learn.forest_nodes"] == nodes > 0

    details = json.loads((out / "kg" / "manifest.json").read_text())["details"]
    assert files["kg.triples"] == sum(v["triples"] for v in details.values())
    assert files["kg.nodes"] == sum(v["nodes"] for v in details.values())
    # HP and GO are parsed in ingest, build-kg and (walk_lexical) embed
    assert spans["ontology.parse_calls"] == 6
