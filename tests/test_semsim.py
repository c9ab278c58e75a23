"""Information-content and similarity-measure contracts."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdapred.semsim as semsim
from gdapred.cli import main
from gdapred.errors import CycleError, DegenerateDataError, UnknownNodeError
from gdapred.kg import (
    HAS_ANNOTATION,
    SUBCLASS_OF,
    VIRTUAL_ROOT,
    KnowledgeGraph,
    build_kg,
    read_triples,
)
from gdapred.ontology import (
    AnnotationMap,
    Ontology,
    OntologyTerm,
    entity_node,
    merge_annotation_maps,
    plain_id,
)
from gdapred.pipeline import PipelineConfig, cmd_baseline, read_annotation_tsv
from gdapred.semsim import (
    SSM_CONFIGS,
    InformationContentTable,
    PairPlan,
    SimilarityConfig,
    ic_resnik,
    ic_seco,
    ic_table,
    sim_groupwise,
    sim_resnik_pair,
    ssm_baseline,
    write_scored_pairs,
)

from corpus import PlantedCorpus, write_config
from helpers import (
    dataset_of,
    loop_best_match,
    oracle_groupwise,
    oracle_ic_resnik,
    oracle_ic_seco,
    oracle_pair_sim,
    pairs_of,
    random_hp_kg,
    row_fsums,
    score_dataset,
    score_grid,
    set_form_ic_resnik,
    set_form_ic_seco,
    set_form_masks,
    set_form_simgic,
)


def make_ontology(ids, is_a):
    terms = {i: OntologyTerm(id=i) for i in ids}
    edges = {(c, "is_a", p) for c, p in is_a}
    has_parent = {c for c, _ in is_a}
    return Ontology(terms=terms, edges=edges, roots=set(ids) - has_parent)


def annotations(**entries):
    amap = AnnotationMap()
    for key, terms in entries.items():
        kind = "gene" if key.startswith("g") else "disease"
        amap.entries[entity_node(kind, key)] = set(terms)
    return amap


def chain_kg():
    ont = make_ontology(["HP:a", "HP:b", "HP:c"],
                        [("HP:b", "HP:a"), ("HP:c", "HP:b")])
    return build_kg("HP", ont,
                    gene_hp=annotations(g1=["HP:c"]),
                    disease_hp=annotations(d1=["HP:b"]))


class TestIcSeco:
    def test_chain_values(self):
        ic = ic_seco(chain_kg())
        assert ic.values["HP:a"] == 0.0
        assert ic.values["HP:c"] == 1.0
        # frozen from direct formula evaluation with brute-force
        # descendant counts: 1 - log 2 / log 3
        assert ic.values["HP:b"] == pytest.approx(
            1.0 - math.log(2) / math.log(3), abs=1e-12)
        assert ic.values["HP:b"] == pytest.approx(0.3690702464285426, abs=1e-12)

    def test_root_zero_leaf_one_on_random_dags(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            kg, ont, _, _ = random_hp_kg(rng, int(rng.integers(3, 30)), 2, 2)
            ic = ic_seco(kg)
            root = next(iter(ont.roots))
            assert ic.values[root] == 0.0
            has_children = {p for _, rel, p in ont.edges if rel == "is_a"}
            for leaf in set(ont.terms) - has_children:
                assert ic.values[leaf] == 1.0

    def test_antitone_along_subclass(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            kg, ont, _, _ = random_hp_kg(rng, int(rng.integers(3, 30)), 2, 2)
            ic = ic_seco(kg)
            for child, rel, parent in ont.edges:
                if rel == "is_a":
                    assert ic.values[parent] <= ic.values[child]

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(47)
        kg, _, _, _ = random_hp_kg(rng, 25, 2, 2)
        for value in ic_seco(kg).values.values():
            assert 0.0 <= value <= 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(53)
        kg, _, _, _ = random_hp_kg(rng, 20, 2, 2)
        expected = oracle_ic_seco(kg)
        actual = ic_seco(kg).values
        for term, value in expected.items():
            assert actual[term] == pytest.approx(value, abs=1e-12)

    def test_degenerate_ontology(self):
        ont = make_ontology(["HP:a"], [])
        kg = build_kg("HP", ont, gene_hp=annotations(g1=["HP:a"]),
                      disease_hp=annotations(d1=["HP:a"]))
        with pytest.raises(DegenerateDataError):
            ic_seco(kg)


class TestIcResnik:
    def toy(self):
        ont = make_ontology(["HP:r", "HP:x", "HP:y"],
                            [("HP:x", "HP:r"), ("HP:y", "HP:r")])
        gene_hp = annotations(g1=["HP:x"])
        disease_hp = annotations(d1=["HP:y"])
        kg = build_kg("HP", ont, gene_hp=gene_hp, disease_hp=disease_hp)
        corpus = annotations(g1=["HP:x"], d1=["HP:y"])
        return kg, corpus

    def test_top_is_zero(self):
        kg, corpus = self.toy()
        assert ic_resnik(kg, corpus).values["HP:r"] == 0.0

    def test_half_coverage_is_ln2(self):
        kg, corpus = self.toy()
        ic = ic_resnik(kg, corpus)
        assert ic.values["HP:x"] == pytest.approx(math.log(2), abs=1e-12)
        assert ic.values["HP:x"] == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_zero_count_terms_absent(self):
        ont = make_ontology(["HP:r", "HP:x", "HP:y"],
                            [("HP:x", "HP:r"), ("HP:y", "HP:r")])
        kg = build_kg("HP", ont, gene_hp=annotations(g1=["HP:x"]),
                      disease_hp=annotations(d1=["HP:x"]))
        ic = ic_resnik(kg, annotations(g1=["HP:x"], d1=["HP:x"]))
        assert "HP:y" not in ic.values

    def test_empty_corpus(self):
        kg, _ = self.toy()
        with pytest.raises(DegenerateDataError):
            ic_resnik(kg, AnnotationMap())

    def test_matches_oracle(self):
        rng = np.random.default_rng(59)
        kg, _, gene_map, disease_map = random_hp_kg(rng, 25, 4, 4)
        corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
        expected = oracle_ic_resnik(kg, corpus)
        actual = ic_resnik(kg, corpus).values
        assert set(actual) == set(expected)
        for term, value in expected.items():
            assert actual[term] == pytest.approx(value, abs=1e-12)

    def test_antitone_where_defined(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            kg, ont, gene_map, disease_map = random_hp_kg(
                rng, int(rng.integers(5, 30)), 4, 4)
            corpus = AnnotationMap(
                entries={**gene_map.entries, **disease_map.entries})
            ic = ic_resnik(kg, corpus)
            for child, rel, parent in ont.edges:
                if rel != "is_a":
                    continue
                if child in ic.values and parent in ic.values:
                    assert ic.values[parent] <= ic.values[child] + 1e-12


def random_dag(rng, n_terms: int, n_roots: int, join: bool, unknown: bool):
    """A KG over a random DAG of ``n_terms`` terms, the first ``n_roots``
    of them roots, each later term with one to three earlier parents,
    the roots joined under the virtual root if ``join``, and one term
    on no subClassOf edge; with it a corpus of six entities, one of them
    annotated with a term outside the graph if ``unknown``."""
    ids = [f"HP:{i:07d}" for i in range(n_terms)]
    triples = set()
    for i in range(n_roots, n_terms):
        for p in rng.choice(i, size=int(rng.integers(1, min(3, i) + 1)), replace=False):
            triples.add((ids[i], SUBCLASS_OF, ids[int(p)]))
    if join:
        triples.update((ids[r], SUBCLASS_OF, VIRTUAL_ROOT) for r in range(n_roots))
    triples.add(("GENE:lone", HAS_ANNOTATION, "HP:lone"))
    kg = KnowledgeGraph("HP_GO" if join else "HP", triples)
    terms = sorted(kg.term_nodes)
    corpus = AnnotationMap()
    for i in range(6):
        chosen = rng.choice(len(terms), size=int(rng.integers(1, 4)), replace=False)
        corpus.entries[f"GENE:e{i}"] = {terms[int(c)] for c in chosen}
    if unknown:
        corpus.entries["GENE:e0"].add("HP:404")
    return kg, corpus


def float_bits(values: dict[str, float]) -> dict[str, str]:
    """Each value's exact bits, which also tell 0.0 from -0.0."""
    return {t: v.hex() for t, v in values.items()}


class TestClosures:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(2, 40),
           n_roots=st.integers(1, 4), join=st.booleans(), unknown=st.booleans())
    @example(seed=0, n_terms=12, n_roots=3, join=True, unknown=True)
    def test_bitsets_tables_and_masks_equal_the_set_forms(
            self, seed, n_terms, n_roots, join, unknown):
        rng = np.random.default_rng(seed)
        kg, corpus = random_dag(rng, n_terms, min(n_roots, n_terms - 1), join, unknown)
        order = kg.term_order()
        assert sorted(order) == sorted(kg.term_nodes)
        position = {t: i for i, t in enumerate(order)}
        assert all(position[p] < position[t] for t in order for p in kg.parents(t))

        terms, closure = kg.ancestor_bits()
        assert terms == sorted(kg.term_nodes)
        for t in terms:
            assert {u for i, u in enumerate(terms) if closure[t] >> i & 1} \
                == kg.ancestor_set(t)

        seco = ic_seco(kg).values
        assert float_bits(seco) == float_bits(set_form_ic_seco(kg))
        # zero and tied values, terms without a value and one off the graph
        chosen = rng.choice(len(terms), size=int(rng.integers(1, len(terms) + 1)),
                            replace=False)
        hand = {terms[int(c)]: float(rng.choice([0.0, 0.5, 0.5, 1.25]))
                for c in chosen}
        tables = [seco, {**hand, "HP:elsewhere": 0.75}]
        if unknown:
            with pytest.raises(UnknownNodeError) as want:
                set_form_ic_resnik(kg, corpus)
            with pytest.raises(UnknownNodeError) as got:
                ic_resnik(kg, corpus)
            assert str(got.value) == str(want.value) == \
                "HP:404 is not a term node of this graph"
        else:
            resnik = ic_resnik(kg, corpus).values
            assert float_bits(resnik) == float_bits(set_form_ic_resnik(kg, corpus))
            tables.append(resnik)
        for values in tables:
            index = semsim._GraphIndex(kg, values)
            assert (index.ic, index.masks) == set_form_masks(kg, values)

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(
               st.one_of(st.floats(-1e300, 1e300),
                         st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.0])),
               min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    @example(weights=[1e16, *[1.0] * 12], seed=0)
    @example(weights=[1e300, 1e-300, 5e-324, 2.5e-320, 0.0, 1e300], seed=1)
    def test_exact_sums_have_the_bits_of_fsum(self, weights, seed):
        mask = np.random.default_rng(seed).random((6, len(weights))) < 0.6
        mask[0] = True
        mask[1] = False
        sums = semsim._ExactSums(weights)
        got = [sums.value(total) for total in sums.of_rows(mask)]
        assert [v.hex() for v in got] == [
            v.hex() for v in row_fsums(mask, np.array(weights))]

    def test_subclass_cycle_is_cycle_error(self, tmp_path, caplog):
        corpus = PlantedCorpus(tmp_path / "data", n_clusters=2, n_genes=8,
                               n_diseases=6, leaves_per_branch=3,
                               go_leaves_per_cluster=3, seed=2)
        config = write_config(corpus.config(tmp_path / "out", variants=("HP",)),
                              tmp_path / "config.json")
        for stage in ("ingest", "build-kg"):
            assert main([stage, "--config", str(config)]) == 0
        # an edited triples file that closes a subClassOf edge into a cycle
        kg_path = tmp_path / "out" / "kg" / "kg_HP.tsv"
        lines = kg_path.read_text().splitlines()
        child, _, parent = next(line.split("\t") for line in lines
                                if line.split("\t")[1] == SUBCLASS_OF)
        kg_path.write_text("\n".join([*lines, f"{parent}\t{SUBCLASS_OF}\t{child}"]) + "\n")
        first, second = sorted((child, parent))
        cycle = f"subClassOf cycle: {first} -> {second} -> {first}"

        kg = read_triples(kg_path, "HP")
        annotations = merge_annotation_maps(*(
            read_annotation_tsv(tmp_path / "out" / "ingest" / f"annotations_{kind}_hp.tsv",
                                kind) for kind in ("gene", "disease")))
        with pytest.raises(CycleError, match=cycle):
            ic_seco(kg)
        with pytest.raises(CycleError, match=cycle):
            ic_resnik(kg, annotations)
        with pytest.raises(CycleError, match=cycle):
            cmd_baseline(PipelineConfig.from_file(config))
        assert main(["baseline", "--config", str(config)]) == 1
        assert cycle in caplog.text


class TestSimResnikPair:
    def test_self_similarity_is_own_ic(self):
        kg = chain_kg()
        ic = ic_seco(kg)
        assert sim_resnik_pair("HP:b", "HP:b", kg, ic) == ic.values["HP:b"]

    def test_root_only_common_ancestor(self):
        ont = make_ontology(["HP:r", "HP:x", "HP:y"],
                            [("HP:x", "HP:r"), ("HP:y", "HP:r")])
        kg = build_kg("HP", ont, gene_hp=annotations(g1=["HP:x"]),
                      disease_hp=annotations(d1=["HP:y"]))
        assert sim_resnik_pair("HP:x", "HP:y", kg, ic_seco(kg)) == 0.0

    def test_unknown_term(self):
        kg = chain_kg()
        ic = ic_seco(kg)
        # an entity node is a node of the graph but not a term
        for a, b, unknown in (("HP:404", "HP:a", "HP:404"),
                              ("HP:a", "HP:404", "HP:404"),
                              ("GENE:g1", "HP:a", "GENE:g1")):
            with pytest.raises(UnknownNodeError, match=unknown):
                sim_resnik_pair(a, b, kg, ic)

    def test_matches_oracle_on_random_dag(self):
        rng = np.random.default_rng(61)
        kg, _, _, _ = random_hp_kg(rng, 30, 2, 2)
        ic = ic_seco(kg)
        terms = sorted(kg.term_nodes)
        for _ in range(60):
            a = terms[int(rng.integers(len(terms)))]
            b = terms[int(rng.integers(len(terms)))]
            assert sim_resnik_pair(a, b, kg, ic) == pytest.approx(
                oracle_pair_sim(a, b, kg, ic.values), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(2, 30),
           flavor=st.sampled_from(["seco", "resnik_corpus", "hand"]))
    @example(seed=0, n_terms=12, flavor="hand")
    def test_equals_oracle_exactly(self, seed, n_terms, flavor):
        rng = np.random.default_rng(seed)
        kg, _, gene_map, disease_map = random_hp_kg(rng, n_terms, 2, 1, max_terms=3)
        terms = sorted(kg.term_nodes)
        if flavor == "seco":
            ic = ic_seco(kg)
        elif flavor == "resnik_corpus":
            # three small annotation sets leave most terms unreached
            ic = ic_resnik(kg, AnnotationMap(
                entries={**gene_map.entries, **disease_map.entries}))
        else:
            # zero and tied values, and terms without a value
            chosen = rng.choice(len(terms), size=int(rng.integers(1, len(terms) + 1)),
                                replace=False)
            ic = InformationContentTable("seco", {
                terms[int(c)]: float(rng.choice([0.0, 0.5, 0.5, 1.25]))
                for c in chosen})
        for _ in range(20):
            a = terms[int(rng.integers(len(terms)))]
            b = terms[int(rng.integers(len(terms)))]
            # repr also tells 0.0 from -0.0
            assert repr(sim_resnik_pair(a, b, kg, ic)) == repr(
                oracle_pair_sim(a, b, kg, ic.values))

    def test_one_table_with_two_graphs(self):
        # the same terms, nested differently in each graph
        values = {"HP:r": 0.0, "HP:x": 0.3, "HP:y": 0.6, "HP:z": 0.9}
        kgs = []
        for is_a in ([("HP:x", "HP:r"), ("HP:y", "HP:x"), ("HP:z", "HP:x")],
                     [("HP:x", "HP:r"), ("HP:y", "HP:r"), ("HP:z", "HP:y")]):
            ont = make_ontology(["HP:r", "HP:x", "HP:y", "HP:z"], is_a)
            kgs.append(build_kg("HP", ont, gene_hp=annotations(g1=["HP:y"]),
                                disease_hp=annotations(d1=["HP:z"])))
        ic = InformationContentTable("seco", values)
        for kg, want in ((kgs[0], 0.3), (kgs[1], 0.6), (kgs[0], 0.3)):
            assert sim_resnik_pair("HP:y", "HP:z", kg, ic) == want
            assert want == oracle_pair_sim("HP:y", "HP:z", kg, values)


def matrix_fixture():
    """Four leaves whose pairwise MICA ICs form [[0.9, 0.1], [0.2, 0.8]]."""
    ids = ["HP:root", "HP:c11", "HP:c12", "HP:c21", "HP:c22",
           "HP:a1", "HP:a2", "HP:b1", "HP:b2"]
    is_a = [("HP:c11", "HP:root"), ("HP:c12", "HP:root"),
            ("HP:c21", "HP:root"), ("HP:c22", "HP:root"),
            ("HP:a1", "HP:c11"), ("HP:a1", "HP:c12"),
            ("HP:a2", "HP:c21"), ("HP:a2", "HP:c22"),
            ("HP:b1", "HP:c11"), ("HP:b1", "HP:c21"),
            ("HP:b2", "HP:c12"), ("HP:b2", "HP:c22")]
    ont = make_ontology(ids, is_a)
    kg = build_kg("HP", ont,
                  gene_hp=annotations(g1=["HP:a1", "HP:a2"]),
                  disease_hp=annotations(d1=["HP:b1", "HP:b2"]))
    ic = InformationContentTable("seco", {
        "HP:root": 0.0, "HP:c11": 0.9, "HP:c12": 0.1,
        "HP:c21": 0.2, "HP:c22": 0.8,
    })
    return kg, ic


def groupwise(gene_terms, disease_terms, config, kg, ic) -> float:
    """The raw ``ssm_baseline`` score of one gene set with one disease set."""
    return score_grid([gene_terms], [disease_terms], config, kg, ic)[0][0]


def _groupwise_scores(aggregation: str, hash_seed: str) -> str:
    """repr of one measure's scores on a fixed random DAG, computed in a
    process with the given PYTHONHASHSEED."""
    script = (
        "import numpy as np\n"
        "from helpers import random_hp_kg, score_grid\n"
        "from gdapred.semsim import SimilarityConfig, ic_seco\n"
        "kg, _, genes, diseases = random_hp_kg(np.random.default_rng(0), 300, 40, 30)\n"
        f"config = SimilarityConfig({aggregation!r}, 'seco')\n"
        "print(repr(score_grid(list(genes.entries.values()),\n"
        "                      list(diseases.entries.values()), config, kg, ic_seco(kg))))\n")
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir), str(tests_dir.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


class TestSimGroupwise:
    def test_bma_and_max_on_hand_matrix(self):
        kg, ic = matrix_fixture()
        genes = {"HP:a1", "HP:a2"}
        diseases = {"HP:b1", "HP:b2"}
        bma = groupwise(genes, diseases, SimilarityConfig("BMA", "seco"), kg, ic)
        top = groupwise(genes, diseases, SimilarityConfig("MAX", "seco"), kg, ic)
        # frozen hand evaluation: 0.5 * ((0.9 + 0.8)/2 + (0.9 + 0.8)/2)
        assert bma == pytest.approx(0.85, abs=1e-12)
        assert top == pytest.approx(0.9, abs=1e-12)

    def test_singletons_degenerate_to_pairwise(self):
        kg = chain_kg()
        ic = ic_seco(kg)
        pair = sim_resnik_pair("HP:b", "HP:c", kg, ic)
        for agg in ("BMA", "MAX"):
            got = groupwise({"HP:b"}, {"HP:c"}, SimilarityConfig(agg, "seco"), kg, ic)
            assert got == pytest.approx(pair, abs=1e-15)

    def test_simgic_identity(self):
        kg = chain_kg()
        ic = ic_seco(kg)
        assert groupwise({"HP:c"}, {"HP:c"},
                         SimilarityConfig("SIMGIC", "seco"), kg, ic) == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(DegenerateDataError):
            sim_groupwise(set(), {"HP:c"}, SimilarityConfig("BMA", "seco"),
                          np.zeros((0, 1)))

    def test_symmetry_and_max_dominates_bma(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            kg, _, gene_map, disease_map = random_hp_kg(rng, 25, 3, 3)
            corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
            gene_sets = list(gene_map.entries.values())
            disease_sets = list(disease_map.entries.values())
            for config in SSM_CONFIGS:
                ic = ic_seco(kg) if config.ic_flavor == "seco" else ic_resnik(kg, corpus)
                ab = score_grid(gene_sets, disease_sets, config, kg, ic)
                ba = score_grid(disease_sets, gene_sets, config, kg, ic)
                for i, row in enumerate(ab):
                    for j, value in enumerate(row):
                        assert value == pytest.approx(ba[j][i], abs=1e-12)
            ic = ic_seco(kg)
            bma = score_grid(gene_sets, disease_sets, SimilarityConfig("BMA", "seco"),
                             kg, ic)
            top = score_grid(gene_sets, disease_sets, SimilarityConfig("MAX", "seco"),
                             kg, ic)
            for bma_row, top_row in zip(bma, top):
                for b, t in zip(bma_row, top_row):
                    assert t >= b - 1e-12

    def test_simgic_in_unit_interval(self):
        rng = np.random.default_rng(71)
        kg, _, gene_map, disease_map = random_hp_kg(rng, 30, 4, 4)
        grid = score_grid(list(gene_map.entries.values()),
                          list(disease_map.entries.values()),
                          SimilarityConfig("SIMGIC", "seco"), kg, ic_seco(kg))
        for row in grid:
            for s in row:
                assert 0.0 <= s <= 1.0

    def test_simgic_independent_of_hash_seed(self):
        # set iteration order follows PYTHONHASHSEED; the score must not
        outputs = [_groupwise_scores("SIMGIC", seed) for seed in ("1", "2")]
        assert outputs[0] == outputs[1]

    def test_bma_and_max_independent_of_hash_seed(self):
        for aggregation in ("BMA", "MAX"):
            outputs = [_groupwise_scores(aggregation, seed) for seed in ("1", "2")]
            assert outputs[0] == outputs[1]

    def test_all_configs_match_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            kg, _, gene_map, disease_map = random_hp_kg(
                rng, int(rng.integers(10, 41)), 4, 4)
            corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
            gene_sets = list(gene_map.entries.values())
            disease_sets = list(disease_map.entries.values())
            for config in SSM_CONFIGS:
                if config.ic_flavor == "seco":
                    ic = ic_seco(kg)
                    oracle_ic = oracle_ic_seco(kg)
                else:
                    ic = ic_resnik(kg, corpus)
                    oracle_ic = oracle_ic_resnik(kg, corpus)
                grid = score_grid(gene_sets, disease_sets, config, kg, ic)
                for gene_terms, row in zip(gene_sets, grid):
                    for disease_terms, got in zip(disease_sets, row):
                        want = oracle_groupwise(gene_terms, disease_terms,
                                                config.aggregation, kg, oracle_ic)
                        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6),
           cells=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300, 3.75, 7.0]),
                          min_size=36, max_size=36))
    @example(rows=1, cols=5, cells=[0.5, 0.25, -0.0, 3.75, 0.0] + [0.0] * 31)
    @example(rows=5, cols=1, cells=[0.5, 0.25, -0.0, 3.75, 0.0] + [0.0] * 31)
    @example(rows=3, cols=2, cells=[0.0] * 36)
    @example(rows=2, cols=3, cells=[-0.0] * 36)
    @example(rows=2, cols=2, cells=[-0.0, 0.0, 0.0, -0.0] + [0.0] * 32)
    def test_block_has_the_bits_of_the_loop(self, rows, cols, cells):
        # names whose sorted order differs from their draw order
        gene_terms = {f"HP:g{9 - i}" for i in range(rows)}
        disease_terms = {f"HP:d{9 - j}" for j in range(cols)}
        block = np.array(cells[:rows * cols], dtype=np.float64).reshape(rows, cols)
        where = {t: i for i, t in enumerate(sorted(gene_terms))}
        where.update({t: j for j, t in enumerate(sorted(disease_terms))})
        for aggregation in ("BMA", "MAX"):
            config = SimilarityConfig(aggregation, "seco")
            got = sim_groupwise(gene_terms, disease_terms, config, block)
            want = loop_best_match(gene_terms, disease_terms, aggregation,
                                   lambda a, b: float(block[where[a], where[b]]))
            assert type(got) is float
            assert got.hex() == want.hex(), aggregation

    def test_block_of_the_wrong_shape_rejected(self):
        genes, diseases = {"HP:a", "HP:b"}, {"HP:a", "HP:b", "HP:c"}
        for config in (SimilarityConfig("BMA", "seco"), SimilarityConfig("MAX", "seco")):
            # a flat list or array of the block's rows is a wrong shape too
            for wrong in (np.zeros((3, 2)), np.zeros((1, 6)), np.zeros((2, 3, 1)),
                          np.zeros(5), [0.0] * 7, np.zeros(6), [0.0] * 6):
                with pytest.raises(ValueError, match="2 x 3 terms"):
                    sim_groupwise(genes, diseases, config, wrong)

    @pytest.mark.parametrize("flavor", ["seco", "resnik_corpus"])
    def test_simgic_is_not_a_best_match_measure(self, flavor):
        with pytest.raises(ValueError, match=f"SIMGIC_{flavor} is not a best-match"):
            sim_groupwise({"HP:a"}, {"HP:b"}, SimilarityConfig("SIMGIC", flavor),
                          np.zeros((1, 1)))


def twin_corpus(seed: int, n_terms: int, n_genes: int, n_diseases: int,
                max_terms: int = 5):
    """A random HP KG and a dataset of every gene with every disease in a
    shuffled order: some entities share a term set, on one side and
    across sides, and one gene has no annotations. Returns the dataset,
    the KG and the annotation map."""
    rng = np.random.default_rng(seed)
    kg, _, gene_map, disease_map = random_hp_kg(
        rng, n_terms, n_genes, n_diseases, max_terms=max_terms)
    corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
    genes = sorted(gene_map.entries)
    diseases = sorted(disease_map.entries)
    twins = {"GENE:g_same": gene_map.entries[genes[0]],
             "GENE:g_swap": disease_map.entries[diseases[-1]],
             "DISEASE:d_swap": gene_map.entries[genes[-1]]}
    for entity, terms in twins.items():
        corpus.entries[entity] = set(terms)
        (genes if entity.startswith("GENE:") else diseases).append(entity)
    genes.append("GENE:g_none")
    pairs = [(g, d, int((i + j) % 2))
             for i, g in enumerate(genes) for j, d in enumerate(diseases)]
    pairs = [pairs[int(k)] for k in rng.permutation(len(pairs))]
    return dataset_of(pairs), kg, corpus


class TestSsmBaseline:
    def dataset_and_kg(self):
        rng = np.random.default_rng(79)
        kg, _, gene_map, disease_map = random_hp_kg(rng, 20, 4, 4)
        corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
        genes = sorted(gene_map.entries)
        diseases = sorted(disease_map.entries)
        pairs = [(g, d, int((i + j) % 2))
                 for i, g in enumerate(genes) for j, d in enumerate(diseases)]
        return dataset_of(pairs), kg, corpus

    def test_minmax_normalization(self):
        dataset, kg, corpus = self.dataset_and_kg()
        scored = score_dataset(dataset, SimilarityConfig("BMA", "resnik_corpus"),
                               kg, corpus)
        norm = [r.normalized_score for r in scored]
        assert min(norm) == 0.0
        assert max(norm) == 1.0
        raw = [r.raw_score for r in scored]
        order_raw = np.argsort(raw)
        order_norm = np.argsort(norm)
        assert list(order_raw) == list(order_norm)

    def test_degenerate_range_maps_to_one(self):
        kg = chain_kg()
        corpus = annotations(g1=["HP:c"], g2=["HP:c"], d1=["HP:c"])
        pairs = [("GENE:g1", "DISEASE:d1", 1),
                 ("GENE:g2", "DISEASE:d1", 0)]
        scored = score_dataset(dataset_of(pairs),
                               SimilarityConfig("MAX", "seco"), kg, corpus)
        assert [r.normalized_score for r in scored] == [1.0, 1.0]

    def test_unannotated_entity_reported(self):
        kg = chain_kg()
        corpus = annotations(g1=["HP:c"], d1=["HP:b"])
        ghost = "GENE:g404"
        pairs = [("GENE:g1", "DISEASE:d1", 1),
                 (ghost, "DISEASE:d1", 0)]
        plan = PairPlan(dataset_of(pairs), kg, corpus)
        assert plan.excluded == [ghost]
        raw, normalized = ssm_baseline(plan, SimilarityConfig("MAX", "seco"), ic_seco(kg))
        assert plan.rows.tolist() == [0]
        assert len(raw) == len(normalized) == 1

    def test_export(self, tmp_path):
        dataset, kg, corpus = self.dataset_and_kg()
        config = SimilarityConfig("SIMGIC", "seco")
        plan = PairPlan(dataset, kg, corpus)
        raw, normalized = ssm_baseline(plan, config, ic_seco(kg))
        path = tmp_path / "scored.tsv"
        write_scored_pairs(dataset, plan.rows, raw, normalized, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gene\tdisease\traw_score\tnormalized_score\tlabel"
        assert len(lines) == len(raw) + 1
        assert lines[1:] == [
            f"{plain_id(r.gene)}\t{plain_id(r.disease)}\t{r.raw_score!r}\t{r.normalized_score!r}\t"
            + ("positive" if r.label else "negative")
            for r in score_dataset(dataset, config, kg, corpus)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(2, 30),
           n_genes=st.integers(1, 4), n_diseases=st.integers(1, 4),
           simgic_chunk=st.sampled_from([1, 7, 40, semsim._CHUNK]))
    @example(seed=0, n_terms=20, n_genes=3, n_diseases=3, simgic_chunk=7)
    def test_every_score_equals_the_per_pair_oracle(self, seed, n_terms, n_genes,
                                                    n_diseases, simgic_chunk):
        rng = np.random.default_rng(seed)
        kg, _, gene_map, disease_map = random_hp_kg(
            rng, n_terms, n_genes, n_diseases, max_terms=5)
        corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
        genes = sorted(gene_map.entries)
        diseases = sorted(disease_map.entries)
        # entities that share a term set, on the same side and across sides
        twins = {"GENE:g_same": gene_map.entries[genes[0]],
                 "GENE:g_swap": disease_map.entries[diseases[-1]],
                 "DISEASE:d_swap": gene_map.entries[genes[-1]]}
        for entity, terms in twins.items():
            corpus.entries[entity] = set(terms)
            (genes if entity.startswith("GENE:") else diseases).append(entity)
        # an unannotated gene is left out without shifting the other rows
        genes.append("GENE:g_none")
        pairs = [(g, d, int((i + j) % 2))
                 for i, g in enumerate(genes) for j, d in enumerate(diseases)]
        pairs = [pairs[int(k)] for k in rng.permutation(len(pairs))]
        dataset = dataset_of(pairs)
        scored_keys = [(g, d) for g, d, _ in pairs if g != "GENE:g_none"]
        tables = {"seco": ic_seco(kg), "resnik_corpus": ic_resnik(kg, corpus)}
        assert PairPlan(dataset, kg, corpus).excluded == ["GENE:g_none"]

        calls = Counter()
        real_pair = semsim.sim_resnik_pair

        def counting(a, b, *rest):
            calls[(a, b) if a <= b else (b, a)] += 1
            return real_pair(a, b, *rest)

        for config in SSM_CONFIGS:
            ic = tables[config.ic_flavor]
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(semsim, "sim_resnik_pair", counting)
                # _CHUNK sets only SimGIC's chunk of pairs (BMA and MAX
                # gather every lookup at once): small chunks make SimGIC's
                # pairs straddle chunk ends
                patch.setattr(semsim, "_CHUNK", simgic_chunk)
                scored = score_dataset(dataset, config, kg, corpus, ic)
            assert [(r.gene, r.disease) for r in scored] == scored_keys
            for row in scored:
                g, d = corpus.entries[row.gene], corpus.entries[row.disease]
                if config.aggregation == "SIMGIC":
                    want = set_form_simgic(g, d, kg, ic.values)
                else:
                    want = loop_best_match(g, d, config.aggregation,
                                           lambda a, b: sim_resnik_pair(a, b, kg, ic))
                assert repr(row.raw_score) == repr(want), config.name
            if config.aggregation == "SIMGIC":
                assert not calls
            else:
                distinct = {(a, b) if a <= b else (b, a) for key in scored_keys
                            for a in corpus.entries[key[0]]
                            for b in corpus.entries[key[1]]}
                assert calls == Counter(dict.fromkeys(distinct, 1)), config.name

    def test_simgic_has_the_bits_of_the_set_form(self):
        # a heavy root that sorts first and many light terms: a
        # left-to-right sum drops the light ones, fsum keeps them all
        light = [f"HP:l{i:02d}" for i in range(12)]
        ont = make_ontology(["HP:a", *light, "HP:u"],
                            [(t, "HP:a") for t in light] + [("HP:u", "HP:a")])
        gene_terms = {*light[:9], "HP:u"}
        disease_terms = set(light[4:])
        corpus = annotations(g1=gene_terms, g2=disease_terms,
                             d1=disease_terms, d2=gene_terms)
        kg = build_kg("HP", ont, gene_hp=corpus, disease_hp=corpus)
        # HP:u has no IC: it weighs 0.0 on the closure rows
        ic = InformationContentTable("seco", {"HP:a": 1e16, **dict.fromkeys(light, 1.0)})
        joint = set().union(*map(kg.ancestor_set, gene_terms | disease_terms))
        union = [ic.values[t] for t in sorted(joint) if t in ic.values]
        assert sum(union) != math.fsum(union)

        pairs = [("GENE:g1", "DISEASE:d1", 1),
                 ("GENE:g2", "DISEASE:d2", 0)]
        scored = score_dataset(dataset_of(pairs),
                               SimilarityConfig("SIMGIC", "seco"), kg, corpus, ic)
        assert [repr(r.raw_score) for r in scored] == [
            repr(set_form_simgic(gene_terms, disease_terms, kg, ic.values)),
            repr(set_form_simgic(disease_terms, gene_terms, kg, ic.values))]
        assert scored[0].raw_score == (1e16 + 5) / (1e16 + 12)

    @pytest.mark.parametrize("config", SSM_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("with_table", [True, False])
    def test_unknown_annotation_term_is_typed_error(self, config, with_table):
        kg = chain_kg()
        corpus = annotations(g1=["HP:c"], g2=["HP:b", "HP:404"], d1=["HP:b"])
        pairs = [(f"GENE:{g}", "DISEASE:d1", 1)
                 for g in ("g1", "g2")]
        ic = None
        if with_table:
            ic = ic_seco(kg) if config.ic_flavor == "seco" else ic_resnik(
                kg, annotations(g1=["HP:c"], d1=["HP:b"]))
        # without a table, the helper builds one from the corpus
        with pytest.raises(UnknownNodeError, match="HP:404"):
            score_dataset(dataset_of(pairs), config, kg, corpus, ic)

    def test_foreign_flavour_table_rejected(self):
        dataset, kg, corpus = self.dataset_and_kg()
        plan = PairPlan(dataset, kg, corpus)
        with pytest.raises(ValueError, match="needs a resnik_corpus IC table, got seco"):
            ssm_baseline(plan, SimilarityConfig("BMA", "resnik_corpus"), ic_seco(kg))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_terms=st.integers(2, 30),
           n_genes=st.integers(1, 4), n_diseases=st.integers(1, 4),
           order=st.permutations(SSM_CONFIGS))
    @example(seed=0, n_terms=20, n_genes=3, n_diseases=3, order=SSM_CONFIGS[::-1])
    def test_shared_plan_equals_no_plan(self, seed, n_terms, n_genes, n_diseases,
                                        order):
        dataset, kg, corpus = twin_corpus(seed, n_terms, n_genes, n_diseases)
        tables = {"seco": ic_seco(kg), "resnik_corpus": ic_resnik(kg, corpus)}
        plan = PairPlan(dataset, kg, corpus)
        scored_keys = [p[:2] for p in pairs_of(dataset) if p.gene != "GENE:g_none"]
        distinct = {(a, b) if a <= b else (b, a) for key in scored_keys
                    for a in corpus.entries[key[0]] for b in corpus.entries[key[1]]}

        calls = Counter()
        real_pair = semsim.sim_resnik_pair

        def counting(a, b, *rest):
            calls[(a, b) if a <= b else (b, a)] += 1
            return real_pair(a, b, *rest)

        assert plan.excluded == ["GENE:g_none"]
        for config in order:
            ic = tables[config.ic_flavor]
            # a run alone has a plan of its own
            alone = score_dataset(dataset, config, kg, corpus, ic)
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(semsim, "sim_resnik_pair", counting)
                raw, normalized = ssm_baseline(plan, config, ic)
            shared = pairs_of(dataset, plan.rows)
            assert [p[:2] for p in shared] == scored_keys
            assert [(repr(r), repr(n), p.label) for r, n, p in zip(
                raw.tolist(), normalized.tolist(), shared, strict=True)] == [
                (repr(r.raw_score), repr(r.normalized_score), r.label)
                for r in alone], config.name
            if config.aggregation == "SIMGIC":
                assert not calls
            else:
                assert calls == Counter(dict.fromkeys(distinct, 1)), config.name

    def test_shared_plan_runs_peak_no_higher_than_one_run_alone(self):
        dataset, kg, corpus = twin_corpus(5, 60, 40, 40, max_terms=12)
        measures = [c for c in SSM_CONFIGS if c.aggregation != "SIMGIC"]
        tables = {f: ic_table(f, kg, corpus) for f in ("seco", "resnik_corpus")}
        plan = PairPlan(dataset, kg, corpus)

        def alone():
            score_dataset(dataset, measures[0], kg, corpus, tables["seco"])

        def shared():
            for config in measures:
                ssm_baseline(plan, config, tables[config.ic_flavor])

        def peak(work) -> int:
            work()  # first-use costs out of the way
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                work()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak(shared) <= peak(alone)

    def test_stage_builds_each_ic_flavour_once(self, tmp_path, monkeypatch):
        built = {"seco": 0, "resnik_corpus": 0}

        def counting(name, flavor):
            real = getattr(semsim, name)

            def wrapper(*args):
                built[flavor] += 1
                return real(*args)
            monkeypatch.setattr(semsim, name, wrapper)

        counting("ic_seco", "seco")
        counting("ic_resnik", "resnik_corpus")
        corpus = PlantedCorpus(tmp_path / "data", n_clusters=2, n_genes=8,
                               n_diseases=6, leaves_per_branch=3,
                               go_leaves_per_cluster=3, seed=2)
        config = write_config(corpus.config(tmp_path / "out", variants=("HP",)),
                              tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "baseline"):
            assert main([stage, "--config", str(config)]) == 0
        assert built == {"seco": 1, "resnik_corpus": 1}
        report = (tmp_path / "out" / "baseline" / "baseline.json").read_text()
        assert all(c.name in report for c in SSM_CONFIGS)

    def test_stage_builds_one_plan_and_one_ancestor_closure(self, tmp_path,
                                                           monkeypatch):
        plans = 0
        closures = []
        real_init = semsim.PairPlan.__init__
        real_bits = KnowledgeGraph.ancestor_bits

        def counting_init(self, *args):
            nonlocal plans
            plans += 1
            real_init(self, *args)

        def recording_bits(self):
            closures.append(real_bits(self))
            return closures[-1]

        monkeypatch.setattr(semsim.PairPlan, "__init__", counting_init)
        monkeypatch.setattr(KnowledgeGraph, "ancestor_bits", recording_bits)
        corpus = PlantedCorpus(tmp_path / "data", n_clusters=2, n_genes=8,
                               n_diseases=6, leaves_per_branch=3,
                               go_leaves_per_cluster=3, seed=2)
        config = write_config(corpus.config(tmp_path / "out", variants=("HP",)),
                              tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "baseline"):
            assert main([stage, "--config", str(config)]) == 0
        assert plans == 1
        # corpus IC and SimGIC both read the closure, which is built once
        assert len(closures) >= 2
        assert all(c is closures[0] for c in closures)

    def test_six_configs_expressible(self):
        assert len(SSM_CONFIGS) == 6
        names = {c.name for c in SSM_CONFIGS}
        assert names == {
            "BMA_seco", "BMA_resnik_corpus", "SIMGIC_seco",
            "SIMGIC_resnik_corpus", "MAX_seco", "MAX_resnik_corpus",
        }

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SimilarityConfig("AVG", "seco")
        with pytest.raises(ValueError):
            SimilarityConfig("BMA", "lin")
