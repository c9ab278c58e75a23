"""Knowledge-graph assembly and closure-query contracts."""

import numpy as np
import pytest

from gdapred.errors import ConfigurationError, IntegrityError, UnknownNodeError
from gdapred.kg import (
    EQUIVALENT_TO,
    HAS_ANNOTATION,
    SUBCLASS_OF,
    VIRTUAL_ROOT,
    KnowledgeGraph,
    add_virtual_root,
    apply_logical_definitions,
    build_kg,
    read_triples,
    write_triples,
)
from gdapred.ontology import AnnotationMap, EntityId, Ontology, OntologyTerm
from gdapred.semsim import ic_seco

from helpers import oracle_reachable_up, random_hp_kg


def make_ontology(ids, is_a, prefix_terms=None):
    terms = {i: OntologyTerm(id=i) for i in ids}
    if prefix_terms:
        for tid, term in prefix_terms.items():
            terms[tid] = term
    edges = {(c, "is_a", p) for c, p in is_a}
    has_parent = {c for c, _ in is_a}
    return Ontology(terms=terms, edges=edges, roots=set(ids) - has_parent)


HP3 = make_ontology(
    ["HP:1", "HP:2", "HP:3"], [("HP:2", "HP:1"), ("HP:3", "HP:2")])
GO2 = make_ontology(["GO:1", "GO:2"], [("GO:2", "GO:1")])


def annotations(**entries):
    amap = AnnotationMap()
    for key, terms in entries.items():
        kind = "gene" if key.startswith("g") else "disease"
        amap.entries[EntityId(key, kind)] = set(terms)
    return amap


class TestBuildKg:
    def test_hp_variant_counts(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        assert kg.node_count == 5
        subclass = {t for t in kg.triples if t[1] == SUBCLASS_OF}
        annotation = {t for t in kg.triples if t[1] == HAS_ANNOTATION}
        assert len(subclass) == 2
        assert len(annotation) == 2
        assert VIRTUAL_ROOT not in kg.nodes

    def test_hp_go_node_count_identity(self):
        kg = build_kg("HP_GO", HP3, GO2,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
        assert kg.node_count == len(HP3.terms) + len(GO2.terms) + 2 + 1

    def test_variant_input_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_kg("HP_GO", HP3,
                     gene_hp=annotations(g1=["HP:3"]),
                     disease_hp=annotations(d1=["HP:2"]))
        with pytest.raises(ConfigurationError):
            build_kg("HP", HP3, GO2,
                     gene_hp=annotations(g1=["HP:3"]),
                     disease_hp=annotations(d1=["HP:2"]),
                     gene_go=annotations(g1=["GO:2"]))

    def test_unknown_annotation_term_is_integrity_error(self):
        with pytest.raises(IntegrityError, match="HP:404"):
            build_kg("HP", HP3,
                     gene_hp=annotations(g1=["HP:404"]),
                     disease_hp=annotations(d1=["HP:2"]))

    def test_hp_variant_has_no_go_nodes(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        assert not any(n.startswith("GO:") for n in kg.nodes)

    def test_ld_variant_is_superset_of_hp_go(self):
        hp = make_ontology(["HP:1", "HP:2"], [("HP:2", "HP:1")])
        hp.terms["HP:2"].ld_targets = ["GO:2"]
        kwargs = dict(
            gene_hp=annotations(g1=["HP:2"]),
            disease_hp=annotations(d1=["HP:2"]),
            gene_go=annotations(g1=["GO:2"]),
        )
        plain = build_kg("HP_GO", hp, GO2, **kwargs)
        bridged = build_kg("HP_GO_LD", hp, GO2, **kwargs)
        assert bridged.triples > plain.triples
        assert ("HP:2", EQUIVALENT_TO, "GO:2") in bridged.triples
        assert ("GO:2", EQUIVALENT_TO, "HP:2") in bridged.triples

    def test_construction_deterministic(self):
        def build():
            return build_kg("HP_GO", HP3, GO2,
                            gene_hp=annotations(g1=["HP:3"]),
                            disease_hp=annotations(d1=["HP:2"]),
                            gene_go=annotations(g1=["GO:2"]))
        assert build().triples == build().triples


class TestVirtualRoot:
    def base(self):
        return build_kg("HP", HP3,
                        gene_hp=annotations(g1=["HP:3"]),
                        disease_hp=annotations(d1=["HP:2"]))

    def test_two_ontologies_one_root_each(self):
        kg = build_kg("HP_GO", HP3, GO2,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
        root_links = {t for t in kg.triples if t[2] == VIRTUAL_ROOT}
        assert root_links == {("HP:1", SUBCLASS_OF, VIRTUAL_ROOT),
                              ("GO:1", SUBCLASS_OF, VIRTUAL_ROOT)}

    def test_idempotent(self):
        once = add_virtual_root(self.base())
        twice = add_virtual_root(once)
        assert once.triples == twice.triples
        assert once.nodes == twice.nodes

    def test_single_ontology_adds_one_node_one_triple(self):
        kg = self.base()
        rooted = add_virtual_root(kg)
        assert rooted.node_count == kg.node_count + 1
        assert rooted.triple_count == kg.triple_count + 1


class TestLogicalDefinitions:
    def test_no_targets_leaves_graph_unchanged(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        out = apply_logical_definitions(kg, HP3)
        assert out.triples == kg.triples
        assert out.notes["ld_pairs_added"] == 0

    def test_absent_target_counted(self):
        hp = make_ontology(["HP:1", "HP:2"], [("HP:2", "HP:1")])
        hp.terms["HP:2"].ld_targets = ["GO:404"]
        kg = build_kg("HP", hp,
                      gene_hp=annotations(g1=["HP:2"]),
                      disease_hp=annotations(d1=["HP:2"]))
        out = apply_logical_definitions(kg, hp)
        assert out.triples == kg.triples
        assert out.notes["ld_targets_skipped"] == 1

    def test_present_target_gets_two_directed_triples(self):
        hp = make_ontology(["HP:365", "HP:1"], [("HP:365", "HP:1")])
        hp.terms["HP:365"].ld_targets = ["GO:7605"]
        kg = build_kg("HP_GO", hp, make_ontology(["GO:7605"], []),
                      gene_hp=annotations(g1=["HP:365"]),
                      disease_hp=annotations(d1=["HP:365"]),
                      gene_go=annotations(g1=["GO:7605"]))
        out = apply_logical_definitions(kg, hp)
        added = out.triples - kg.triples
        assert added == {("HP:365", EQUIVALENT_TO, "GO:7605"),
                         ("GO:7605", EQUIVALENT_TO, "HP:365")}


class TestAncestors:
    def test_chain(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        assert kg.ancestor_set("HP:3") == {"HP:3", "HP:2", "HP:1"}

    def test_root_with_virtual_root(self):
        kg = add_virtual_root(build_kg(
            "HP", HP3,
            gene_hp=annotations(g1=["HP:3"]),
            disease_hp=annotations(d1=["HP:2"])))
        assert kg.ancestor_set("HP:1") == {"HP:1", VIRTUAL_ROOT}

    def test_diamond(self):
        ont = make_ontology(
            ["HP:a", "HP:b", "HP:c", "HP:d"],
            [("HP:d", "HP:b"), ("HP:d", "HP:c"), ("HP:b", "HP:a"), ("HP:c", "HP:a")])
        kg = build_kg("HP", ont,
                      gene_hp=annotations(g1=["HP:d"]),
                      disease_hp=annotations(d1=["HP:d"]))
        # frozen from the 4-node brute-force reachability oracle
        assert kg.ancestor_set("HP:d") == {"HP:d", "HP:b", "HP:c", "HP:a"}

    def test_unknown_term(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        with pytest.raises(UnknownNodeError):
            kg.ancestor_set("HP:404")
        with pytest.raises(UnknownNodeError):
            kg.ancestor_set("GENE:g1")

    def test_matches_bruteforce_on_random_dags(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            kg, ont, _, _ = random_hp_kg(rng, int(rng.integers(5, 41)), 2, 2)
            edges = {(c, p) for c, rel, p in ont.edges if rel == "is_a"}
            for term in sorted(kg.term_nodes):
                assert kg.ancestor_set(term) == oracle_reachable_up(edges, term)

    def test_monotone_along_subclass(self):
        rng = np.random.default_rng(29)
        kg, ont, _, _ = random_hp_kg(rng, 30, 2, 2)
        for child, rel, parent in ont.edges:
            if rel != "is_a":
                continue
            assert kg.ancestor_set(parent) <= kg.ancestor_set(child)

    def test_contains_self(self):
        rng = np.random.default_rng(31)
        kg, _, _, _ = random_hp_kg(rng, 15, 2, 2)
        for term in kg.term_nodes:
            assert term in kg.ancestor_set(term)


class TestTripleExport:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(37)
        kg, _, _, _ = random_hp_kg(rng, 12, 3, 3)
        path = tmp_path / "kg.tsv"
        write_triples(kg, path)
        back = read_triples(path, kg.variant)
        assert back.triples == kg.triples
        assert back.term_nodes == kg.term_nodes
        assert back.entity_nodes == kg.entity_nodes

    @pytest.mark.parametrize("variant", ["HP", "HP_GO"])
    def test_roundtrip_with_isolated_term(self, tmp_path, variant):
        # HP:4 has no edge and no annotation
        hp = make_ontology(["HP:1", "HP:2", "HP:3", "HP:4"],
                           [("HP:2", "HP:1"), ("HP:3", "HP:2")])
        go = {} if variant == "HP" else {
            "go": GO2, "gene_go": annotations(g1=["GO:2"])}
        kg = build_kg(variant, hp, gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]), **go)
        path = tmp_path / "kg.tsv"
        write_triples(kg, path)
        back = read_triples(path, variant)
        assert back.term_nodes == kg.term_nodes
        assert ic_seco(back).values == ic_seco(kg).values

    def test_sorted_lines(self, tmp_path):
        kg = KnowledgeGraph("HP", {("HP:2", SUBCLASS_OF, "HP:1"),
                                   ("HP:3", SUBCLASS_OF, "HP:1")},
                            {"HP:1", "HP:2", "HP:3"}, set())
        path = tmp_path / "kg.tsv"
        write_triples(kg, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
