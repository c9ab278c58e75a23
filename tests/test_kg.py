"""Knowledge-graph assembly and closure-query contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdapred.errors import (
    ConfigurationError,
    CycleError,
    IntegrityError,
    UnknownNodeError,
)
from gdapred.kg import (
    EQUIVALENT_TO,
    HAS_ANNOTATION,
    SUBCLASS_OF,
    VIRTUAL_ROOT,
    KnowledgeGraph,
    build_kg,
    read_triples,
    write_triples,
)
from gdapred.ontology import AnnotationMap, Ontology, OntologyTerm, entity_node
from gdapred.semsim import ic_seco

from helpers import oracle_reachable_up, random_hp_kg, string_walk_adjacency


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
        amap.entries[entity_node(kind, key)] = set(terms)
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

    def test_unknown_annotation_term_is_integrity_error(self):
        with pytest.raises(IntegrityError, match="HP:404"):
            build_kg("HP", HP3,
                     gene_hp=annotations(g1=["HP:404"]),
                     disease_hp=annotations(d1=["HP:2"]))

    def test_hp_variant_has_no_go_nodes(self):
        # the HP variant reads neither GO nor the GO annotations
        kg = build_kg("HP", HP3, GO2,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
        assert not any(n.startswith("GO:") for n in kg.nodes)
        assert VIRTUAL_ROOT not in kg.nodes

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
    def test_two_ontologies_one_root_each(self):
        kg = build_kg("HP_GO", HP3, GO2,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
        root_links = {t for t in kg.triples if t[2] == VIRTUAL_ROOT}
        assert root_links == {("HP:1", SUBCLASS_OF, VIRTUAL_ROOT),
                              ("GO:1", SUBCLASS_OF, VIRTUAL_ROOT)}


class TestLogicalDefinitions:
    """The LD variant against the HP_GO variant built from the same inputs."""

    @staticmethod
    def both(hp, go=GO2, go_term="GO:2"):
        kwargs = dict(gene_hp=annotations(g1=[next(iter(hp.roots))]),
                      disease_hp=annotations(d1=sorted(hp.terms)),
                      gene_go=annotations(g1=[go_term]))
        return (build_kg("HP_GO", hp, go, **kwargs),
                build_kg("HP_GO_LD", hp, go, **kwargs))

    def test_no_targets_leaves_graph_unchanged(self):
        plain, bridged = self.both(HP3)
        assert bridged.triples == plain.triples
        assert bridged.notes == {"ld_pairs_added": 0, "ld_targets_skipped": 0}

    def test_absent_target_counted(self):
        hp = make_ontology(["HP:1", "HP:2"], [("HP:2", "HP:1")])
        hp.terms["HP:2"].ld_targets = ["GO:404"]
        plain, bridged = self.both(hp)
        assert bridged.triples == plain.triples
        assert bridged.notes == {"ld_pairs_added": 0, "ld_targets_skipped": 1}

    def test_present_target_gets_two_directed_triples(self):
        hp = make_ontology(["HP:365", "HP:1"], [("HP:365", "HP:1")])
        hp.terms["HP:365"].ld_targets = ["GO:7605"]
        plain, bridged = self.both(hp, make_ontology(["GO:7605"], []), "GO:7605")
        assert bridged.triples - plain.triples == {
            ("HP:365", EQUIVALENT_TO, "GO:7605"), ("GO:7605", EQUIVALENT_TO, "HP:365")}
        assert bridged.notes == {"ld_pairs_added": 1, "ld_targets_skipped": 0}


class TestAncestors:
    def test_chain(self):
        kg = build_kg("HP", HP3,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]))
        assert kg.ancestor_set("HP:3") == {"HP:3", "HP:2", "HP:1"}

    def test_root_with_virtual_root(self):
        kg = build_kg("HP_GO", HP3, GO2,
                      gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
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


class TestTermOrder:
    def test_cycle_is_cycle_error_child_to_parent(self):
        kg = KnowledgeGraph("HP", [("HP:3", SUBCLASS_OF, "HP:1"),
                                   ("HP:2", SUBCLASS_OF, "HP:3"),
                                   ("HP:1", SUBCLASS_OF, "HP:2"),
                                   ("HP:4", SUBCLASS_OF, "HP:1")])
        with pytest.raises(CycleError) as err:
            kg.term_order()
        assert str(err.value) == ("subClassOf cycle: HP:1 -> HP:2 -> HP:3 "
                                  "-> HP:1")

    def test_subclass_edge_at_an_entity_node_is_integrity_error(self):
        kg = KnowledgeGraph("HP", [("HP:2", SUBCLASS_OF, "HP:1"),
                                   ("HP:1", SUBCLASS_OF, "GENE:g1")])
        with pytest.raises(IntegrityError, match="HP:1 -> GENE:g1"):
            kg.term_order()


@st.composite
def random_graphs(draw) -> KnowledgeGraph:
    """Triples over 2-6 nodes and 1-3 relations, each relation used, with
    a self-loop and an edge stated in both directions."""
    nodes = sorted(draw(st.sets(st.text("aZ:9", min_size=1, max_size=3),
                                min_size=2, max_size=6)))
    relations = draw(st.lists(st.sampled_from(["r", "R", SUBCLASS_OF, "rr"]),
                              min_size=1, max_size=3, unique=True))
    pick = st.sampled_from
    triples = draw(st.sets(st.tuples(pick(nodes), pick(relations), pick(nodes)),
                           max_size=16))
    a, b = draw(st.lists(pick(nodes), min_size=2, max_size=2, unique=True))
    triples |= {(a, relations[0], a), (a, relations[-1], b), (b, relations[-1], a)}
    triples |= {(b, rel, a) for rel in relations}
    return KnowledgeGraph("HP", triples)


class TestTripleCoding:
    @settings(max_examples=60, deadline=None)
    @given(kg=random_graphs())
    def test_coding_and_walk_adjacency_match_the_string_forms(self, kg):
        nodes, relations, codes = kg.coding()
        assert nodes == sorted(kg.nodes)
        assert relations == sorted({rel for _, rel, _ in kg.triples})
        assert codes.dtype == np.int64 and codes.shape == (len(kg.triples), 3)
        assert [(nodes[s], relations[r], nodes[o])
                for s, r, o in codes.tolist()] == sorted(kg.triples)
        got, want = kg.walk_adjacency(), string_walk_adjacency(kg)
        assert got.tokens == want[0]
        for got_array, want_array in zip(got[1:], want[1:]):
            assert np.array_equal(got_array, want_array)


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

    @pytest.mark.parametrize("variant", ["HP", "HP_GO", "HP_GO_LD"])
    def test_roundtrip_with_isolated_term(self, tmp_path, variant):
        # HP:4 has no edge and no annotation; HP:3's logical definition
        # names one GO term that is present and one that is not
        hp = make_ontology(["HP:1", "HP:2", "HP:3", "HP:4"],
                           [("HP:2", "HP:1"), ("HP:3", "HP:2")])
        hp.terms["HP:3"].ld_targets = ["GO:1", "GO:404"]
        kg = build_kg(variant, hp, GO2, gene_hp=annotations(g1=["HP:3"]),
                      disease_hp=annotations(d1=["HP:2"]),
                      gene_go=annotations(g1=["GO:2"]))
        assert ("HP:4" in kg.term_nodes) == (variant != "HP")
        if variant == "HP_GO_LD":
            assert kg.notes == {"ld_pairs_added": 1, "ld_targets_skipped": 1}
        path = tmp_path / "kg.tsv"
        write_triples(kg, path)
        back = read_triples(path, variant)
        assert back.triples == kg.triples
        assert back.term_nodes == kg.term_nodes
        assert back.entity_nodes == kg.entity_nodes
        assert ic_seco(back).values == ic_seco(kg).values

    def test_sorted_lines(self, tmp_path):
        kg = KnowledgeGraph("HP", {("HP:2", SUBCLASS_OF, "HP:1"),
                                   ("HP:3", SUBCLASS_OF, "HP:1")})
        path = tmp_path / "kg.tsv"
        write_triples(kg, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
