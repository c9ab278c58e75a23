"""Parser contracts for OBO, GAF, phenotype tables, and associations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdapred.errors import (
    ConfigurationError,
    CycleError,
    DanglingReferenceError,
    DegenerateDataError,
    ParseError,
)
from gdapred.kg import is_entity_node
from gdapred.ontology import (
    AnnotationMap,
    Ontology,
    OntologyTerm,
    entity_node,
    filter_associations,
    merge_annotation_maps,
    parse_associations,
    parse_disease_phenotype,
    parse_gaf,
    parse_gene_phenotype,
    parse_mapping,
    parse_obo,
    plain_id,
    prune_annotations,
)

from helpers import random_ontology, serialize_obo

GAF_PREFIX = "UniProtKB\t{acc}\tGENE\t{qual}\t{term}\tGO_REF:0000002\t{ev}\t"
GAF_SUFFIX = "\tP\tname\tsyn\tprotein\ttaxon:9606\t20200811\tUniProt\t\t"


def gaf_row(acc="P1", qual="", term="GO:0007605", ev="EXP"):
    return GAF_PREFIX.format(acc=acc, qual=qual, term=term, ev=ev) + GAF_SUFFIX


class TestParseObo:
    def test_single_stanza(self):
        ont = parse_obo("[Term]\nid: HP:0000001\nname: All\n")
        assert set(ont.terms) == {"HP:0000001"}
        assert ont.terms["HP:0000001"].label == "All"
        assert ont.edges == set()
        assert ont.roots == {"HP:0000001"}

    def test_minimal_hierarchy(self):
        text = ("[Term]\nid: HP:0000001\nname: A\n\n"
                "[Term]\nid: HP:0000002\nname: B\nis_a: HP:0000001 ! A\n")
        ont = parse_obo(text)
        assert ont.edges == {("HP:0000002", "is_a", "HP:0000001")}
        assert ont.roots == {"HP:0000001"}

    def test_ld_targets_from_intersection_of(self):
        text = ("[Term]\nid: HP:0000365\nname: Hearing impairment\n"
                "intersection_of: HP:0000118\n"
                "intersection_of: results_from GO:0007605 ! sensory perception of sound\n")
        ont = parse_obo(text)
        assert ont.terms["HP:0000365"].ld_targets == ["GO:0007605"]

    def test_tag_order_within_stanza_is_free(self):
        # id can legally follow the lines that reference it
        text = ("[Term]\nname: B\nis_a: HP:0000001\n"
                "intersection_of: part_of GO:0007605\nid: HP:0000002\n\n"
                "[Term]\nid: HP:0000001\n")
        ont = parse_obo(text)
        assert ont.edges == {("HP:0000002", "is_a", "HP:0000001")}
        assert ont.terms["HP:0000002"].ld_targets == ["GO:0007605"]

    def test_synonym_and_definition(self):
        text = ('[Term]\nid: HP:0000001\nname: All\n'
                'def: "The root." [HPO:probinson]\n'
                'synonym: "Everything" EXACT []\n')
        term = parse_obo(text).terms["HP:0000001"]
        assert term.definition == "The root."
        assert term.synonyms == ["Everything"]

    def test_missing_id_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_obo("[Term]\nname: nameless\n")

    def test_dangling_is_a_lists_offenders(self):
        text = "[Term]\nid: HP:0000002\nis_a: HP:0000001\nis_a: HP:0000009\n"
        with pytest.raises(DanglingReferenceError) as err:
            parse_obo(text)
        assert "HP:0000001" in str(err.value)
        assert "HP:0000009" in str(err.value)

    def test_cycle_names_a_cycle(self):
        text = ("[Term]\nid: HP:0000001\nis_a: HP:0000002\n\n"
                "[Term]\nid: HP:0000002\nis_a: HP:0000001\n")
        with pytest.raises(CycleError, match="HP:0000001"):
            parse_obo(text)

    def test_cycle_reported_child_to_parent_from_the_smallest_id(self):
        text = ("[Term]\nid: HP:0000003\nis_a: HP:0000001\n\n"
                "[Term]\nid: HP:0000002\nis_a: HP:0000003\n\n"
                "[Term]\nid: HP:0000001\nis_a: HP:0000002\n")
        with pytest.raises(CycleError) as err:
            parse_obo(text)
        assert str(err.value) == ("is_a cycle: HP:0000001 -> HP:0000002 -> "
                                  "HP:0000003 -> HP:0000001")

    def test_obsolete_terms_dropped_with_edges(self):
        text = ("[Term]\nid: HP:0000001\nname: A\n\n"
                "[Term]\nid: HP:0000002\nname: old\nis_obsolete: true\n"
                "is_a: HP:0000001\n\n"
                "[Term]\nid: HP:0000003\nis_a: HP:0000001\n")
        ont = parse_obo(text)
        assert "HP:0000002" not in ont.terms
        assert ont.obsolete_ids == {"HP:0000002"}
        assert ont.edges == {("HP:0000003", "is_a", "HP:0000001")}

    def test_relationship_edges_kept(self):
        text = ("[Term]\nid: GO:0000001\n\n"
                "[Term]\nid: GO:0000002\nrelationship: part_of GO:0000001 ! x\n")
        ont = parse_obo(text)
        assert ("GO:0000002", "part_of", "GO:0000001") in ont.edges
        # part_of does not affect root computation
        assert ont.roots == {"GO:0000001", "GO:0000002"}

    def test_relationship_to_unknown_target_dropped(self):
        text = "[Term]\nid: GO:0000002\nrelationship: part_of XX:0000001\n"
        ont = parse_obo(text)
        assert ont.edges == set()
        assert ont.stats["dropped_edges"] == 1

    def test_typedef_stanzas_ignored(self):
        text = ("[Typedef]\nid: part_of\nname: part of\n\n"
                "[Term]\nid: HP:0000001\n")
        assert set(parse_obo(text).terms) == {"HP:0000001"}

    def test_duplicate_id_rejected(self):
        text = "[Term]\nid: HP:0000001\n\n[Term]\nid: HP:0000001\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_obo(text)

    def test_malformed_id_rejected(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_obo("[Term]\nid: not a curie\n")

    def test_roundtrip_random_ontologies(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ont = random_ontology(rng, int(rng.integers(2, 30)))
            back = parse_obo(serialize_obo(ont))
            assert set(back.terms) == set(ont.terms)
            assert back.edges == ont.edges
            for tid in ont.terms:
                assert back.terms[tid].label == ont.terms[tid].label

    def test_rejects_random_cyclic_graphs(self):
        # every parent chain ends at the root, so pointing the root back
        # at any random node always closes a cycle
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            ids = [f"HP:{i:07d}" for i in range(n)]
            lines = [f"[Term]\nid: {ids[0]}\nis_a: {ids[int(rng.integers(1, n))]}\n"]
            for i in range(1, n):
                lines.append(
                    f"[Term]\nid: {ids[i]}\nis_a: {ids[int(rng.integers(0, i))]}\n")
            with pytest.raises(CycleError):
                parse_obo("\n".join(lines))

    def test_cycle_reported_does_not_depend_on_hash_seed(self):
        # HP:0000001 reaches two separate cycles; its parents come from a set
        text = ("[Term]\nid: HP:0000001\nis_a: HP:0000002\nis_a: HP:0000004\n\n"
                "[Term]\nid: HP:0000002\nis_a: HP:0000003\n\n"
                "[Term]\nid: HP:0000003\nis_a: HP:0000002\n\n"
                "[Term]\nid: HP:0000004\nis_a: HP:0000005\n\n"
                "[Term]\nid: HP:0000005\nis_a: HP:0000004\n")
        script = ("import sys\nfrom gdapred.ontology import parse_obo\n"
                  "try:\n    parse_obo(sys.stdin.read())\n"
                  "except Exception as err:\n    print(type(err).__name__, err)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = {
            subprocess.run([sys.executable, "-c", script], input=text, text=True,
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": seed,
                                "PYTHONPATH": os.pathsep.join(
                                    [src, os.environ.get("PYTHONPATH", "")])}).stdout
            for seed in ("0", "1")}
        assert messages == {"CycleError is_a cycle: HP:0000002 -> HP:0000003 -> HP:0000002\n"}

    def test_pure_identical_bytes_identical_structures(self):
        text = ("[Term]\nid: HP:0000001\nname: A\n\n"
                "[Term]\nid: HP:0000002\nis_a: HP:0000001\n")
        first = parse_obo(text)
        second = parse_obo(text)
        assert first.terms == second.terms
        assert first.edges == second.edges


class TestParseGaf:
    MAP = {"P1": "672", "P2": "673"}

    def test_single_row(self):
        amap = parse_gaf(gaf_row(), self.MAP)
        assert amap.entries == {"GENE:672": {"GO:0007605"}}

    def test_not_qualifier_excluded(self):
        amap = parse_gaf(gaf_row(qual="NOT|involved_in"), self.MAP)
        assert amap.entries == {}
        assert amap.stats["rows_skipped_not"] == 1

    def test_set_union_same_gene(self):
        text = gaf_row(term="GO:0007605") + "\n" + gaf_row(term="GO:0050954")
        amap = parse_gaf(text, self.MAP)
        assert amap.entries["GENE:672"] == {"GO:0007605", "GO:0050954"}

    def test_unmapped_accession_counted(self):
        amap = parse_gaf(gaf_row(acc="P999"), self.MAP)
        assert amap.entries == {}
        assert amap.stats["rows_skipped_unmapped"] == 1

    def test_accession_mapped_to_an_empty_id_counted(self):
        amap = parse_gaf(gaf_row(acc="P9"), {**self.MAP, "P9": ""})
        assert amap.entries == {}
        assert amap.stats["rows_skipped_unmapped"] == 1

    def test_evidence_filter(self):
        text = gaf_row(ev="IEA") + "\n" + gaf_row(ev="EXP", term="GO:0050954")
        amap = parse_gaf(text, self.MAP, exclude_evidence={"IEA"})
        assert amap.entries == {"GENE:672": {"GO:0050954"}}
        assert amap.stats["rows_skipped_evidence"] == 1

    def test_short_row_skipped_with_warning(self):
        text = "a\tb\tc\n" + gaf_row()
        amap = parse_gaf(text, self.MAP)
        assert amap.stats["rows_skipped_short"] == 1
        assert len(amap.entries) == 1

    def test_comments_only_is_empty_input(self):
        with pytest.raises(DegenerateDataError):
            parse_gaf("!gaf-version: 2.2\n", self.MAP)


class TestParseGenePhenotype:
    def test_single_row(self):
        amap = parse_gene_phenotype("672\tBRCA1\tHP:0000365\tHearing impairment\n")
        assert amap.entries == {"GENE:672": {"HP:0000365"}}

    def test_duplicate_rows_collapse(self):
        text = "672\tBRCA1\tHP:0000365\tx\n" * 2
        amap = parse_gene_phenotype(text)
        assert amap.entries["GENE:672"] == {"HP:0000365"}

    def test_two_genes_three_rows(self):
        text = ("672\tA\tHP:0000365\tx\n"
                "672\tA\tHP:0000478\tx\n"
                "673\tB\tHP:0000365\tx\n")
        amap = parse_gene_phenotype(text)
        assert len(amap.entries) == 2

    def test_malformed_term_skipped(self):
        amap = parse_gene_phenotype("672\tA\tnot-a-term\tx\n")
        assert amap.entries == {}
        assert amap.stats["rows_skipped_malformed"] == 1

    def test_empty_gene_id_skipped(self):
        amap = parse_gene_phenotype("\tA\tHP:0000365\tx\n672\tA\tHP:0000365\tx\n")
        assert amap.entries == {"GENE:672": {"HP:0000365"}}
        assert amap.stats == {"rows_used": 1, "rows_skipped_malformed": 1}


class TestParseDiseasePhenotype:
    MAP = {"OMIM:101200": "C0001193"}

    def test_mapped_row(self):
        amap = parse_disease_phenotype(
            "OMIM:101200\tApert\t\tHP:0000365\tref\tTAS\n", self.MAP)
        assert amap.entries == {"DISEASE:C0001193": {"HP:0000365"}}

    def test_unmapped_row_counted(self):
        amap = parse_disease_phenotype(
            "OMIM:999999\tX\t\tHP:0000365\tref\tTAS\n", self.MAP)
        assert amap.entries == {}
        assert amap.stats["rows_skipped_unmapped"] == 1

    def test_disease_mapped_to_an_empty_id_counted(self):
        amap = parse_disease_phenotype(
            "OMIM:9\tX\t\tHP:0000365\tref\tTAS\n", {**self.MAP, "OMIM:9": ""})
        assert amap.entries == {}
        assert amap.stats["rows_skipped_unmapped"] == 1

    def test_not_qualifier_skipped(self):
        amap = parse_disease_phenotype(
            "OMIM:101200\tApert\tNOT\tHP:0000365\tref\tTAS\n", self.MAP)
        assert amap.entries == {}
        assert amap.stats["rows_skipped_not"] == 1

    def test_empty_mapping_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            parse_disease_phenotype("OMIM:101200\tX\t\tHP:0000365\n", {})


class TestParseAssociations:
    HEADER = "gene_id\tdisease_id\tsource\n"

    def test_single_row(self):
        rows = parse_associations(self.HEADER + "672\tC0006142\tCTD_human\n")
        assert len(rows) == 1
        assert rows[0].gene == "GENE:672"
        assert rows[0].sources == {"CTD_human"}

    def test_sources_merge(self):
        text = self.HEADER + "672\tC0006142\tCTD_human\n672\tC0006142\tPSYGENET\n"
        rows = parse_associations(text)
        assert len(rows) == 1
        assert rows[0].sources == {"CTD_human", "PSYGENET"}

    def test_empty_after_header(self):
        assert parse_associations(self.HEADER) == []

    def test_missing_column_named(self):
        with pytest.raises(ParseError, match="disease_id"):
            parse_associations("gene_id\tsource\n672\tCTD_human\n")

    def test_short_row_skipped(self):
        rows = parse_associations(self.HEADER + "672\n672\tC0006142\tCTD_human\n")
        assert len(rows) == 1

    @pytest.mark.parametrize("row, column", [("\tC0006142\tCTD_human", "gene_id"),
                                             ("672\t\tCTD_human", "disease_id")])
    def test_empty_id_names_the_line(self, row, column):
        text = "# curated\n" + self.HEADER + "673\tC0006142\tCTD_human\n" + row + "\n"
        with pytest.raises(ParseError, match=rf"^line 4: empty '{column}' cell$"):
            parse_associations(text)


def make_annotations(**kinds):
    out = {}
    for name, pairs in kinds.items():
        amap = AnnotationMap()
        for entity, terms in pairs.items():
            amap.entries[entity] = set(terms)
        out[name] = amap
    return out


class TestFilterAssociations:
    G1 = "GENE:1"
    G2 = "GENE:2"
    D1 = "DISEASE:C1"

    def maps(self):
        return make_annotations(
            gene_go={self.G1: {"GO:1"}},
            gene_hp={self.G1: {"HP:1"}, self.G2: {"HP:1"}},
            disease_hp={self.D1: {"HP:1"}},
        )

    def test_gene_without_go_excluded(self):
        from gdapred.ontology import CuratedAssociation
        maps = self.maps()
        assocs = [CuratedAssociation(self.G2, self.D1, {"CTD_human"})]
        assert filter_associations(assocs, set(), **maps) == []

    def test_excluded_source_drops_pair(self):
        from gdapred.ontology import CuratedAssociation
        maps = self.maps()
        assocs = [CuratedAssociation(self.G1, self.D1, {"UNIPROT"})]
        assert filter_associations(assocs, {"UNIPROT"}, **maps) == []

    def test_row_order_invariance(self):
        from gdapred.ontology import CuratedAssociation
        maps = make_annotations(
            gene_go={self.G1: {"GO:1"}, self.G2: {"GO:1"}},
            gene_hp={self.G1: {"HP:1"}, self.G2: {"HP:1"}},
            disease_hp={self.D1: {"HP:1"}},
        )
        assocs = [
            CuratedAssociation(self.G2, self.D1, {"CTD_human"}),
            CuratedAssociation(self.G1, self.D1, {"CTD_human"}),
        ]
        forward = filter_associations(assocs, set(), **maps)
        backward = filter_associations(list(reversed(assocs)), set(), **maps)
        assert forward == backward
        assert [a.gene for a in forward] == ["GENE:1", "GENE:2"]


class TestMappingAndHelpers:
    def test_parse_mapping_first_wins(self):
        mapping = parse_mapping("P1\t672\nP1\t999\nP2\t673\n")
        assert mapping == {"P1": "672", "P2": "673"}

    @pytest.mark.parametrize("kind, plain, node", [("gene", "672", "GENE:672"),
                                                  ("disease", "OMIM:1", "DISEASE:OMIM:1")])
    def test_entity_node_and_plain_id(self, kind, plain, node):
        assert entity_node(kind, plain) == node
        assert plain_id(node) == plain
        assert is_entity_node(node)

    def test_parse_mapping_skips_an_empty_id(self):
        assert parse_mapping("P1\t\n\t672\nP2\t673\n") == {"P2": "673"}

    def test_prune_annotations(self):
        ont = parse_obo("[Term]\nid: HP:0000001\n\n"
                        "[Term]\nid: HP:0000002\nis_obsolete: true\n")
        amap = AnnotationMap(entries={
            "GENE:1": {"HP:0000001", "HP:0000002"},
            "GENE:2": {"HP:0000999"},
        })
        pruned = prune_annotations(amap, [ont])
        assert pruned.entries == {"GENE:1": {"HP:0000001"}}
        assert pruned.stats["dropped_obsolete"] == 1
        assert pruned.stats["dropped_unknown"] == 1
        assert pruned.stats["dropped_entities"] == 1

    def test_merge_annotation_maps(self):
        a = AnnotationMap(entries={"GENE:1": {"HP:1"}})
        b = AnnotationMap(entries={"GENE:1": {"HP:2"},
                                   "DISEASE:C1": {"HP:1"}})
        merged = merge_annotation_maps(a, b)
        assert merged.entries["GENE:1"] == {"HP:1", "HP:2"}
        assert len(merged.entries) == 2


# ---------------------------------------------------------------------------
# property tests: round trips and skip counters on injected damage

_TEXT = st.text(alphabet="abcdefghij XYZ-,.:()0123456789", max_size=20).map(str.strip)


@st.composite
def obo_ontologies(draw):
    """Acyclic is_a DAGs with free relationships, labels, definitions,
    synonyms and logical-definition links to GO terms."""
    n = draw(st.integers(1, 12))
    ids = [f"HP:{i:07d}" for i in range(n)]
    terms, edges = {}, set()
    for i, tid in enumerate(ids):
        terms[tid] = OntologyTerm(
            id=tid, label=draw(_TEXT), definition=draw(_TEXT),
            synonyms=draw(st.lists(_TEXT.filter(bool), max_size=2)),
            ld_targets=draw(st.lists(st.sampled_from(["GO:0000001", "GO:0000002",
                                                      "GO:0000003"]),
                                     max_size=2, unique=True)))
        for p in draw(st.sets(st.integers(0, i - 1), max_size=2) if i else st.just(set())):
            edges.add((tid, "is_a", ids[p]))
        for rel, p in draw(st.lists(st.tuples(st.sampled_from(["part_of", "has_part"]),
                                              st.integers(0, n - 1)), max_size=2)):
            edges.add((tid, rel, ids[p]))
    roots = {t for t in ids if not any(c == t and r == "is_a" for c, r, _ in edges)}
    return Ontology(terms=terms, edges=edges, roots=roots)


class TestParserProperties:
    @settings(max_examples=100, deadline=None)
    @given(obo_ontologies())
    def test_obo_round_trip(self, ont):
        back = parse_obo(serialize_obo(ont))
        assert back.terms == ont.terms
        assert back.edges == ont.edges
        assert back.roots == ont.roots
        assert back.stats == {"obsolete_terms": 0, "dropped_edges": 0}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gaf_skip_counters_match_injected_lines(self, data):
        mapping = {"P1": "672", "P2": "673", "P3": "674"}
        clean = [gaf_row(acc=data.draw(st.sampled_from(sorted(mapping))),
                         term=data.draw(st.sampled_from(["GO:0000001", "GO:0000002"])))
                 for _ in range(data.draw(st.integers(1, 6)))]
        n = data.draw(st.fixed_dictionaries(
            {k: st.integers(0, 3) for k in ("short", "not", "unmapped", "comment",
                                            "blank")}))
        damaged = (clean + ["a\tb\tc"] * n["short"]
                   + [gaf_row(qual="NOT|enables")] * n["not"]
                   + [gaf_row(acc="P999")] * n["unmapped"]
                   + ["!comment"] * n["comment"] + [""] * n["blank"])
        amap = parse_gaf("\n".join(data.draw(st.permutations(damaged))), mapping)
        assert amap.entries == parse_gaf("\n".join(clean), mapping).entries
        assert amap.stats == {"rows_used": len(clean), "rows_skipped_short": n["short"],
                              "rows_skipped_not": n["not"], "rows_skipped_evidence": 0,
                              "rows_skipped_unmapped": n["unmapped"]}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gene_phenotype_skip_counters_match_injected_lines(self, data):
        clean = [f"{data.draw(st.sampled_from(['672', '673']))}\tSYM\t"
                 f"{data.draw(st.sampled_from(['HP:0000001', 'HP:0000002']))}\tname"
                 for _ in range(data.draw(st.integers(0, 6)))]
        n = data.draw(st.fixed_dictionaries(
            {k: st.integers(0, 3) for k in ("malformed", "comment", "blank")}))
        # no HP term, or no gene id
        malformed = [data.draw(st.sampled_from(["672\tSYM\tnot-a-term\tname",
                                                "\tSYM\tHP:0000001\tname"]))
                     for _ in range(n["malformed"])]
        damaged = (clean + malformed + ["#comment"] * n["comment"] + [""] * n["blank"])
        amap = parse_gene_phenotype("\n".join(data.draw(st.permutations(damaged))))
        assert amap.entries == parse_gene_phenotype("\n".join(clean)).entries
        assert amap.stats == {"rows_used": len(clean),
                              "rows_skipped_malformed": n["malformed"]}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_disease_phenotype_skip_counters_match_injected_lines(self, data):
        mapping = {"OMIM:1": "C1", "ORPHA:2": "C2"}
        clean = [f"{data.draw(st.sampled_from(sorted(mapping)))}\tname\t\t"
                 f"{data.draw(st.sampled_from(['HP:0000001', 'HP:0000002']))}\tref\tTAS"
                 for _ in range(data.draw(st.integers(0, 6)))]
        n = data.draw(st.fixed_dictionaries(
            {k: st.integers(0, 3) for k in ("short", "not", "unmapped", "malformed",
                                            "comment", "blank")}))
        damaged = (clean + ["OMIM:1\tname\t"] * n["short"]
                   + ["OMIM:1\tname\tNOT\tHP:0000001\tref\tTAS"] * n["not"]
                   + ["OMIM:9\tname\t\tHP:0000001\tref\tTAS"] * n["unmapped"]
                   + ["OMIM:1\tname\t\tnot-a-term\tref\tTAS"] * n["malformed"]
                   + ["#comment"] * n["comment"] + [""] * n["blank"])
        amap = parse_disease_phenotype("\n".join(data.draw(st.permutations(damaged))),
                                       mapping)
        assert amap.entries == parse_disease_phenotype("\n".join(clean), mapping).entries
        assert amap.stats == {"rows_used": len(clean), "rows_skipped_short": n["short"],
                              "rows_skipped_not": n["not"],
                              "rows_skipped_unmapped": n["unmapped"],
                              "rows_skipped_malformed": n["malformed"]}
