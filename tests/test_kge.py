"""Embedding trainers: scores, gradients, corpora, and seeded fixtures."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdapred.errors import (
    ConfigurationError,
    DegenerateDataError,
    DivergenceError,
    IntegrityError,
)
from gdapred.kg import KnowledgeGraph
from gdapred.kge import (
    EmbeddingTable,
    KgeTrainConfig,
    build_lexical_corpus,
    distmult_logistic_loss,
    distmult_score,
    embed,
    generate_walks,
    read_embeddings,
    sgns_loss,
    train_distmult,
    train_skipgram,
    train_transe,
    transe_margin_loss,
    transe_score,
    write_embeddings,
)
from gdapred.kge.base import scatter_add
from gdapred.kge.corpus import WalkCorpus
from gdapred.kge.skipgram import _BLOCK_SENTENCES
from gdapred.ontology import Ontology, OntologyTerm

from helpers import finite_difference, max_relative_error
from sgns_reference import train_skipgram_reference


def ring_kg(n=12):
    nodes = [f"N:{i}" for i in range(n)]
    triples = set()
    for i in range(n):
        triples.add((nodes[i], "r1", nodes[(i + 1) % n]))
    for i in range(0, n, 3):
        triples.add((nodes[i], "r2", nodes[(i + 6) % n]))
    return KnowledgeGraph("HP", triples, set(nodes), set())


def block_kg():
    nodes = [f"N:{i}" for i in range(10)]
    triples = set()
    for i in range(5):
        for j in range(5, 10):
            if (i + j) % 2 == 0:
                triples.add((nodes[i], "r1", nodes[j]))
            else:
                triples.add((nodes[j], "r2", nodes[i]))
    return KnowledgeGraph("HP", triples, set(nodes), set()), nodes, triples


class TestScores:
    def test_transe_zero_residual(self):
        assert transe_score([1.0, 2.0], [0.5, -1.0], [1.5, 1.0]) == 0.0

    def test_transe_l2_analytic(self):
        assert transe_score([1, 0], [0, 1], [0, 0], "L2") == pytest.approx(-math.sqrt(2))

    def test_transe_l1_analytic(self):
        assert transe_score([1, 0], [0, 1], [0, 0], "L1") == -2.0

    def test_transe_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transe_score([1, 0], [0, 1, 2], [0, 0])

    def test_transe_unknown_norm(self):
        with pytest.raises(ValueError):
            transe_score([1.0], [1.0], [1.0], "L3")

    def test_distmult_identity_relation(self):
        h, t = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, -2.0])
        assert distmult_score(h, np.ones(3), t) == pytest.approx(float(h @ t))

    def test_distmult_zero_argument(self):
        assert distmult_score([0, 0], [1, 2], [3, 4]) == 0.0

    def test_distmult_hand_arithmetic(self):
        assert distmult_score([1, 2], [1, 1], [2, 1]) == 4.0

    def test_distmult_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distmult_score([1], [1, 2], [1, 2])


class TestGradientChecks:
    def test_transe_margin_loss(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        checked = 0
        while checked < 50:
            vecs = [rng.normal(size=6) for _ in range(6)]
            norm = "L1" if checked % 2 else "L2"
            loss, grads = transe_margin_loss(*vecs, margin=1.0, norm=norm)
            if loss <= 1e-3:  # keep clear of the hinge kink
                continue
            for i in range(6):
                numeric = finite_difference(
                    lambda: transe_margin_loss(*vecs, margin=1.0, norm=norm)[0],
                    vecs[i])
                worst = max(worst, max_relative_error(grads[i], numeric))
            checked += 1
        assert worst < 1e-4

    def test_transe_inactive_margin_zero_gradient(self):
        h = np.zeros(4)
        loss, grads = transe_margin_loss(h, h, h, h, h, np.ones(4) * 10, margin=1.0)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_distmult_logistic_loss(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for trial in range(50):
            h, r, t = (rng.normal(size=5) for _ in range(3))
            label = 1 if trial % 2 == 0 else -1
            _, grads = distmult_logistic_loss(h, r, t, label, 1e-3)
            for vec, grad in zip((h, r, t), grads):
                numeric = finite_difference(
                    lambda: distmult_logistic_loss(h, r, t, label, 1e-3)[0], vec)
                worst = max(worst, max_relative_error(grad, numeric))
        assert worst < 1e-4

    def test_transe_margin_loss_unknown_norm(self):
        with pytest.raises(ValueError, match="unknown norm"):
            transe_margin_loss(*([1.0, 2.0],) * 6, norm="L3")

    def test_sgns_objective(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            v = rng.normal(size=5)
            u = rng.normal(size=5)
            negs = rng.normal(size=(4, 5))
            _, (gv, gu, gn) = sgns_loss(v, u, negs)
            for vec, grad in ((v, gv), (u, gu), (negs, gn)):
                numeric = finite_difference(lambda: sgns_loss(v, u, negs)[0], vec)
                worst = max(worst, max_relative_error(grad, numeric))
        assert worst < 1e-4


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestBatchLosses:
    """A batch call is the per-row calls the gradient checks cover: the
    same gradient bits per row and the sum of the row losses."""

    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(1, 4), k=st.integers(1, 4), dim=st.integers(1, 9),
           norm=st.sampled_from(["L1", "L2"]), margin=st.floats(0.1, 3.0),
           scale=st.sampled_from([0.0, 0.1, 1.0, 30.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_transe_batch_is_its_rows(self, b, k, dim, norm, margin, scale, seed):
        rng = np.random.default_rng(seed)
        pos = [scale * rng.normal(size=(b, 1, dim)) for _ in range(3)]
        neg = [scale * rng.normal(size=(b, k, dim)) for _ in range(3)]
        loss, grads = transe_margin_loss(*pos, *neg, margin=margin, norm=norm)
        row_losses = []
        for i, j in itertools.product(range(b), range(k)):
            row_loss, row_grads = transe_margin_loss(
                *(v[i, 0] for v in pos), *(v[i, j] for v in neg),
                margin=margin, norm=norm)
            row_losses.append(row_loss)
            for grad, row_grad in zip(grads, row_grads):
                assert grad.shape == (b, k, dim)
                assert np.array_equal(_bits(grad[i, j]), _bits(row_grad))
        assert loss == pytest.approx(math.fsum(row_losses), rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 12), dim=st.integers(1, 9),
           l2=st.sampled_from([0.0, 1e-4, 0.1]),
           scale=st.sampled_from([0.0, 0.1, 1.0, 5.0]),
           seed=st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_distmult_batch_is_its_rows(self, n, dim, l2, scale, seed):
        rng = np.random.default_rng(seed)
        h, r, t = (scale * rng.normal(size=(n, dim)) for _ in range(3))
        labels = rng.choice([-1.0, 1.0], size=n)
        loss, grads = distmult_logistic_loss(h, r, t, labels, l2)
        row_losses = []
        for i in range(n):
            row_loss, row_grads = distmult_logistic_loss(
                h[i], r[i], t[i], labels[i], l2)
            row_losses.append(row_loss)
            for grad, row_grad in zip(grads, row_grads):
                assert grad.shape == (n, dim)
                assert np.array_equal(_bits(grad[i]), _bits(row_grad))
        assert loss == pytest.approx(math.fsum(row_losses), rel=1e-12, abs=0.0)


class TestTrainTranse:
    CFG = dict(dimension=16, epochs=30, learning_rate=0.02, margin=1.0,
               negatives_per_positive=5, batch_size=16)

    def test_loss_nonincreasing_seeded(self):
        table = train_transe(ring_kg(), KgeTrainConfig(**self.CFG, seed=0))
        history = table.loss_history
        assert len(history) == 30
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_entity_vectors_in_unit_ball(self):
        table = train_transe(ring_kg(), KgeTrainConfig(**self.CFG, seed=1))
        for vec in table.vectors.values():
            assert np.linalg.norm(vec) <= 1.0 + 1e-9

    def test_covers_nodes_and_relations(self):
        kg = ring_kg()
        table = train_transe(kg, KgeTrainConfig(**self.CFG, seed=2))
        assert set(table.vectors) == set(kg.nodes)
        assert set(table.relation_vectors) == {"r1", "r2"}

    def test_seed_determinism_byte_identical(self, tmp_path):
        kg = ring_kg()
        blobs = []
        for name in ("a.txt", "b.txt"):
            table = train_transe(kg, KgeTrainConfig(**self.CFG, seed=9))
            path = tmp_path / name
            write_embeddings(table, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_translation_consistency(self):
        nodes = ["T:a", "T:b", "T:c", "T:d"]
        kg = KnowledgeGraph("HP", {("T:a", "r", "T:b"), ("T:c", "r", "T:d")},
                            set(nodes), set())
        from gdapred.kge.translational import (
            _indexed_triples, _init_matrix, _project_to_unit_ball)
        sorted_nodes, _, _, _, _ = _indexed_triples(kg)
        idx = {n: i for i, n in enumerate(sorted_nodes)}
        rng = np.random.default_rng(0)
        E0 = _init_matrix(rng, len(sorted_nodes), 8)
        _project_to_unit_ball(E0)
        before = np.linalg.norm(
            (E0[idx["T:b"]] - E0[idx["T:a"]]) - (E0[idx["T:d"]] - E0[idx["T:c"]]))
        table = train_transe(kg, KgeTrainConfig(
            dimension=8, epochs=100, learning_rate=0.05, margin=1.0,
            negatives_per_positive=4, batch_size=4, seed=0))
        after = np.linalg.norm(
            (table.vectors["T:b"] - table.vectors["T:a"])
            - (table.vectors["T:d"] - table.vectors["T:c"]))
        assert after < before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_typed(self):
        config = KgeTrainConfig(**{**self.CFG, "learning_rate": 1e300}, seed=0)
        with pytest.raises(DivergenceError, match=r"transe: non-finite .* epoch"):
            train_transe(ring_kg(), config)


class TestTrainDistmult:
    def test_true_triples_outrank_corruptions(self):
        kg, nodes, triples = block_kg()
        table = train_distmult(kg, KgeTrainConfig(
            dimension=16, epochs=300, learning_rate=0.5,
            negatives_per_positive=5, batch_size=16, l2_penalty=1e-5, seed=0))
        rng = np.random.default_rng(999)
        wins = total = 0
        for s, rel, o in sorted(triples):
            for _ in range(20):
                if rng.random() < 0.5:
                    s2, o2 = nodes[int(rng.integers(10))], o
                else:
                    s2, o2 = s, nodes[int(rng.integers(10))]
                if (s2, rel, o2) in triples:
                    continue
                true_score = distmult_score(
                    table.vectors[s], table.relation_vectors[rel], table.vectors[o])
                corrupt = distmult_score(
                    table.vectors[s2], table.relation_vectors[rel], table.vectors[o2])
                total += 1
                wins += true_score > corrupt
        assert wins / total >= 0.8

    def test_covers_every_node_and_relation(self):
        kg, _, _ = block_kg()
        table = train_distmult(kg, KgeTrainConfig(
            dimension=8, epochs=2, learning_rate=0.1,
            negatives_per_positive=2, batch_size=16, seed=3))
        assert set(table.vectors) == set(kg.nodes)
        assert set(table.relation_vectors) == {"r1", "r2"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_typed(self):
        kg, _, _ = block_kg()
        config = KgeTrainConfig(dimension=16, epochs=30, learning_rate=1e3,
                                batch_size=16, seed=0)
        with pytest.raises(DivergenceError, match=r"distmult: non-finite .* epoch"):
            train_distmult(kg, config)


class TestGenerateWalks:
    def test_forced_path(self):
        kg = KnowledgeGraph("HP", {("N:a", "r", "N:b")}, {"N:a", "N:b"}, set())
        corpus = generate_walks(kg, walks_per_node=5, depth=1, seed=0)
        from_a = [s for s in corpus.sentences if s[0] == "N:a"]
        assert from_a == [["N:a", "r", "N:b"]] * 5
        from_b = [s for s in corpus.sentences if s[0] == "N:b"]
        assert from_b == [["N:b", "r", "N:a"]] * 5  # reverse traversal

    def test_sentence_count_bound(self):
        kg = ring_kg()
        corpus = generate_walks(kg, walks_per_node=7, depth=3, seed=1)
        assert len(corpus.sentences) <= len(kg.nodes) * 7

    def test_alternates_node_relation_tokens(self):
        kg = ring_kg()
        corpus = generate_walks(kg, walks_per_node=3, depth=4, seed=2)
        relations = {"r1", "r2"}
        for sentence in corpus.sentences:
            for pos, token in enumerate(sentence):
                if pos % 2 == 0:
                    assert token in kg.nodes
                else:
                    assert token in relations

    def test_stops_at_isolated_nodes(self):
        kg = KnowledgeGraph("HP", {("N:a", "r", "N:b")},
                            {"N:a", "N:b", "N:lonely"}, set())
        corpus = generate_walks(kg, walks_per_node=2, depth=3, seed=3)
        lonely = [s for s in corpus.sentences if s[0] == "N:lonely"]
        assert lonely == [["N:lonely"]] * 2

    def test_seed_determinism(self):
        kg = ring_kg()
        a = generate_walks(kg, 10, 4, seed=11)
        b = generate_walks(kg, 10, 4, seed=11)
        assert a.sentences == b.sentences


class TestLexicalCorpus:
    def kg_with_labels(self):
        terms = {
            "HP:0000365": OntologyTerm("HP:0000365", label="Hearing impairment",
                                       synonyms=["Deafness"],
                                       definition="Decreased hearing."),
            "HP:0000001": OntologyTerm("HP:0000001", label="All"),
            "HP:0000118": OntologyTerm("HP:0000118", label="Phenotypic abnormality"),
        }
        ont = Ontology(
            terms=terms,
            edges={("HP:0000365", "is_a", "HP:0000118"),
                   ("HP:0000118", "is_a", "HP:0000001")},
            roots={"HP:0000001"})
        triples = {("HP:0000365", "subClassOf", "HP:0000118"),
                   ("HP:0000118", "subClassOf", "HP:0000001"),
                   ("GENE:1", "hasAnnotation", "HP:0000365")}
        kg = KnowledgeGraph("HP", triples,
                            set(terms), {"GENE:1"})
        return kg, ont

    def test_label_sentence(self):
        kg, ont = self.kg_with_labels()
        corpus = build_lexical_corpus(kg, [ont])
        assert ["HP:0000365", "hearing", "impairment"] in corpus.sentences
        assert ["HP:0000365", "deafness"] in corpus.sentences

    def test_closure_sentences_beyond_asserted(self):
        kg, ont = self.kg_with_labels()
        corpus = build_lexical_corpus(kg, [ont])
        assert ["HP:0000365", "subClassOf", "HP:0000001"] in corpus.sentences

    def test_annotation_sentences(self):
        kg, ont = self.kg_with_labels()
        corpus = build_lexical_corpus(kg, [ont])
        assert ["GENE:1", "hasAnnotation", "HP:0000365"] in corpus.sentences

    def test_without_lexical_metadata(self):
        kg, _ = self.kg_with_labels()
        corpus = build_lexical_corpus(kg, [])
        asserted = {tuple(s) for s in corpus.sentences}
        assert ("HP:0000365", "subClassOf", "HP:0000118") in asserted
        assert ("HP:0000365", "subClassOf", "HP:0000001") in asserted
        assert ("GENE:1", "hasAnnotation", "HP:0000365") in asserted
        for sentence in corpus.sentences:
            assert len(sentence) == 3


class TestTrainSkipgram:
    CFG = dict(dimension=16, epochs=8, learning_rate=0.05, window=3,
               negatives_per_positive=5, walks_per_node=20, walk_depth=4)

    def two_cliques(self):
        nodes = [f"A:{i}" for i in range(5)] + [f"B:{i}" for i in range(5)]
        triples = set()
        for group in ("A", "B"):
            members = [n for n in nodes if n.startswith(group)]
            for a, b in itertools.combinations(members, 2):
                triples.add((a, "linked", b))
        return KnowledgeGraph("HP", triples, set(nodes), set()), nodes

    def test_every_corpus_node_has_vector(self):
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=0)
        corpus = generate_walks(kg, 5, 3, seed=0)
        table = train_skipgram(corpus, config)
        assert set(table.vectors) == set(kg.nodes)
        for vec in table.vectors.values():
            assert vec.shape == (16,)
        assert "linked" not in table.vectors  # relation tokens stay internal

    def test_clique_cosine_separation(self):
        kg, nodes = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=0)
        corpus = generate_walks(kg, config.walks_per_node, config.walk_depth,
                                config.seed)
        table = train_skipgram(corpus, config)
        unit = {n: table.vectors[n] / np.linalg.norm(table.vectors[n])
                for n in nodes}
        intra, inter = [], []
        for a, b in itertools.combinations(nodes, 2):
            value = float(unit[a] @ unit[b])
            (intra if a[0] == b[0] else inter).append(value)
        assert np.mean(intra) > np.mean(inter)

    def test_seed_determinism_byte_identical(self, tmp_path):
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=7)
        paths = []
        for name in ("a.txt", "b.txt"):
            corpus = generate_walks(kg, config.walks_per_node,
                                    config.walk_depth, config.seed)
            table = train_skipgram(corpus, config)
            path = tmp_path / name
            write_embeddings(table, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_degenerate_vocabulary(self):
        corpus = WalkCorpus([["N:a"]], frozenset({"N:a"}))
        with pytest.raises(DegenerateDataError):
            train_skipgram(corpus, KgeTrainConfig(**self.CFG, seed=0))

    def test_matches_per_pair_reference(self):
        """The dense per-sentence update equals the per-pair ``np.add.at``
        stream up to summation order."""
        kg, nodes = self.two_cliques()
        walks = generate_walks(kg, 16, 6, seed=2)
        # longer than 2 * window + 1, with repeated tokens
        repeats = [["A:0", "linked", "A:1", "linked", "A:0", "linked", "A:0",
                    "A:0", "linked", "B:1", "linked", "A:0", "A:1"]] * 3
        corpus = WalkCorpus(walks.sentences + repeats, walks.node_tokens)
        config = KgeTrainConfig(dimension=12, epochs=3, learning_rate=0.025,
                                window=2, negatives_per_positive=4, seed=9)
        assert len(corpus.sentences) > _BLOCK_SENTENCES
        assert max(len(s) for s in corpus.sentences) > 2 * config.window + 1

        got = train_skipgram(corpus, config)
        ref = train_skipgram_reference(corpus, config)
        assert set(got.vectors) == set(ref.vectors) == set(nodes)
        for node, vec in ref.vectors.items():
            assert np.max(np.abs(got.vectors[node] - vec)) <= 1e-9, node
        assert len(got.loss_history) == config.epochs
        assert np.max(np.abs(np.subtract(got.loss_history,
                                         ref.loss_history))) <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_typed(self):
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**{**self.CFG, "learning_rate": 1.0}, seed=0)
        corpus = generate_walks(kg, config.walks_per_node, config.walk_depth,
                                config.seed)
        with pytest.raises(DivergenceError, match="non-finite"):
            train_skipgram(corpus, config)


class TestScatterAdd:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 8), dim=st.integers(1, 5),
           index=st.lists(st.integers(0, 7), max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=3, dim=2, index=[], seed=0)
    @example(rows=3, dim=2, index=[1, 1, 1, 1], seed=0)
    def test_matches_add_at(self, rows, dim, index, seed):
        index = np.array([i % rows for i in index], dtype=np.int64)
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(rows, dim))
        values = rng.normal(size=(index.size, dim))
        expected = table.copy()
        np.add.at(expected, index, values)
        untouched = np.setdiff1d(np.arange(rows), index)
        before = table[untouched].copy()
        scatter_add(table, index, values)
        assert np.allclose(table, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(table[untouched], before)


class TestTrainConfig:
    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            KgeTrainConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            KgeTrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            KgeTrainConfig(margin=-1.0)
        with pytest.raises(ConfigurationError):
            KgeTrainConfig(walk_depth=0)


class TestEmbedDispatch:
    def test_default_dimension_200(self):
        assert KgeTrainConfig().dimension == 200

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            embed(ring_kg(), "node2vec")

    def test_walk_on_one_node_graph_degenerate(self):
        kg = KnowledgeGraph("HP", set(), {"N:only"}, set())
        config = KgeTrainConfig(dimension=4, epochs=1, walks_per_node=2,
                                walk_depth=2, seed=0)
        with pytest.raises(DegenerateDataError):
            embed(kg, "walk", config)

    @pytest.mark.parametrize("method", ["transe", "distmult"])
    def test_translational_on_empty_graph_degenerate(self, method):
        kg = KnowledgeGraph("HP", set(), {"N:a"}, set())
        config = KgeTrainConfig(dimension=4, epochs=1, seed=0)
        with pytest.raises(DegenerateDataError, match="empty graph"):
            embed(kg, method, config)

    def test_every_entity_gets_vector(self):
        nodes = {"HP:1", "HP:2", "GENE:1", "DISEASE:C1"}
        triples = {("HP:2", "subClassOf", "HP:1"),
                   ("GENE:1", "hasAnnotation", "HP:2"),
                   ("DISEASE:C1", "hasAnnotation", "HP:2")}
        kg = KnowledgeGraph("HP", triples, {"HP:1", "HP:2"},
                            {"GENE:1", "DISEASE:C1"})
        config = KgeTrainConfig(dimension=8, epochs=2, walks_per_node=4,
                                walk_depth=3, window=2,
                                negatives_per_positive=2, batch_size=8, seed=0)
        for method in ("transe", "distmult", "walk", "walk_lexical"):
            table = embed(kg, method, config)
            assert {"GENE:1", "DISEASE:C1"} <= set(table.vectors)
            assert table.method == method

    def test_table_validation(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingTable(3, {"N:a": np.zeros(2)}, "walk", 0)
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingTable(2, {"N:a": np.array([1.0, np.inf])}, "walk", 0)

    def test_read_embeddings_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\t2\nN:a\t0.0\t1.0\n")
        with pytest.raises(IntegrityError, match="expected 2"):
            read_embeddings(path)

    def test_node_id_with_a_space_roundtrips(self, tmp_path):
        table = EmbeddingTable(2, {"GENE:HLA A": np.array([0.1, -0.0]),
                                   "DISEASE:C1": np.array([5e-324, 1.0])}, "walk", 0)
        path = tmp_path / "emb.txt"
        write_embeddings(table, path)
        back = read_embeddings(path)
        assert sorted(back.vectors) == ["DISEASE:C1", "GENE:HLA A"]
        for node, vec in table.vectors.items():
            assert back.vectors[node].tobytes() == vec.tobytes()

    def test_export_roundtrip_full_precision(self, tmp_path):
        table = train_transe(ring_kg(), KgeTrainConfig(
            dimension=6, epochs=3, learning_rate=0.05, negatives_per_positive=2,
            batch_size=8, seed=5))
        path = tmp_path / "emb.txt"
        write_embeddings(table, path)
        back = read_embeddings(path, method=table.method, seed=table.seed)
        assert set(back.vectors) == set(table.vectors)
        for node, vec in table.vectors.items():
            assert np.array_equal(back.vectors[node], vec)
        header = path.read_text().splitlines()[0]
        assert header == f"{len(table.vectors)}\t6"
