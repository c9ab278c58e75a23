"""Embedding trainers: scores, gradients, corpora, and seeded fixtures."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdapred.artifacts import read_matrix, write_matrix
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
    embed,
    generate_walks,
    read_embeddings,
    train_distmult,
    train_skipgram,
    train_transe,
    write_embeddings,
)
from gdapred.kge.base import scatter_add, softplus
from gdapred.kge.corpus import WalkCorpus
from gdapred.kge.skipgram import (
    _BLOCK_SENTENCES,
    _draw_negatives,
    _noise_guide,
    _segment_unique,
)
from gdapred.ontology import Ontology, OntologyTerm

from helpers import by_id, finite_difference, max_relative_error, save_arrays, utf8
from sgns_reference import (
    segment_unique_reference,
    sgns_loss,
    train_skipgram_reference,
)
from triple_reference import (
    distmult_logistic_loss,
    distmult_score,
    train_distmult_reference,
    train_transe_reference,
    transe_margin_loss,
    transe_score,
)


def ring_kg(n=12):
    nodes = [f"N:{i}" for i in range(n)]
    triples = set()
    for i in range(n):
        triples.add((nodes[i], "r1", nodes[(i + 1) % n]))
    for i in range(0, n, 3):
        triples.add((nodes[i], "r2", nodes[(i + 6) % n]))
    return KnowledgeGraph("HP", triples)


@st.composite
def walk_kgs(draw):
    """Small multi-relation graphs with degree-1 nodes, self-loops and
    edges stated in both directions."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1).map(lambda i: f"N:{i}")
    triples = draw(st.lists(st.tuples(node, st.sampled_from(["r", "s", "t"]), node),
                            min_size=1, max_size=16))
    mirror = draw(st.lists(st.booleans(), min_size=len(triples),
                           max_size=len(triples)))
    return KnowledgeGraph("HP", set(triples) | {
        (o, rel, s) for (s, rel, o), m in zip(triples, mirror) if m})


def block_kg():
    nodes = [f"N:{i}" for i in range(10)]
    triples = set()
    for i in range(5):
        for j in range(5, 10):
            if (i + j) % 2 == 0:
                triples.add((nodes[i], "r1", nodes[j]))
            else:
                triples.add((nodes[j], "r2", nodes[i]))
    return KnowledgeGraph("HP", triples), nodes, triples


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
        for vec in table.matrix:
            assert np.linalg.norm(vec) <= 1.0 + 1e-9

    def test_covers_nodes_and_relations(self):
        kg = ring_kg()
        table = train_transe(kg, KgeTrainConfig(**self.CFG, seed=2))
        assert set(table.nodes) == set(kg.nodes)
        assert set(table.relations) == {"r1", "r2"}

    def test_seed_determinism_byte_identical(self, tmp_path):
        kg = ring_kg()
        blobs = []
        for name in ("a.npy", "b.npy"):
            table = train_transe(kg, KgeTrainConfig(**self.CFG, seed=9))
            path = tmp_path / name
            write_embeddings(table, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_translation_consistency(self):
        kg = KnowledgeGraph("HP", {("T:a", "r", "T:b"), ("T:c", "r", "T:d")})
        from gdapred.kge.translational import _init_matrix, _project_to_unit_ball
        sorted_nodes, _, _ = kg.coding()
        idx = {n: i for i, n in enumerate(sorted_nodes)}
        rng = np.random.default_rng(0)
        E0 = _init_matrix(rng, len(sorted_nodes), 8)
        _project_to_unit_ball(E0)
        before = np.linalg.norm(
            (E0[idx["T:b"]] - E0[idx["T:a"]]) - (E0[idx["T:d"]] - E0[idx["T:c"]]))
        table = train_transe(kg, KgeTrainConfig(
            dimension=8, epochs=100, learning_rate=0.05, margin=1.0,
            negatives_per_positive=4, batch_size=4, seed=0))
        vectors = by_id(table.nodes, table.matrix)
        after = np.linalg.norm(
            (vectors["T:b"] - vectors["T:a"]) - (vectors["T:d"] - vectors["T:c"]))
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
        vectors = by_id(table.nodes, table.matrix)
        relations = by_id(table.relations, table.relation_matrix)
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
                true_score = distmult_score(vectors[s], relations[rel], vectors[o])
                corrupt = distmult_score(vectors[s2], relations[rel], vectors[o2])
                total += 1
                wins += true_score > corrupt
        assert wins / total >= 0.8

    def test_covers_every_node_and_relation(self):
        kg, _, _ = block_kg()
        table = train_distmult(kg, KgeTrainConfig(
            dimension=8, epochs=2, learning_rate=0.1,
            negatives_per_positive=2, batch_size=16, seed=3))
        assert set(table.nodes) == set(kg.nodes)
        assert set(table.relations) == {"r1", "r2"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_typed(self):
        kg, _, _ = block_kg()
        config = KgeTrainConfig(dimension=16, epochs=30, learning_rate=1e3,
                                batch_size=16, seed=0)
        with pytest.raises(DivergenceError, match=r"distmult: non-finite .* epoch"):
            train_distmult(kg, config)


class TestTripleOracle:
    """The fused TransE and DistMult steps (folded gradients, one scatter
    per table, touched-row renormalisation) against the unfolded form in
    ``triple_reference``: the loss functions' per-sample gradients,
    ``np.add.at`` and whole-table renormalisation."""

    @staticmethod
    def kg():
        # ring_kg's 16 triples, plus 40 entities with one annotation each
        # to a ring node: most batches touch most of them only as
        # corruptions
        ring = ring_kg()
        return KnowledgeGraph("HP", ring.triples | {
            (f"GENE:{i}", "hasAnnotation", f"N:{i % 12}") for i in range(40)})

    @pytest.mark.parametrize("train, reference, rates", [
        (train_transe, train_transe_reference, dict(learning_rate=0.3)),
        (train_distmult, train_distmult_reference,
         dict(learning_rate=0.5, l2_penalty=0.01))])
    @pytest.mark.parametrize("batch_size, k, seed", [(5, 3, 0), (3, 2, 3)])
    def test_matches_reference(self, train, reference, rates, batch_size, k, seed):
        kg = self.kg()
        config = KgeTrainConfig(dimension=6, epochs=3, negatives_per_positive=k,
                                batch_size=batch_size, seed=seed, **rates)
        got = train(kg, config)
        want, _, draws = reference(kg, config)

        # the cases the run has to cover
        assert len(kg.triples) % batch_size != 0 and k >= 2
        assert any(np.any(np.where(head, node == H[:, None], node == T[:, None]))
                   for H, T, head, node in draws)
        for got_vectors, want_vectors in (
                (by_id(got.nodes, got.matrix), by_id(want.nodes, want.matrix)),
                (by_id(got.relations, got.relation_matrix),
                 by_id(want.relations, want.relation_matrix))):
            assert set(got_vectors) == set(want_vectors)
            for name, vec in want_vectors.items():
                np.testing.assert_allclose(got_vectors[name], vec, rtol=1e-12, atol=0)
        assert len(got.loss_history) == config.epochs
        np.testing.assert_allclose(got.loss_history, want.loss_history,
                                   rtol=1e-12, atol=0)


class TestGenerateWalks:
    def test_forced_path(self):
        kg = KnowledgeGraph("HP", {("N:a", "r", "N:b")})
        corpus = generate_walks(kg, walks_per_node=5, depth=1, seed=0)
        from_a = [s for s in corpus.sentences if s[0] == "N:a"]
        assert from_a == [["N:a", "r", "N:b"]] * 5
        from_b = [s for s in corpus.sentences if s[0] == "N:b"]
        assert from_b == [["N:b", "r", "N:a"]] * 5  # reverse traversal

    def test_sentence_count_bound(self):
        """Every node starts exactly ``walks_per_node`` sentences."""
        kg = ring_kg()
        corpus = generate_walks(kg, walks_per_node=7, depth=3, seed=1)
        assert Counter(s[0] for s in corpus.sentences) == dict.fromkeys(kg.nodes, 7)
        assert len(corpus.sentences) == len(kg.nodes) * 7

    @settings(max_examples=200, deadline=None)
    @given(kg=walk_kgs(), walks_per_node=st.integers(1, 4),
           depth=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_every_step_follows_an_edge(self, kg, walks_per_node, depth, seed):
        corpus = generate_walks(kg, walks_per_node, depth, seed)
        assert [s[0] for s in corpus.sentences] == [
            node for node in sorted(kg.nodes) for _ in range(walks_per_node)]
        for sentence in corpus.sentences:
            assert len(sentence) == 2 * depth + 1
            for i in range(depth):
                node, rel, nxt = sentence[2 * i:2 * i + 3]
                assert ((node, rel, nxt) in kg.triples
                        or (nxt, rel, node) in kg.triples), sentence

    def test_first_steps_are_uniform_over_distinct_pairs(self):
        """A hub's six distinct (relation, neighbour) pairs, reached through
        a self-loop, an edge stated in both directions and an incoming
        edge, each take a sixth of 6,000 first steps within 5 sigma."""
        kg = KnowledgeGraph("HP", {
            ("H:0", "r", "A:0"), ("A:0", "r", "H:0"), ("H:0", "s", "A:0"),
            ("H:0", "r", "H:0"), ("H:0", "r", "B:0"), ("C:0", "s", "H:0"),
            ("H:0", "t", "D:0")})
        walks = 6000
        corpus = generate_walks(kg, walks_per_node=walks, depth=1, seed=3)
        steps = Counter(tuple(s[1:]) for s in corpus.sentences if s[0] == "H:0")
        assert set(steps) == {("r", "A:0"), ("s", "A:0"), ("r", "H:0"),
                              ("r", "B:0"), ("s", "C:0"), ("t", "D:0")}
        sigma = math.sqrt(walks * (1 / 6) * (5 / 6))
        for pair, count in steps.items():
            assert abs(count - walks / 6) <= 5 * sigma, (pair, count)

    @pytest.mark.parametrize("walks_per_node, depth, name", [
        (0, 2, "walks_per_node"), (-1, 2, "walks_per_node"),
        (2, 0, "depth"), (2, -3, "depth")])
    def test_rejects_counts_below_one(self, walks_per_node, depth, name):
        with pytest.raises(ConfigurationError, match=name):
            generate_walks(ring_kg(), walks_per_node, depth, seed=0)

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
        kg = KnowledgeGraph("HP", triples)
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
        return KnowledgeGraph("HP", triples), nodes

    def test_every_corpus_node_has_vector(self):
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=0)
        corpus = generate_walks(kg, 5, 3, seed=0)
        table = train_skipgram(corpus, config)
        assert set(table.nodes) == set(kg.nodes)
        for vec in table.matrix:
            assert vec.shape == (16,)
        assert "linked" not in table.nodes  # relation tokens stay internal

    def test_clique_cosine_separation(self):
        kg, nodes = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=0)
        corpus = generate_walks(kg, config.walks_per_node, config.walk_depth,
                                config.seed)
        table = train_skipgram(corpus, config)
        vectors = by_id(table.nodes, table.matrix)
        unit = {n: vectors[n] / np.linalg.norm(vectors[n]) for n in nodes}
        intra, inter = [], []
        for a, b in itertools.combinations(nodes, 2):
            value = float(unit[a] @ unit[b])
            (intra if a[0] == b[0] else inter).append(value)
        assert np.mean(intra) > np.mean(inter)

    def test_seed_determinism_byte_identical(self, tmp_path):
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**self.CFG, seed=7)
        paths = []
        for name in ("a.npy", "b.npy"):
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
        got_vectors = by_id(got.nodes, got.matrix)
        assert set(got.nodes) == set(ref.nodes) == set(nodes)
        for node, vec in by_id(ref.nodes, ref.matrix).items():
            assert np.max(np.abs(got_vectors[node] - vec)) <= 1e-9, node
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

    def test_finite_blowup_is_typed(self):
        # at 0.1 the losses grow past 1e87 while every value stays finite
        kg, _ = self.two_cliques()
        config = KgeTrainConfig(**{**self.CFG, "learning_rate": 0.1}, seed=0)
        corpus = generate_walks(kg, config.walks_per_node, config.walk_depth,
                                config.seed)
        with pytest.raises(DivergenceError,
                           match=r"walk: mean loss per pair .* at epoch 0 "
                                 r"exceeds 10 times"):
            train_skipgram(corpus, config)

    def test_confident_pairs_train_without_warnings(self):
        """Scores beyond exp's range give the coefficient's exact limit, 0."""
        corpus = WalkCorpus([["N:a", "N:b"] * 8] * 16, frozenset({"N:a", "N:b"}))
        config = KgeTrainConfig(dimension=4, epochs=3, learning_rate=2.0,
                                window=1, negatives_per_positive=2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = train_skipgram(corpus, config)
        assert table.loss_history[-1] < 1e-100


class TestSgnsPlan:
    """The block plan's negative sampler and segmented unique, bit for
    bit against the binary search and ``np.unique`` forms."""

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.integers(1, 1000), min_size=2, max_size=70),
           top=st.sampled_from([1.0, 1.0 - 2**-52, 1.0 - 2**-30, 1.0 + 2**-52]),
           seed=st.integers(0, 2**32 - 1))
    @example(weights=[1, 1], top=1.0, seed=0)
    @example(weights=[1, 1, 2, 4], top=1.0, seed=0)  # CDF steps on bucket edges
    @example(weights=[3, 5, 7], top=1.0 - 2**-52, seed=0)
    def test_guide_draws_equal_binary_search(self, weights, top, seed):
        noise = np.array(weights, dtype=np.float64)
        noise_cum = np.cumsum(noise / noise.sum())
        noise_cum[-1] = top  # float cumsum can end a hair off 1.0
        guide = _noise_guide(noise_cum)
        m = guide.size - 1
        assert m >= 16 * noise_cum.size and m & (m - 1) == 0
        edges = np.arange(m) / m
        inside = noise_cum[noise_cum < 1.0]
        u = np.concatenate([
            edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
            inside, np.nextafter(inside, 0.0), [np.nextafter(1.0, 0.0)],
            np.random.default_rng(seed).random(300)])
        for draws in (u, u[:u.size // 4 * 4].reshape(-1, 4)):
            expected = np.minimum(np.searchsorted(noise_cum, draws),
                                  noise_cum.size - 1)
            assert np.array_equal(_draw_negatives(draws, noise_cum, guide),
                                  expected)

    @settings(max_examples=300, deadline=None)
    @given(n_segments=st.integers(1, 6), n_tokens=st.integers(1, 40),
           entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 39)),
                            max_size=80),
           grouped=st.booleans())
    @example(n_segments=3, n_tokens=5, entries=[], grouped=True)
    @example(n_segments=4, n_tokens=5, entries=[(1, 2)] * 7 + [(3, 2)] * 2,
             grouped=True)  # empty segments, all-equal tokens
    def test_segment_unique_equals_np_unique(self, n_segments, n_tokens,
                                             entries, grouped):
        segments = np.array([s % n_segments for s, _ in entries], dtype=np.int64)
        tokens = np.array([t % n_tokens for _, t in entries], dtype=np.int64)
        if grouped:  # as the block plan passes them
            order = np.argsort(segments, kind="stable")
            segments, tokens = segments[order], tokens[order]
        before = segments.copy(), tokens.copy()
        got = _segment_unique(tokens, segments, n_segments, n_tokens)
        want = segment_unique_reference(tokens, segments, n_segments, n_tokens)
        assert np.array_equal(segments, before[0])
        assert np.array_equal(tokens, before[1])
        assert got[1] == want[1]
        for g, w in ((got[0], want[0]), (got[2], want[2])):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


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
        # a reused index buffer: longer than needed, with stale entries
        flat = np.full(index.size * dim + 3, -1, dtype=np.intp)
        touched = scatter_add(table, index, values, flat)
        assert np.array_equal(touched, np.unique(index))
        assert np.allclose(table, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(table[untouched], before)


class TestSoftplus:
    EDGES = [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
             745.0, -745.0, 1e308, -1e308,
             # where 1 + exp(-|z|) rounds to 1, so only log1p keeps the tail
             40.0, -40.0, -700.0]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=30))
    def test_matches_logaddexp(self, values):
        z = np.array(values + self.EDGES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = softplus(z)
        want = np.logaddexp(0.0, z)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        got, want = got[finite], want[finite]
        # a subnormal result holds fewer bits: allow one spacing there
        tolerance = 1e-15 * want + np.finfo(np.float64).smallest_subnormal
        assert np.all(np.abs(got - want) <= tolerance), z[finite]

    def test_nan_stays_nan(self):
        z = np.array([np.nan, -np.nan, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = softplus(z)
        assert np.isnan(got[:2]).all() and got[2] == np.logaddexp(0.0, 1.0)


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

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("margin", math.nan), ("margin", math.inf), ("l2_penalty", -1.0),
        ("l2_penalty", math.nan), ("l2_penalty", math.inf)])
    def test_rates_must_be_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            KgeTrainConfig(**{name: value})

    def test_zero_l2_penalty_is_allowed(self):
        assert KgeTrainConfig(l2_penalty=0.0).l2_penalty == 0.0


class TestEmbedDispatch:
    def test_default_dimension_200(self):
        assert KgeTrainConfig().dimension == 200

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            embed(ring_kg(), "node2vec")

    def test_walk_on_one_node_graph_degenerate(self):
        kg = KnowledgeGraph("HP", set())  # no triple, so not even one node
        config = KgeTrainConfig(dimension=4, epochs=1, walks_per_node=2,
                                walk_depth=2, seed=0)
        with pytest.raises(DegenerateDataError):
            embed(kg, "walk", config)

    @pytest.mark.parametrize("method", ["transe", "distmult"])
    def test_translational_on_empty_graph_degenerate(self, method):
        kg = KnowledgeGraph("HP", set())
        config = KgeTrainConfig(dimension=4, epochs=1, seed=0)
        with pytest.raises(DegenerateDataError, match="empty graph"):
            embed(kg, method, config)

    def test_every_entity_gets_vector(self):
        triples = {("HP:2", "subClassOf", "HP:1"),
                   ("GENE:1", "hasAnnotation", "HP:2"),
                   ("DISEASE:C1", "hasAnnotation", "HP:2")}
        kg = KnowledgeGraph("HP", triples)
        config = KgeTrainConfig(dimension=8, epochs=2, walks_per_node=4,
                                walk_depth=3, window=2,
                                negatives_per_positive=2, batch_size=8, seed=0)
        for method in ("transe", "distmult", "walk", "walk_lexical"):
            table = embed(kg, method, config)
            assert {"GENE:1", "DISEASE:C1"} <= set(table.nodes)
            assert table.method == method

    #: ids and a matrix that are no table, and what construction says
    BAD_TABLES = [
        (["N:a"], np.zeros((2, 2)), r"1 ids for a matrix of shape \(2, 2\)"),
        (["N:a"], np.zeros(2), r"1 ids for a matrix of shape \(2,\)"),
        (["N:b", "N:a"], np.zeros((2, 2)), "the ids are not sorted"),
        (["N:a", "N:b", "N:b"], np.zeros((3, 2)), "node 'N:b' has more than one row"),
        (["N:a", "N:b"], [[0.0, 1.0], [1.0, np.inf]], "vector for N:b has non-finite"),
    ]

    def test_table_validation(self):
        for nodes, matrix, match in self.BAD_TABLES:
            with pytest.raises(ValueError, match=match):
                EmbeddingTable(nodes, matrix, "walk", 0)
            with pytest.raises(ValueError, match=match):
                EmbeddingTable(["N:a"], [[0.0, 1.0]], "transe", 0, nodes, matrix)

    def test_read_embeddings_count_mismatch(self, tmp_path):
        # and the files whose ids are not sorted or not distinct
        path = tmp_path / "bad.npy"
        for nodes, match in (
                (["N:a"], "1 ids for 2 rows"),
                (["N:b", "N:a"], "the ids are not sorted"),
                (["N:a", "N:a"], "node 'N:a' has more than one row")):
            write_matrix(path, nodes, [[0.0, 1.0], [1.0, 0.0]])
            with pytest.raises(IntegrityError, match=rf"bad\.npy: {match}"):
                read_embeddings(path)

    @pytest.mark.parametrize("matrix", [
        np.array([["x", "2"], ["y", "2"]]),
        np.ones((2, 2), dtype=np.float32),
        np.ones(2),
        np.ones((2, 2, 2)),
    ], ids=["str-cells", "float32", "1-D", "3-D"])
    def test_read_embeddings_bad_header(self, tmp_path, matrix):
        # the .npy header of the matrix declares another dtype or shape
        path = tmp_path / "bad.npy"
        save_arrays(path, matrix, utf8("N:a\nN:b"))
        with pytest.raises(IntegrityError, match=r"bad\.npy: expected a 2-D float64 matrix"):
            read_embeddings(path)

    def test_node_id_with_a_space_roundtrips(self, tmp_path):
        table = EmbeddingTable(["DISEASE:C1", "GENE:HLA A"],
                               [[5e-324, 1.0], [0.1, -0.0]], "walk", 0)
        path = tmp_path / "emb.npy"
        write_embeddings(table, path)
        back = read_embeddings(path)
        assert sorted(back.nodes) == ["DISEASE:C1", "GENE:HLA A"]
        back_vectors = by_id(back.nodes, back.matrix)
        for node, vec in by_id(table.nodes, table.matrix).items():
            assert back_vectors[node].tobytes() == vec.tobytes()

    def test_export_roundtrip_full_precision(self, tmp_path):
        table = train_transe(ring_kg(), KgeTrainConfig(
            dimension=6, epochs=3, learning_rate=0.05, negatives_per_positive=2,
            batch_size=8, seed=5))
        path = tmp_path / "emb.npy"
        write_embeddings(table, path)
        back = read_embeddings(path)
        assert set(back.nodes) == set(table.nodes)
        back_vectors = by_id(back.nodes, back.matrix)
        for node, vec in by_id(table.nodes, table.matrix).items():
            assert np.array_equal(back_vectors[node], vec)
        nodes, matrix = read_matrix(path)
        assert nodes == sorted(table.nodes)
        assert matrix.shape == (len(table.nodes), 6)
