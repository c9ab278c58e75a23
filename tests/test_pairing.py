"""Pair-operator arithmetic and cosine similarity contracts."""

import numpy as np
import pytest

from gdapred.errors import IntegrityError, ZeroVectorError
from gdapred.evaluation import AssociationDataset, LabeledPair
from gdapred.kge import EmbeddingTable
from gdapred.ontology import EntityId
from gdapred.pairing import (
    PAIR_OPERATORS,
    build_pair_features,
    combine,
    cosine,
    cosine_unit_score,
    read_pair_features,
    write_pair_features,
)


class TestCombine:
    def test_hadamard(self):
        assert combine([1, 2, 3], [4, 5, 6], "hadamard").tolist() == [4, 10, 18]

    def test_weighted_l1_and_l2(self):
        assert combine([1, 2], [3, 1], "weighted_l1").tolist() == [2, 1]
        assert combine([1, 2], [3, 1], "weighted_l2").tolist() == [4, 1]

    def test_identity_cases(self):
        g = np.array([0.5, -1.0, 2.0])
        assert combine(g, g, "average").tolist() == g.tolist()
        assert combine(g, g, "weighted_l1").tolist() == [0, 0, 0]

    def test_concatenation_is_gene_first(self):
        out = combine([1, 2], [3, 4], "concatenation")
        assert out.tolist() == [1, 2, 3, 4]

    def test_output_dimensions(self):
        g, d = np.ones(5), np.ones(5)
        for op in PAIR_OPERATORS:
            expected = 10 if op == "concatenation" else 5
            assert combine(g, d, op).shape == (expected,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combine([1, 2], [1, 2, 3], "hadamard")

    def test_commutativity_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.normal(size=6)
            d = rng.normal(size=6)
            for op in ("average", "hadamard", "weighted_l1", "weighted_l2"):
                assert np.allclose(combine(g, d, op), combine(d, g, op))
            assert not np.allclose(combine(g, d, "concatenation"),
                                   combine(d, g, "concatenation"))

    def test_finite_outputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=8) * 1e6
            d = rng.normal(size=8) * 1e6
            for op in PAIR_OPERATORS:
                assert np.all(np.isfinite(combine(g, d, op)))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            combine([1], [1], "sum")


class TestCosine:
    def test_self_similarity(self):
        assert cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite_maps_to_zero_sweep_score(self):
        g = np.array([1.0, -2.0])
        assert cosine(g, -g) == pytest.approx(-1.0)
        assert cosine_unit_score(g, -g) == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine([0, 0], [1, 1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = rng.normal(size=5)
            d = rng.normal(size=5)
            alpha = float(rng.uniform(0.1, 10.0))
            assert cosine(alpha * g, d) == pytest.approx(cosine(g, d), abs=1e-12)

    def test_never_leaves_unit_range(self):
        # parallel vectors with awkward magnitudes probe the rounding edge
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = rng.normal(size=7) * float(rng.uniform(1e-3, 1e3))
            for d in (g, -g, 3.7 * g, rng.normal(size=7)):
                value = cosine(g, d)
                assert -1.0 <= value <= 1.0
                assert 0.0 <= cosine_unit_score(g, d) <= 1.0


def toy_dataset_and_table():
    g1, g2 = EntityId("1", "gene"), EntityId("2", "gene")
    d1 = EntityId("C1", "disease")
    dataset = AssociationDataset([
        LabeledPair(g1, d1, 1), LabeledPair(g2, d1, 0)])
    vectors = {
        "GENE:1": np.array([1.0, 2.0]),
        "GENE:2": np.array([0.5, -1.0]),
        "DISEASE:C1": np.array([2.0, 3.0]),
    }
    return dataset, EmbeddingTable(2, vectors, "walk", 0)


class TestPairFeatures:
    def test_rows_align_with_dataset(self):
        dataset, table = toy_dataset_and_table()
        features = build_pair_features(dataset, table, "hadamard")
        assert features.rows.shape == (2, 2)
        assert features.rows[0].tolist() == [2.0, 6.0]
        assert features.rows[1].tolist() == [1.0, -3.0]

    def test_missing_vector_is_integrity_error(self):
        dataset, table = toy_dataset_and_table()
        del table.vectors["GENE:2"]
        with pytest.raises(IntegrityError, match="GENE:2"):
            build_pair_features(dataset, table, "hadamard")

    def test_tsv_roundtrip(self, tmp_path):
        dataset, table = toy_dataset_and_table()
        features = build_pair_features(dataset, table, "concatenation")
        path = tmp_path / "features.tsv"
        write_pair_features(features, path)
        back = read_pair_features(path)
        assert np.array_equal(back.rows, features.rows)
        assert back.pairs == features.pairs
