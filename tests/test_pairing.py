"""Pair-operator arithmetic and cosine similarity contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gdapred.pairing as pairing
from gdapred.errors import IntegrityError, ZeroVectorError
from gdapred.kge import EmbeddingTable
from gdapred.pairing import (
    PAIR_OPERATORS,
    build_pair_features,
    combine,
    cosine,
    cosine_unit_score,
    pair_vectors,
    read_pair_features,
    write_pair_features,
)

from helpers import dataset_of


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
        with pytest.raises(ZeroVectorError):
            cosine([1e-300, 0.0], [0.0, -0.0])

    def test_tiny_and_huge_vectors_are_defined(self):
        # the squared norms underflow to 0 and overflow to inf unscaled
        assert cosine([1e-200, 0.0], [1.0, 0.0]) == 1.0
        assert cosine([1e200, 0.0], [1e200, 1.0]) == 1.0
        assert cosine([5e-324, 0.0], [0.0, 1e308]) == 0.0
        assert cosine(np.ldexp([3.0, 4.0], -700), np.ldexp([4.0, -3.0], 800)) == 0.0

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


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


#: small enough that no dot product of up to 70 terms overflows
ELEMENTS = st.floats(-1e150, 1e150, allow_nan=False)
#: zero, or of a magnitude whose products and their sums stay normal floats
ORDINARY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def gene_disease_rows(draw, elements=ELEMENTS):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 70)))
    return (draw(arrays(np.float64, shape, elements=elements)),
            draw(arrays(np.float64, shape, elements=elements)))


class TestRows:
    """(n, d) gene and disease rows give, row by row, the bits of the
    one-pair call and of the one-pair cosine formula."""

    @settings(max_examples=150, deadline=None)
    @given(rows=gene_disease_rows(), operator=st.sampled_from(PAIR_OPERATORS))
    def test_combine_rows_are_their_pairs(self, rows, operator):
        G, D = rows
        out = combine(G, D, operator)
        assert out.shape == (len(G), G.shape[1] * (2 if operator == "concatenation" else 1))
        for i in range(len(G)):
            assert np.array_equal(_bits(out[i]), _bits(combine(G[i], D[i], operator)))

    @settings(max_examples=150, deadline=None)
    @given(rows=gene_disease_rows())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cosine_rows_are_the_pair_formula(self, rows):
        G, D = rows
        if not all(v.any() for v in (*G, *D)):
            with pytest.raises(ZeroVectorError):
                cosine(G, D)
            return
        out = cosine(G, D)
        unit = cosine_unit_score(G, D)
        assert out.shape == unit.shape == (len(G),)
        for i, (g, d) in enumerate(zip(G, D)):
            # the formula on each vector times 2**-k, k its largest exponent
            gs, ds = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (g, d))
            formula = np.clip(np.dot(gs, ds) / (np.linalg.norm(gs) * np.linalg.norm(ds)),
                              -1, 1)
            assert _bits(out[i]) == _bits(formula)
            assert _bits(cosine(g, d)) == _bits(formula)
            assert _bits(unit[i]) == _bits((1.0 + formula) / 2.0)

    @settings(max_examples=200, deadline=None)
    @given(rows=gene_disease_rows(elements=ORDINARY))
    def test_ordinary_vectors_keep_the_unscaled_bits(self, rows):
        G, D = rows
        assume(all(v.any() for v in (*G, *D)))
        for g, d, value in zip(G, D, cosine(G, D)):
            formula = np.clip(np.dot(g, d) / (np.linalg.norm(g) * np.linalg.norm(d)), -1, 1)
            assert _bits(value) == _bits(formula)

    @settings(max_examples=60, deadline=None)
    @given(rows=gene_disease_rows(), data=st.data())
    def test_zero_row_anywhere_raises(self, rows, data):
        G, D = (np.where(a == 0.0, 1.0, a) for a in rows)
        target = D if data.draw(st.booleans()) else G
        target[data.draw(st.integers(0, len(G) - 1))] = 0.0
        with pytest.raises(ZeroVectorError):
            cosine(G, D)
        with pytest.raises(ZeroVectorError):
            cosine_unit_score(G, D)

    @settings(max_examples=60, deadline=None)
    @given(rows=gene_disease_rows(), data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_raises(self, rows, data, bad):
        G, D = rows
        target = D if data.draw(st.booleans()) else G
        target[data.draw(st.integers(0, len(G) - 1)),
               data.draw(st.integers(0, G.shape[1] - 1))] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            cosine(G, D)
        for operator in PAIR_OPERATORS:
            with pytest.raises(ValueError, match="NaN or infinite"):
                combine(G, D, operator)

    def test_one_pair_cosine_is_a_float(self):
        assert type(cosine([1.0, 2.0], [3.0, -4.0])) is float

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            combine(np.ones((1, 1, 2)), np.ones((1, 1, 2)), "hadamard")


def toy_dataset_and_table(without=()):
    """Two pairs and a table of their entities' vectors, less the nodes
    in ``without``."""
    g1, g2 = "GENE:1", "GENE:2"
    d1 = "DISEASE:C1"
    dataset = dataset_of([(g1, d1, 1), (g2, d1, 0)])
    vectors = {
        "DISEASE:C1": [2.0, 3.0],
        "GENE:1": [1.0, 2.0],
        "GENE:2": [0.5, -1.0],
    }
    nodes = [node for node in vectors if node not in without]
    return dataset, EmbeddingTable(nodes, np.reshape([vectors[n] for n in nodes],
                                                     (len(nodes), 2)), "walk")


class TestPairFeatures:
    def test_rows_align_with_dataset(self):
        dataset, table = toy_dataset_and_table()
        features = build_pair_features(dataset, table, ["hadamard"])["hadamard"]
        assert features.shape == (2, 2)
        assert features[0].tolist() == [2.0, 6.0]
        assert features[1].tolist() == [1.0, -3.0]

    def test_missing_vector_is_integrity_error(self):
        dataset, table = toy_dataset_and_table(without={"GENE:2"})
        with pytest.raises(IntegrityError, match="GENE:2"):
            build_pair_features(dataset, table, ["hadamard"])

    @pytest.mark.parametrize("gene", ["GENE:2\x00", "GENE:", "GENE:9"])
    def test_gather_matches_whole_node_ids(self, gene):
        # a NUL-ended id, one that sorts first and one that sorts last
        _, table = toy_dataset_and_table()
        dataset = dataset_of([(gene, "DISEASE:C1", 1), ("GENE:1", "DISEASE:C1", 0)])
        with pytest.raises(IntegrityError) as err:
            pair_vectors(dataset, table)
        assert str(err.value) == f"entities without embedding vectors: {gene}"

    def test_empty_table_names_every_entity(self):
        dataset, table = toy_dataset_and_table(without={"GENE:1", "GENE:2", "DISEASE:C1"})
        with pytest.raises(IntegrityError, match="vectors: DISEASE:C1, GENE:1, GENE:2$"):
            pair_vectors(dataset, table)

    def test_one_gather_serves_every_operator(self, monkeypatch):
        dataset, table = toy_dataset_and_table()
        gathers = []
        real = pairing.pair_vectors

        def counting(*args):
            gathers.append(real(*args))
            return gathers[-1]

        monkeypatch.setattr(pairing, "pair_vectors", counting)
        built = build_pair_features(dataset, table, PAIR_OPERATORS)
        assert len(gathers) == 1
        assert list(built) == list(PAIR_OPERATORS)
        for operator, features in built.items():
            assert features.tobytes() == combine(*gathers[0], operator).tobytes()

    def test_gather_names_every_missing_entity(self):
        dataset, table = toy_dataset_and_table(without={"GENE:2", "DISEASE:C1"})
        with pytest.raises(IntegrityError) as err:
            pair_vectors(dataset, table)
        assert str(err.value) == "entities without embedding vectors: DISEASE:C1, GENE:2"

    def test_gather_rows_in_dataset_order(self):
        dataset, table = toy_dataset_and_table()
        G, D = pair_vectors(dataset, table)
        assert G.tolist() == [[1.0, 2.0], [0.5, -1.0]]
        assert D.tolist() == [[2.0, 3.0], [2.0, 3.0]]

    def test_tsv_roundtrip(self, tmp_path):
        dataset, table = toy_dataset_and_table()
        features = build_pair_features(dataset, table, ["concatenation"])["concatenation"]
        path = tmp_path / "features.npy"
        write_pair_features(dataset.id_pairs(), features, path)
        ids, back = read_pair_features(path)
        assert np.array_equal(back, features)
        assert ids == [("1", "C1"), ("2", "C1")] == dataset.id_pairs()
