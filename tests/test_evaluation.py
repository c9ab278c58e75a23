"""Dataset sampling/splitting and metric contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gdapred.evaluation
from gdapred.artifacts import read_json
from gdapred.errors import DegenerateDataError, InfeasibleNegativesError, IntegrityError
from gdapred.evaluation import (
    AssociationDataset,
    evaluate_run,
    read_dataset,
    roc_auc,
    sample_negatives,
    stratified_split,
    threshold_sweep,
    threshold_waf_table,
    waf,
    write_dataset,
    write_roc_tsv,
)
from gdapred.ontology import EntityId

from helpers import (
    dataset_of,
    negatives,
    oracle_auc,
    oracle_per_label_metrics,
    oracle_roc_points,
    oracle_split,
    oracle_threshold_waf_table,
    oracle_waf,
    pairs_of,
    per_label_metrics,
    read_report,
)


#: ids a dataset file can hold: no tab, line break or surrogate
DATASET_IDS = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="\t\n\r"), min_size=1)


def gene(i):
    return EntityId(f"g{i}", "gene")


def disease(i):
    return EntityId(f"d{i}", "disease")


def pair_grid(n_genes, n_diseases):
    return [(gene(i), disease(j)) for i in range(n_genes) for j in range(n_diseases)]


class TestSampleNegatives:
    def test_forced_by_exhaustion(self):
        positives = [(gene(1), disease(1)), (gene(2), disease(2))]
        ds = sample_negatives(positives, seed=0)
        neg_keys = {(p.gene, p.disease) for p in negatives(ds)}
        assert neg_keys == {(gene(1), disease(2)), (gene(2), disease(1))}

    def test_complete_bipartite_infeasible(self):
        positives = pair_grid(2, 2)
        with pytest.raises(InfeasibleNegativesError, match="0"):
            sample_negatives(positives, seed=0)

    def test_single_gene_rejected(self):
        with pytest.raises(DegenerateDataError):
            sample_negatives([(gene(1), disease(1)), (gene(1), disease(2))], seed=0)

    def test_properties_over_many_seeds(self):
        rng = np.random.default_rng(97)
        for trial in range(200):
            n_g = int(rng.integers(2, 8))
            n_d = int(rng.integers(2, 8))
            all_pairs = pair_grid(n_g, n_d)
            n_pos = int(rng.integers(1, max(2, len(all_pairs) // 2)))
            chosen = rng.choice(len(all_pairs), size=n_pos, replace=False)
            positives = [all_pairs[int(i)] for i in chosen]
            genes = {g for g, _ in positives}
            diseases = {d for _, d in positives}
            if len(genes) < 2 or len(diseases) < 2:
                continue
            if len(genes) * len(diseases) - len(positives) < len(positives):
                continue
            ds = sample_negatives(positives, seed=trial)
            pos_keys = set(positives)
            neg_keys = {(p.gene, p.disease) for p in negatives(ds)}
            assert len(neg_keys) == len(positives)
            assert not (neg_keys & pos_keys)
            for g, d in neg_keys:
                assert g in genes and d in diseases

    def test_deterministic(self):
        positives = [(gene(i), disease(j)) for i in range(5) for j in range(5)
                     if (i + j) % 3 == 0]
        a = sample_negatives(positives, seed=123)
        b = sample_negatives(positives, seed=123)
        assert pairs_of(a) == pairs_of(b)


class TestAssociationDataset:
    @pytest.mark.parametrize("genes, diseases, labels, train, match", [
        ([gene(1)], [disease(1), disease(2)], [1, 0], None, "differ in length"),
        ([gene(1), gene(2)], [disease(1)] * 2, [1], None, "differ in length"),
        ([gene(1), gene(2)], [disease(1)] * 2, [1, 0], [True], "differ in length"),
        ([gene(1)] * 2, [disease(1)] * 2, [1, 0], None, "duplicate gene-disease"),
        ([gene(1), gene(2)], [disease(1)] * 2, [1, 2], None, "labels must be 1 or 0"),
        ([gene(1), gene(2)], [disease(1)] * 2, [1, -1], None, "labels must be 1 or 0"),
    ])
    def test_broken_columns_are_value_errors(self, genes, diseases, labels, train,
                                             match):
        with pytest.raises(ValueError, match=match):
            AssociationDataset(genes, diseases, labels, train)

    def test_read_shares_one_entity_per_id(self, tmp_path):
        path = tmp_path / "dataset.tsv"
        path.write_text("gene\tdisease\tlabel\tpartition\n"
                        "g1\td1\tpositive\t\ng1\td2\tnegative\t\n")
        ds = read_dataset(path)
        assert ds.genes[0] is ds.genes[1] and ds.genes[0] == gene(1)
        assert ds.diseases == [disease(1), disease(2)]
        assert ds.labels.tolist() == [1, 0] and ds.train is None


class TestStratifiedSplit:
    def balanced(self, n_pos, n_neg):
        pairs = [(gene(i), disease(i), 1) for i in range(n_pos)]
        pairs += [(gene(100 + i), disease(100 + i), 0) for i in range(n_neg)]
        return dataset_of(pairs)

    def test_exact_counts_10_10(self):
        ds = stratified_split(self.balanced(10, 10), 0.7, seed=0)
        train = pairs_of(ds, ds.partition_indices("train"))
        test = pairs_of(ds, ds.partition_indices("test"))
        assert sum(p.label for p in train) == 7
        assert sum(1 - p.label for p in train) == 7
        assert sum(p.label for p in test) == 3
        assert sum(1 - p.label for p in test) == 3

    def test_round_half_up(self):
        ds = stratified_split(self.balanced(5, 5), 0.7, seed=0)
        # 0.7 * 5 = 3.5 rounds up to 4
        train = pairs_of(ds, ds.partition_indices("train"))
        assert sum(p.label for p in train) == 4

    def test_seed_determinism(self):
        a = stratified_split(self.balanced(10, 10), 0.7, seed=5)
        b = stratified_split(self.balanced(10, 10), 0.7, seed=5)
        assert np.array_equal(a.train, b.train)

    def test_partition_contract(self):
        ds = stratified_split(self.balanced(13, 9), 0.7, seed=2)
        train = set(ds.partition_indices("train").tolist())
        test = set(ds.partition_indices("test").tolist())
        assert train & test == set()
        assert train | test == set(range(len(ds)))

    @settings(max_examples=40, deadline=None)
    @given(n_pos=st.integers(2, 15), n_neg=st.integers(2, 15),
           fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_partition_indices_are_the_mask_positions(self, n_pos, n_neg,
                                                      fraction, seed):
        try:
            ds = stratified_split(self.balanced(n_pos, n_neg), fraction, seed=seed)
        except DegenerateDataError:
            return  # a fraction that leaves a partition empty
        for partition, member in (("train", True), ("test", False)):
            first = ds.partition_indices(partition)
            want = np.array([i for i, t in enumerate(ds.train.tolist())
                             if t == member], dtype=np.int64)
            assert first.dtype == np.int64 and np.array_equal(first, want)
            first[:1] = -1  # each call returns an array of its own
            assert np.array_equal(ds.partition_indices(partition), want)
        with pytest.raises(ValueError, match="unknown partition 'validation'"):
            ds.partition_indices("validation")

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), max_size=40),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_train_mask_equals_the_per_pair_oracle(self, labels, fraction, seed):
        ds = dataset_of([(gene(i), disease(i), y) for i, y in enumerate(labels)])
        try:
            want = oracle_split(labels, fraction, seed)
        except DegenerateDataError as err:
            with pytest.raises(DegenerateDataError, match=str(err)):
                stratified_split(ds, fraction, seed=seed)
            return
        y = np.array(labels)
        if any(want[y == label].all() or not want[y == label].any() for label in (0, 1)):
            with pytest.raises(DegenerateDataError, match="partition without any"):
                stratified_split(ds, fraction, seed=seed)
            return
        split = stratified_split(ds, fraction, seed=seed)
        assert split.train.dtype == bool
        assert np.array_equal(split.train, want)
        assert pairs_of(split) == pairs_of(ds)

    @pytest.mark.parametrize("fraction, side", [(0.9, "test"), (0.1, "train")])
    def test_fraction_that_empties_a_partition_is_rejected(self, fraction, side):
        # 2 members per label: round(0.9 x 2) = 2 leaves none for test,
        # round(0.1 x 2) = 0 none for train
        with pytest.raises(DegenerateDataError,
                           match=f"leaves the {side} partition without any of "
                                 "the 2 members of label 1"):
            stratified_split(self.balanced(2, 2), fraction, seed=0)

    def test_single_member_label_rejected(self):
        pairs = [(gene(1), disease(1), 1),
                 (gene(2), disease(2), 0),
                 (gene(3), disease(3), 0)]
        with pytest.raises(DegenerateDataError):
            stratified_split(dataset_of(pairs), 0.7, seed=0)

    def test_tsv_roundtrip(self, tmp_path):
        ds = stratified_split(self.balanced(6, 6), 0.7, seed=9)
        path = tmp_path / "dataset.tsv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert pairs_of(back) == pairs_of(ds)
        assert np.array_equal(back.train, ds.train)


    @pytest.mark.parametrize("column, cell", [
        (2, "positve"), (2, "Positive"), (2, "1"), (3, "trian"), (3, "TEST"),
        (3, "")])  # the rows above carry a partition
    def test_damaged_row_is_integrity_error(self, tmp_path, column, cell):
        path = tmp_path / "dataset.tsv"
        write_dataset(stratified_split(self.balanced(3, 3), 0.7, seed=9), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split("\t")
        cells[column] = cell
        lines[3] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match=rf"dataset\.tsv, line 4: .*'{cell}'"):
            read_dataset(path)

    @pytest.mark.parametrize("column", [0, 1])
    def test_empty_id_is_integrity_error(self, tmp_path, column):
        path = tmp_path / "dataset.tsv"
        write_dataset(self.balanced(2, 3), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split("\t")
        cells[column] = ""
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError,
                           match=r"dataset\.tsv, line 3: empty gene or disease id"):
            read_dataset(path)

    def test_partition_on_some_rows_only_is_integrity_error(self, tmp_path):
        path = tmp_path / "dataset.tsv"
        write_dataset(self.balanced(2, 3), path)
        lines = path.read_text().splitlines()
        lines[2] += "train"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match=r"dataset\.tsv, line 3: .*'train'"):
            read_dataset(path)

    def test_row_of_another_width_is_integrity_error(self, tmp_path):
        # the header has three cells, the reader takes four
        path = tmp_path / "dataset.tsv"
        path.write_text("gene\tdisease\tlabel\ng1\td1\tpositive\n")
        with pytest.raises(IntegrityError,
                           match=r"dataset\.tsv, line 1: expected 4 cells, found 3"):
            read_dataset(path)

    def test_unsplit_roundtrip(self, tmp_path):
        path = tmp_path / "dataset.tsv"
        write_dataset(self.balanced(2, 3), path)
        back = read_dataset(path)
        assert pairs_of(back) == pairs_of(self.balanced(2, 3))
        assert back.train is None

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(DATASET_IDS, DATASET_IDS, st.integers(0, 1),
                                   st.booleans()),
                         min_size=1, max_size=12, unique_by=lambda r: r[:2]),
           split=st.booleans())
    @example(rows=[("HLA A", "é ü", 1, True), (" g", "d\x00", 0, False)], split=True)
    def test_roundtrip_over_random_columns(self, tmp_path_factory, rows, split):
        ds = dataset_of([(EntityId(g, "gene"), EntityId(d, "disease"), y)
                         for g, d, y, _ in rows])
        if split:
            ds.train = np.array([t for *_, t in rows])
        path = tmp_path_factory.mktemp("ds") / "dataset.tsv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert pairs_of(back) == pairs_of(ds)
        assert back.labels.dtype == np.int64
        if split:
            assert back.train.dtype == bool and np.array_equal(back.train, ds.train)
        else:
            assert back.train is None


class TestWaf:
    def test_perfect(self):
        assert waf([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_hand_confusion_example(self):
        # TP=3, FP=1, FN=1, TN=5: F1(pos)=0.75, F1(neg)=5/6, WAF=0.8
        y_true = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        assert waf(y_true, y_pred) == pytest.approx(0.8, abs=1e-15)
        metrics = per_label_metrics(y_true, y_pred)
        assert metrics["positive"]["f1"] == pytest.approx(0.75)
        assert metrics["negative"]["f1"] == pytest.approx(5 / 6)

    def test_constant_prediction_on_balanced_truth(self):
        # all-positive predictions: F1(pos) = 2*0.5*1/(1.5) = 2/3, F1(neg) = 0
        got = waf([1, 1, 0, 0], [1, 1, 1, 1])
        assert got == pytest.approx(0.5 * (2 / 3), abs=1e-15)

    def test_balanced_symmetric_confusion_equals_accuracy(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            y_true = np.array([1] * n + [0] * n)
            y_pred = y_true.copy()
            flip = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            y_pred[flip] = 0
            y_pred[n + flip] = 1  # mirror the errors on the negative side
            accuracy = float(np.mean(y_true == y_pred))
            assert waf(y_true, y_pred) == pytest.approx(accuracy, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(DegenerateDataError):
            waf([], [])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                          min_size=1, max_size=40))
    def test_equals_per_label_oracle(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        assert per_label_metrics(y_true, y_pred) == oracle_per_label_metrics(y_true, y_pred)
        assert waf(y_true, y_pred) == oracle_waf(y_true, y_pred)

    def test_labels_other_than_0_and_1_rejected(self):
        with pytest.raises(ValueError, match="labels must be"):
            waf([2, 0], [1, 0])


class TestRocAuc:
    def test_perfect_separation(self):
        auc, _ = roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert auc == 1.0

    def test_all_ties(self):
        auc, _ = roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
        assert auc == 0.5

    def test_hand_example(self):
        # concordant 1, discordant 1 out of 2 pairs
        auc, _ = roc_auc([1, 0, 1], [0.9, 0.8, 0.3])
        assert auc == pytest.approx(0.5, abs=1e-15)

    def test_single_label_undefined(self):
        with pytest.raises(DegenerateDataError):
            roc_auc([1, 1], [0.2, 0.3])

    def test_matches_exhaustive_counting(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = np.round(rng.random(n), 2)  # rounding forces ties
            auc, _ = roc_auc(y, scores)
            assert auc == pytest.approx(oracle_auc(y, scores), abs=1e-12)

    def test_trapezoid_area_equals_rank_statistic(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            scores = np.round(rng.random(n), 1)
            auc, points = roc_auc(y, scores)
            fpr = [p[1] for p in points]
            tpr = [p[2] for p in points]
            area = sum((fpr[i + 1] - fpr[i]) * (tpr[i + 1] + tpr[i]) / 2.0
                       for i in range(len(points) - 1))
            assert abs(area - auc) < 1e-12

    def test_roc_monotone_in_fpr(self):
        rng = np.random.default_rng(109)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        _, points = roc_auc(y, rng.random(50))
        fpr = [p[1] for p in points]
        assert fpr == sorted(fpr)

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.tuples(st.integers(0, 1),
                                   st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
                                   | st.floats(-1e3, 1e3)),
                         min_size=2, max_size=60))
    @example(data=[(1, 0.5), (0, 0.5)])
    @example(data=[(0, 0.0), (1, -0.0), (1, 0.0), (0, 1.0)])
    def test_matches_oracles_exactly(self, data):
        y = [label for label, _ in data]
        scores = [score for _, score in data]
        if min(y) == max(y):
            y[0] = 1 - y[0]
        auc, points = roc_auc(y, scores)
        assert auc == pytest.approx(oracle_auc(y, scores), abs=1e-12)
        assert points == oracle_roc_points(y, scores)
        assert repr(points) == repr(oracle_roc_points(y, scores))  # 0.0 vs -0.0
        assert [type(p[0]) for p in points[1:]] == [float] * (len(points) - 1)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(113)
        y = rng.integers(0, 2, size=60)
        y[0], y[1] = 0, 1
        scores = rng.random(60)
        base, _ = roc_auc(y, scores)
        warped, _ = roc_auc(y, np.exp(3.0 * scores) + 7.0)
        assert warped == pytest.approx(base, abs=1e-12)


#: scores on the 0.01 grid, where a score ties a threshold
GRID_SCORES = st.integers(0, 100).map(lambda i: i / 100.0)


class TestThresholdSweep:
    def test_exactly_101_thresholds(self):
        table = threshold_waf_table([0.3, 0.7], [0, 1])
        assert len(table) == 101
        assert table[0][0] == 0.0
        assert table[-1][0] == 1.0

    def test_degenerate_instance(self):
        scores = [1.0, 1.0, 0.0, 0.0]
        labels = [1, 1, 0, 0]
        best_t, best_w = threshold_sweep(scores, labels)
        assert best_w == 1.0
        assert best_t == 0.0  # smallest threshold wins the tie

    def test_all_equal_scores_returns_zero_threshold(self):
        best_t, _ = threshold_sweep([0.4, 0.4, 0.4], [1, 0, 1])
        assert best_t == 0.0

    def test_equals_exhaustive_maximization(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            y = rng.integers(0, 2, size=n)
            scores = rng.random(n)
            best_t, best_w = threshold_sweep(scores, y)
            table = threshold_waf_table(scores, y)
            assert best_w == max(w for _, w in table)
            assert best_t == min(t for t, w in table if w == best_w)

    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep([1.2], [1])


    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.tuples(st.integers(0, 1), GRID_SCORES | st.floats(0.0, 1.0)),
                         min_size=1, max_size=60))
    @example(data=[(1, 0.3)])
    @example(data=[(0, 0.57)] * 4)
    @example(data=[(1, 0.57), (0, 0.57), (1, 0.58), (0, 0.0), (1, 1.0)])
    def test_table_equals_the_per_threshold_oracle(self, data):
        y = [label for label, _ in data]
        scores = [score for _, score in data]
        assert threshold_waf_table(scores, y) == oracle_threshold_waf_table(scores, y)

    def test_table_rejects_empty_and_out_of_range_input(self):
        with pytest.raises(DegenerateDataError):
            threshold_waf_table([], [])
        for scores in ([0.5, -0.01], [0.5, 1.01], [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"within \[0, 1\]"):
                threshold_waf_table(scores, [1, 0])


class PerfectModel:
    def predict_proba(self, X):
        pos = (X[:, 0] > 0).astype(float)
        return np.column_stack([1 - pos, pos])


class TestEvaluateRun:
    def split_dataset(self, n=20):
        pairs = [(gene(i), disease(i), 1) for i in range(n)]
        pairs += [(gene(100 + i), disease(100 + i), 0) for i in range(n)]
        return stratified_split(dataset_of(pairs), 0.7, seed=1)

    def test_perfect_classifier(self):
        ds = self.split_dataset()
        features = np.array([[1.0] if p.label else [-1.0] for p in pairs_of(ds)])
        report = evaluate_run(ds, "classifier", model=PerfectModel(),
                              features=features)
        assert report.waf == 1.0
        assert report.auc == 1.0
        assert report.threshold is None

    def test_coin_flip_scores_auc_near_half(self):
        n = 5000
        pairs = [(gene(i), disease(i), 1) for i in range(n)]
        pairs += [(gene(n + i), disease(n + i), 0) for i in range(n)]
        ds = stratified_split(dataset_of(pairs), 0.7, seed=3)
        rng = np.random.default_rng(42)
        report = evaluate_run(ds, "score_threshold", scores=rng.random(2 * n))
        assert abs(report.auc - 0.5) < 0.03

    def test_score_mode_reports_chosen_threshold(self):
        ds = self.split_dataset()
        scores = np.array([1.0 if p.label else 0.0 for p in pairs_of(ds)])
        report = evaluate_run(ds, "score_threshold", scores=scores)
        assert report.waf == 1.0
        assert report.threshold == 0.0  # smallest threshold wins the tie

    def test_missing_split_rejected(self):
        pairs = [(gene(1), disease(1), 1),
                 (gene(2), disease(2), 0)]
        with pytest.raises(DegenerateDataError):
            evaluate_run(dataset_of(pairs), "score_threshold",
                         scores=[0.5, 0.5])

    def test_argument_validation(self):
        ds = self.split_dataset()
        with pytest.raises(ValueError, match="model"):
            evaluate_run(ds, "classifier")
        with pytest.raises(ValueError, match="scores"):
            evaluate_run(ds, "score_threshold")
        with pytest.raises(ValueError, match="one score per"):
            evaluate_run(ds, "score_threshold", scores=[0.5])
        with pytest.raises(ValueError, match="mode"):
            evaluate_run(ds, "bootstrap", scores=[0.5] * 40)

    def test_report_roundtrip_bit_exact(self, tmp_path):
        ds = self.split_dataset()
        rng = np.random.default_rng(11)
        report = evaluate_run(ds, "score_threshold", scores=rng.random(40),
                              config={"measure": "BMA_seco"}, seed=11)
        first, second = tmp_path / "report.json", tmp_path / "again.json"
        report.write(first)
        read_report(first).write(second)
        assert second.read_bytes() == first.read_bytes()

    def test_report_json_leaves_the_curve_to_the_tsv(self, tmp_path):
        ds = self.split_dataset()
        report = evaluate_run(ds, "score_threshold",
                              scores=np.random.default_rng(17).random(40))
        report.write(tmp_path / "report.json")
        assert set(read_json(tmp_path / "report.json")) == {
            "mode", "config", "seed", "threshold", "waf", "auc", "per_label"}
        assert report.roc

    def test_each_mode_calls_roc_and_sweep_through_the_module(self, monkeypatch):
        # the benchmark times both by wrapping these module attributes
        calls = []
        for name in ("roc_auc", "threshold_sweep"):
            original = getattr(gdapred.evaluation, name)
            monkeypatch.setattr(gdapred.evaluation, name,
                                lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        ds = self.split_dataset()
        evaluate_run(ds, "score_threshold", scores=np.linspace(0.0, 1.0, 40))
        assert sorted(calls) == ["roc_auc", "threshold_sweep"]
        calls.clear()
        features = np.array([[1.0] if p.label else [-1.0] for p in pairs_of(ds)])
        evaluate_run(ds, "classifier", model=PerfectModel(), features=features)
        assert calls == ["roc_auc"]

    def test_roc_tsv_export(self, tmp_path):
        ds = self.split_dataset()
        rng = np.random.default_rng(13)
        report = evaluate_run(ds, "score_threshold", scores=rng.random(40))
        path = tmp_path / "roc.tsv"
        write_roc_tsv(report.roc, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold\tfpr\ttpr"
        assert lines[1].startswith("inf\t")
        assert len(lines) == len(report.roc) + 1
