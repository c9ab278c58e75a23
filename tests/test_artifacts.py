"""The artifact dialect: exact round trips, typed errors for damaged
files, and one module that opens artifacts."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gdapred
from gdapred.artifacts import read_json, read_tsv, write_json, write_tsv
from gdapred.errors import IntegrityError
from gdapred.kg import read_triples
from gdapred.kge import EmbeddingTable, read_embeddings, write_embeddings
from gdapred.ontology import EntityId
from gdapred.pairing import PairFeatures, read_pair_features, write_pair_features
from gdapred.pipeline import read_annotation_tsv

# any non-empty id a tab-separated source can carry: spaces and non-ASCII
# included; "\r" ends a line in text mode just as "\n" does
ids = st.text(st.characters(blacklist_categories=("Cs",),
                            blacklist_characters="\t\n\r"), min_size=1, max_size=12)
floats = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]


def same_bits(a, b) -> bool:
    as_bytes = [np.asarray(x, dtype=np.float64).tobytes() for x in (a, b)]
    return as_bytes[0] == as_bytes[1]


@st.composite
def id_float_tables(draw, unique_ids=False):
    width = draw(st.integers(1, 4))
    row_ids = draw(st.lists(ids, max_size=6, unique=unique_ids))
    rows = [draw(st.lists(floats, min_size=width, max_size=width)) for _ in row_ids]
    return row_ids, rows, width


class TestTsv:
    @settings(max_examples=60, deadline=None)
    @given(table=id_float_tables())
    @example(table=(["HLA A", "génè", "1.5"], [[v] for v in EDGE_FLOATS[:3]], 1))
    @example(table=(["x"], [EDGE_FLOATS], len(EDGE_FLOATS)))
    def test_roundtrip_exact(self, tmp_path_factory, table):
        row_ids, rows, width = table
        path = tmp_path_factory.mktemp("tsv") / "t.tsv"
        header = ["id", *(f"v{i}" for i in range(width))]
        write_tsv(path, header, ([i, *r] for i, r in zip(row_ids, rows)))
        back = list(read_tsv(path))
        assert back[0] == header
        assert [r[0] for r in back[1:]] == row_ids
        assert same_bits([list(map(float, r[1:])) for r in back[1:]],
                         np.reshape(rows, (len(rows), width)))

    def test_cells_are_repr_floats_and_str_others(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, ("a", "b", "c", "d"),
                  [(np.float64(0.1), 2, None, "x y"), (1.0, True, -0.0, "")])
        assert path.read_text(encoding="utf-8") == (
            "a\tb\tc\td\n0.1\t2\tNone\tx y\n1.0\tTrue\t-0.0\t\n")

    def test_headerless_table(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, None, [("s", "r", "o")])
        assert path.read_text() == "s\tr\to\n"
        assert list(read_tsv(path, width=3, header=False)) == [["s", "r", "o"]]

    @pytest.mark.parametrize("text, line", [
        ("a\tb\n1\t2\n3\n", 3),  # a short row
        ("a\tb\n1\t2\t3\n", 2),  # a long row
        ("a\tb\n\n", 2),  # a blank line
    ])
    def test_wrong_width_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(IntegrityError, match=rf"bad\.tsv, line {line}: expected 2"):
            list(read_tsv(path))

    def test_width_from_header(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("1\t2\nn\t0.5\t0.25\nm\t1.0\n")
        rows = read_tsv(path, width=lambda first: int(first[1]) + 1)
        assert next(rows) == ["1", "2"]
        assert next(rows) == ["n", "0.5", "0.25"]
        with pytest.raises(IntegrityError, match="line 3: expected 3 cells, found 2"):
            next(rows)


class TestJson:
    def test_dialect(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"b": (1, 2), "a": {"y": 0.1, "x": None}})
        assert path.read_text() == (
            '{\n  "a": {\n    "x": null,\n    "y": 0.1\n  },\n'
            '  "b": [\n    1,\n    2\n  ]\n}\n')
        assert read_json(path) == {"a": {"x": None, "y": 0.1}, "b": [1, 2]}

    def test_numpy_scalars_become_numbers(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"n": np.int64(3), "f": np.float32(0.5), "t": (np.int64(1),)})
        assert read_json(path) == {"f": 0.5, "n": 3, "t": [1]}

    def test_other_objects_still_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="set"):
            write_json(tmp_path / "d.json", {"s": {1}})


class TestTableArtifacts:
    @settings(max_examples=40, deadline=None)
    @given(table=id_float_tables(unique_ids=True))
    @example(table=(["GENE:HLA A", "DISEASE:x"], [EDGE_FLOATS[:2], EDGE_FLOATS[2:4]], 2))
    def test_embeddings_roundtrip_exact(self, tmp_path_factory, table):
        nodes, rows, dim = table
        original = EmbeddingTable(dim, {n: np.array(r) for n, r in zip(nodes, rows)},
                                  "walk", 3)
        path = tmp_path_factory.mktemp("emb") / "e.txt"
        write_embeddings(original, path)
        back = read_embeddings(path)
        assert back.dimension == dim
        assert list(back.vectors) == sorted(nodes)
        for node in nodes:
            assert same_bits(back.vectors[node], original.vectors[node])

    @settings(max_examples=40, deadline=None)
    @given(table=id_float_tables(), diseases=st.lists(ids, min_size=6, max_size=6))
    def test_pair_features_roundtrip_exact(self, tmp_path_factory, table, diseases):
        genes, rows, width = table
        assume(genes)  # a features file always has rows
        pairs = [(EntityId(g, "gene"), EntityId(d, "disease"))
                 for g, d in zip(genes, diseases)]
        original = PairFeatures(np.array(rows, dtype=np.float64), pairs)
        path = tmp_path_factory.mktemp("pf") / "f.tsv"
        write_pair_features(original, path)
        back = read_pair_features(path)
        assert back.pairs == pairs
        assert same_bits(back.rows, original.rows)

    def test_embeddings_truncated_is_integrity_error(self, tmp_path):
        table = EmbeddingTable(2, {"N:a": np.zeros(2), "N:b": np.ones(2)}, "walk", 0)
        path = tmp_path / "e.txt"
        write_embeddings(table, path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        with pytest.raises(IntegrityError, match=r"e\.txt, line 1: expected 2 rows"):
            read_embeddings(path)

    def test_embeddings_short_row_is_integrity_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1\t2\nN:a\t0.5\n")
        with pytest.raises(IntegrityError, match=r"e\.txt, line 2: expected 3 cells"):
            read_embeddings(path)

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-inf"])
    def test_bad_float_cell_is_integrity_error(self, tmp_path, cell):
        embeddings = tmp_path / "e.txt"
        embeddings.write_text(f"2\t2\nN:a\t0.5\t1.0\nN:b\t{cell}\t1.0\n")
        with pytest.raises(IntegrityError, match=r"e\.txt, line 3: "):
            read_embeddings(embeddings)
        features = tmp_path / "f.tsv"
        features.write_text("gene\tdisease\tf0\tf1\n"
                            "g1\td1\t0.5\t1.0\ng2\td2\t0.5\t1.0\n"
                            f"g3\td3\t1.0\t{cell}\n")
        with pytest.raises(IntegrityError, match=r"f\.tsv, line 4: "):
            read_pair_features(features)

    @pytest.mark.parametrize("row", ["\td1\t0.5", "g1\t\t0.5"])
    def test_pair_features_empty_id_is_integrity_error(self, tmp_path, row):
        path = tmp_path / "f.tsv"
        path.write_text(f"gene\tdisease\tf0\ng0\td0\t1.0\n{row}\n")
        with pytest.raises(IntegrityError,
                           match=r"f\.tsv, line 3: empty gene or disease id"):
            read_pair_features(path)

    def test_annotations_empty_entity_is_integrity_error(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("entity\tterm\ng1\tHP:0000001\n\tHP:0000002\n")
        with pytest.raises(IntegrityError, match=r"a\.tsv, line 3: empty entity id"):
            read_annotation_tsv(path, "gene")

    @pytest.mark.parametrize("row", ["HP:2\tsubClassOf\t", "\tsubClassOf\tHP:1",
                                     "HP:2\t\tHP:1", "GENE:\thasAnnotation\tHP:1"])
    def test_kg_empty_cell_is_integrity_error(self, tmp_path, row):
        path = tmp_path / "kg.tsv"
        path.write_text(f"HP:2\tsubClassOf\tHP:1\n{row}\n")
        with pytest.raises(IntegrityError, match=r"kg\.tsv, line 2: a cell is empty"):
            read_triples(path, "HP")


#: (module, function, call) triples allowed to touch files directly
ALLOWED = {
    ("pipeline.py", "file_digest", "open"),  # hashes bytes
    ("pipeline.py", "_parse_input", "read_text"),  # a configured input
    ("pipeline.py", "cmd_report", "open"),  # report.md is Markdown, not a table
}
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


class _FileCalls(ast.NodeVisitor):
    def __init__(self):
        self.functions = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id == "open":
            name = "open"
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "json" \
                    and func.attr in ("dump", "load"):
                name = f"json.{func.attr}"
            elif func.attr in FILE_METHODS:
                name = func.attr
        if name is not None:
            self.found.append((self.functions[-1], name, node.lineno))
        self.generic_visit(node)


def test_only_the_artifacts_module_opens_files():
    package = Path(gdapred.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "artifacts.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.append((path.name, "<module>", "from json import", node.lineno))
        visitor = _FileCalls()
        visitor.visit(tree)
        offenders += [(path.name, function, call, line)
                      for function, call, line in visitor.found
                      if (path.name, function, call) not in ALLOWED]
    assert offenders == []


def test_the_package_imports_numpy_and_the_standard_library_only():
    package = Path(gdapred.__file__).parent
    foreign = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name, node.lineno) for name in names
                        if name.partition(".")[0] not in {*sys.stdlib_module_names, "numpy"}]
    assert foreign == []
