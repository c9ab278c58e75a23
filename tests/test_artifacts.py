"""The artifact dialect: exact round trips, typed errors for damaged
files, and one module that opens artifacts."""

import ast
import base64
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gdapred
from gdapred.artifacts import (
    decode_array,
    read_json,
    read_matrix,
    read_tsv,
    write_json,
    write_matrix,
    write_tsv,
)
from gdapred.errors import IntegrityError
from gdapred.kg import read_triples
from gdapred.kge import EmbeddingTable, read_embeddings, write_embeddings
from gdapred.pairing import read_pair_features, write_pair_features
from gdapred.pipeline import read_annotation_tsv

from helpers import by_id, save_arrays, utf8

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
        path.write_text("id\ta\tb\nn\t0.5\t0.25\nm\t1.0\n")
        rows = read_tsv(path)
        assert next(rows) == ["id", "a", "b"]
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

    def test_one_line_dialect(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"b": (1, 2), "a": {"y": 0.1, "x": None}}, one_line=True)
        assert path.read_text() == '{"a": {"x": null, "y": 0.1}, "b": [1, 2]}\n'

    def test_numpy_scalars_become_numbers(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"n": np.int64(3), "f": np.float32(0.5), "t": (np.int64(1),)})
        assert read_json(path) == {"f": 0.5, "n": 3, "t": [1]}

    def test_other_objects_still_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="set"):
            write_json(tmp_path / "d.json", {"s": {1}})
        with pytest.raises(TypeError, match="ndarray"):
            write_json(tmp_path / "d.json", {"s": np.arange(3)})

    @settings(max_examples=80, deadline=None)
    @given(array=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                         min_side=0, max_side=5),
                            elements=floats))
    @example(array=np.array(EDGE_FLOATS))
    @example(array=np.array([[-0.0, 5e-324], [2.2250738585072014e-308, -5e-324]]))
    @example(array=np.zeros((3, 0)))
    @example(array=np.zeros((2, 0, 0)))
    @example(array=np.array(-0.0))
    def test_float64_arrays_roundtrip_exact(self, tmp_path_factory, array):
        path = tmp_path_factory.mktemp("json") / "d.json"
        for one_line in (True, False):
            write_json(path, {"a": array, "t": array.T}, one_line=one_line)
            back = read_json(path)
            for name, want in (("a", array), ("t", array.T)):
                got = decode_array(back[name], name)
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_array_is_its_little_endian_bytes_in_base64(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"a": np.array([[1.0, -0.0]])}, one_line=True)
        data = base64.b64encode(struct.pack("<2d", 1.0, -0.0)).decode()
        assert path.read_text() == (
            f'{{"a": {{"float64": "{data}", "shape": [1, 2]}}}}\n')

    @pytest.mark.parametrize("value, match", [
        ([1.0, 2.0], "x is not an encoded float64 array"),
        ({"float64": "", "shape": [0], "dtype": "<f8"},
         "x is not an encoded float64 array"),
        ({"float64": "", "shape": 0}, "x has the shape 0, not a list"),
        ({"float64": "", "shape": [True]}, r"x has the shape \[True\], not a list"),
        ({"float64": "", "shape": [1.0]}, r"x has the shape \[1.0\], not a list"),
        ({"float64": "", "shape": [-1]}, r"x has the shape \[-1\], not a list"),
        ({"float64": 7, "shape": [0]}, "x is not valid base64"),
        ({"float64": "AAAAAAAA8D8", "shape": [1]}, "x is not valid base64"),
        ({"float64": "AAAAAAAA8D8=\n", "shape": [1]}, "x is not valid base64"),
        ({"float64": "AAAAAAAA8D\u00e9=", "shape": [1]}, "x is not valid base64"),
    ], ids=["list", "extra-key", "shape-not-list", "bool-side", "float-side",
            "negative-side", "not-text", "no-padding", "newline", "not-ascii"])
    def test_damaged_array_is_value_error(self, value, match):
        with pytest.raises(ValueError, match=match):
            decode_array(value, "x")


class TestTableArtifacts:
    @settings(max_examples=40, deadline=None)
    @given(table=id_float_tables(unique_ids=True))
    @example(table=(["GENE:HLA A", "DISEASE:x"], [EDGE_FLOATS[:2], EDGE_FLOATS[2:4]], 2))
    @example(table=(["N:a\x00", "\x00", "é"], [[1.0], [2.0], [3.0]], 1))  # NULs kept
    def test_embeddings_roundtrip_exact(self, tmp_path_factory, table):
        nodes, rows, dim = table
        order = sorted(range(len(nodes)), key=nodes.__getitem__)
        original = EmbeddingTable([nodes[i] for i in order],
                                  np.reshape([rows[i] for i in order], (len(nodes), dim)),
                                  "walk")
        path = tmp_path_factory.mktemp("emb") / "e.npy"
        write_embeddings(original, path)
        back = read_embeddings(path)
        assert back.dimension == dim
        assert back.nodes == sorted(nodes)
        back_vectors = by_id(back.nodes, back.matrix)
        original_vectors = by_id(original.nodes, original.matrix)
        for node in nodes:
            assert same_bits(back_vectors[node], original_vectors[node])

    @settings(max_examples=40, deadline=None)
    @given(table=id_float_tables(), diseases=st.lists(ids, min_size=6, max_size=6))
    @example(table=(["g\x00"], [[0.5]], 1), diseases=["d\x00"] * 6)
    def test_pair_features_roundtrip_exact(self, tmp_path_factory, table, diseases):
        genes, rows, width = table
        assume(genes)  # a features file always has rows
        pairs = list(zip(genes, diseases))
        original = np.array(rows, dtype=np.float64)
        path = tmp_path_factory.mktemp("pf") / "f.npy"
        write_pair_features(pairs, original, path)
        ids, back = read_pair_features(path)
        assert ids == pairs
        assert same_bits(back, original)

    def test_matrix_file_layout(self, tmp_path):
        # two np.save arrays: the float64 matrix, then the UTF-8 ids as uint8
        path = tmp_path / "m.npy"
        write_matrix(path, ["g1\td1", "g2\tdé"], [[0.5, -0.0], [5e-324, 1.0]])
        with open(path, "rb") as fh:
            matrix, ids = np.load(fh), np.load(fh)
            assert fh.read() == b""
        assert matrix.dtype == np.float64 and matrix.shape == (2, 2)
        assert ids.dtype == np.uint8 and ids.tobytes() == "g1\td1\ng2\tdé".encode()
        assert read_matrix(path, cells=2)[0] == [("g1", "d1"), ("g2", "dé")]
        write_matrix(path, [], np.empty((0, 3)))
        ids, matrix = read_matrix(path)
        assert ids == [] and matrix.shape == (0, 3)

    def test_embeddings_truncated_is_integrity_error(self, tmp_path):
        table = EmbeddingTable(["N:a", "N:b"], [[0.0, 0.0], [1.0, 1.0]], "walk")
        path = tmp_path / "e.npy"
        write_embeddings(table, path)
        data = path.read_bytes()
        # inside the first header, the matrix, the second header and the ids
        for size in (20, 140, 180, len(data) - 1):
            path.write_bytes(data[:size])
            with pytest.raises(IntegrityError, match=r"e\.npy: not a matrix file"):
                read_embeddings(path)

    def test_embeddings_short_row_is_integrity_error(self, tmp_path):
        # a row of one vector only: the matrix is 1-D
        path = tmp_path / "e.npy"
        save_arrays(path, np.array([0.5]), utf8("N:a"))
        with pytest.raises(IntegrityError, match=r"e\.npy: expected a 2-D float64 matrix"):
            read_embeddings(path)

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-inf"])
    def test_bad_float_cell_is_integrity_error(self, tmp_path, cell):
        # a text cell makes the whole matrix one of strings; the others are
        # floats that are not finite
        value = cell if cell in ("abc", "") else float(cell)
        embeddings = tmp_path / "e.npy"
        save_arrays(embeddings, np.array([[0.5, 1.0], [value, 1.0]]), utf8("N:a\nN:b"))
        match = "expected a 2-D float64 matrix" if isinstance(value, str) \
            else "row 2: values must be finite"
        with pytest.raises(IntegrityError, match=rf"e\.npy[:,] {match}"):
            read_embeddings(embeddings)
        features = tmp_path / "f.npy"
        save_arrays(features, np.array([[0.5, 1.0], [0.5, 1.0], [1.0, value]]),
                    utf8("g1\td1\ng2\td2\ng3\td3"))
        match = match.replace("row 2", "row 3")
        with pytest.raises(IntegrityError, match=rf"f\.npy[:,] {match}"):
            read_pair_features(features)

    @pytest.mark.parametrize("row", ["\td1\t0.5", "g1\t\t0.5"])
    def test_pair_features_empty_id_is_integrity_error(self, tmp_path, row):
        gene, disease, value = row.split("\t")
        path = tmp_path / "f.npy"
        write_matrix(path, ["g0\td0", f"{gene}\t{disease}"], [[1.0], [float(value)]])
        with pytest.raises(IntegrityError,
                           match=r"f\.npy, row 2: expected 2 non-empty id cells"):
            read_pair_features(path)

    @pytest.mark.parametrize("arrays, match", [
        ((), "not a matrix file: No data left in file"),
        ((np.ones((1, 1)),), "not a matrix file: No data left in file"),
        ((np.ones((1, 1), dtype=np.float32), utf8("a")), "expected a 2-D float64"),
        ((np.ones((1, 1, 1)), utf8("a")), "expected a 2-D float64"),
        ((np.ones((1, 1)), np.arange(1)), "expected a 2-D float64 matrix and 1-D uint8"),
        ((np.ones((1, 1)), np.frombuffer(b"\xff", np.uint8)), "the ids are not UTF-8"),
        ((np.ones((2, 1)), utf8("a")), "1 ids for 2 rows"),
        ((np.ones((1, 1)), utf8("a\nb")), "2 ids for 1 rows"),
        ((np.ones((1, 1)), utf8("")), "row 1: expected 1 non-empty id cells"),
        ((np.ones((2, 1)), utf8("a\n")), "row 2: expected 1 non-empty id cells"),
        ((np.ones((1, 1)), utf8("a\tb")), "row 1: expected 1 non-empty id cells"),
        ((np.array([[1.0], [-np.inf]]), utf8("a\nb")), "row 2: values must be finite"),
        ((np.ones((1, 1)), utf8("a"), utf8("b")), "bytes follow the ids"),
    ], ids=["empty", "no-ids", "float32", "3-D", "int-ids", "latin-1-ids",
            "fewer-ids", "more-ids", "empty-id", "empty-last-id", "tab-in-node",
            "non-finite", "trailing"])
    def test_damaged_matrix_is_integrity_error(self, tmp_path, arrays, match):
        path = tmp_path / "m.npy"
        save_arrays(path, *arrays)
        with pytest.raises(IntegrityError, match=rf"m\.npy[:,] {match}"):
            read_matrix(path)

    @pytest.mark.parametrize("pair_id", ["g", "g\td\tx"])
    def test_pair_id_needs_exactly_one_tab(self, tmp_path, pair_id):
        path = tmp_path / "f.npy"
        write_matrix(path, [pair_id], [[1.0]])
        with pytest.raises(IntegrityError,
                           match=r"f\.npy, row 1: expected 2 non-empty id cells"):
            read_pair_features(path)

    def test_foreign_files_are_integrity_errors(self, tmp_path):
        path = tmp_path / "m.npy"
        # a text table where the matrix belongs, an object array (read with
        # allow_pickle=False) and a broken zip archive: each not a matrix file
        path.write_text("gene\tdisease\tf0\ng1\td1\t0.5\n")
        with pytest.raises(IntegrityError, match=r"m\.npy: not a matrix file"):
            read_matrix(path)
        with open(path, "wb") as fh:
            np.save(fh, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(IntegrityError, match=r"m\.npy: not a matrix file"):
            read_matrix(path)
        path.write_bytes(b"PK\x03\x04" + bytes(40))
        with pytest.raises(IntegrityError, match=r"m\.npy: not a matrix file"):
            read_matrix(path)

    def test_repeated_embedding_node_is_integrity_error(self, tmp_path):
        path = tmp_path / "e.npy"
        write_matrix(path, ["N:a", "N:b", "N:a"], np.ones((3, 2)))
        with pytest.raises(IntegrityError, match=r"e\.npy: node 'N:a' has more than one row"):
            read_embeddings(path)

    def test_annotations_empty_entity_is_integrity_error(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("entity\tterm\ng1\tHP:0000001\n\tHP:0000002\n")
        with pytest.raises(IntegrityError, match=r"a\.tsv, line 3: empty entity id"):
            read_annotation_tsv(path, "gene")

    def test_annotations_empty_term_is_integrity_error(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("entity\tterm\ng1\tHP:0000001\ng2\t\n")
        with pytest.raises(IntegrityError, match=r"a\.tsv, line 3: empty entity id or term"):
            read_annotation_tsv(path, "gene")

    def test_annotations_row_of_another_width_is_integrity_error(self, tmp_path):
        # the header has three cells, the reader takes two
        path = tmp_path / "a.tsv"
        path.write_text("entity\tterm\tnote\ng1\tHP:0000001\tx\n")
        with pytest.raises(IntegrityError,
                           match=r"a\.tsv, line 1: expected 2 cells, found 3"):
            read_annotation_tsv(path, "gene")

    @pytest.mark.parametrize("name, read, data", [
        ("t.tsv", lambda p: list(read_tsv(p)), b"\xff\xfea\tb\n"),
        ("t.tsv", lambda p: list(read_tsv(p)), b"a\tb\nc\t\xff\n"),
        ("d.json", read_json, b'{"a": "\xff"}\n'),
        ("d.json", read_json, b""),
        ("d.json", read_json, b'{"a": [1, '),
    ], ids=["tsv-header", "tsv-row", "json-bytes", "json-empty", "json-truncated"])
    def test_undecodable_file_is_integrity_error(self, tmp_path, name, read, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(IntegrityError, match=rf"{name}: not UTF-8"):
            read(path)

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
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "tofile"}
#: numpy functions that read or write files, called as ``np.<name>``
NUMPY_FILE_CALLS = {"save", "load", "savez", "savez_compressed", "savetxt",
                    "loadtxt", "genfromtxt", "fromfile", "memmap",
                    # reads an array's raw bytes: the dialect's binary arrays
                    "frombuffer"}
#: standard-library modules of the dialect's binary encodings
DIALECT_MODULES = {"base64", "binascii"}


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
            module = func.value.id if isinstance(func.value, ast.Name) else None
            if module == "json" and func.attr in ("dump", "load"):
                name = f"json.{func.attr}"
            elif module in ("np", "numpy") and func.attr in NUMPY_FILE_CALLS:
                name = f"np.{func.attr}"
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
            if isinstance(node, ast.Import):
                offenders += [(path.name, "<module>", f"import {alias.name}", node.lineno)
                              for alias in node.names if alias.name in DIALECT_MODULES]
            if isinstance(node, ast.ImportFrom) and node.module in DIALECT_MODULES:
                offenders.append((path.name, "<module>", f"from {node.module} import",
                                  node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                    and {a.name for a in node.names} & NUMPY_FILE_CALLS:
                offenders.append((path.name, "<module>", "from numpy import", node.lineno))
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
