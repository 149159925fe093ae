"""The stage artifacts' readers and writers against the hand-written code
they replaced, kept here as oracles: the same bytes, records and arrays;
and what each reader refuses in a corrupted copy of the toy run."""

import json
import re
import shutil
import struct
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathns.corpus import identifier_key, load_corpus
from mathns.evaluate import load_labels
from mathns.extraction import METHODS, Relation, read_relations, write_relations
from mathns.idspace import DocMatrix, Vocabulary, _CSR
from mathns.namespaces import HierarchyAssignment
from mathns.pipeline import PipelineConfig, run_pipeline
from mathns.pipeline import stage_cluster, stage_evaluate, stage_namespaces, stage_vectorize

from conftest import TOY_CONFIG, TOY_CORPUS


def old_write_relations(path, relations) -> None:
    lines = []
    for rel in sorted(relations, key=lambda r: (r.doc_id, r.identifier, r.definition)):
        base, _, subscript = rel.identifier.partition("_")
        lines.append(
            json.dumps(
                {
                    "doc_id": rel.doc_id,
                    "identifier": base,
                    "subscript": subscript or None,
                    "definition": rel.definition,
                    "score": rel.score,
                    "method": rel.method,
                },
                sort_keys=True,
            )
        )
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def old_read_relations(path) -> list[Relation]:
    relations = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        subscript = rec.get("subscript")
        ident = rec["identifier"] + (f"_{subscript}" if subscript else "")
        relations.append(
            Relation(
                identifier=ident,
                definition=rec["definition"],
                score=rec["score"],
                method=rec["method"],
                doc_id=rec["doc_id"],
            )
        )
    return relations


def old_save_matrix(out_dir, dm: DocMatrix) -> None:
    rows, cols = dm.matrix.coords()
    order = np.lexsort((cols, rows))
    lines = ["%%MatrixMarket matrix coordinate real general"]
    lines.append(f"{dm.shape[0]} {dm.shape[1]} {dm.matrix.nnz}")
    for k in order:
        lines.append(f"{rows[k] + 1} {cols[k] + 1} {float(dm.matrix.data[k])!r}")
    (out_dir / "matrix.mtx").write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {
        "doc_ids": list(dm.doc_ids),
        "dims": list(dm.vocab.dims),
        "df": [int(x) for x in dm.vocab.df],
        "n_docs": dm.vocab.n_docs,
        "mode": dm.vocab.mode,
        "weighting": dm.weighting,
        "row_norm": dm.row_norm,
        "empty_docs": list(dm.empty_docs),
    }
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    (out_dir / "matrix_meta.json").write_text(text, encoding="utf-8")


def old_read_matrix(out_dir) -> DocMatrix:
    meta = json.loads((out_dir / "matrix_meta.json").read_text(encoding="utf-8"))
    lines = (out_dir / "matrix.mtx").read_text(encoding="utf-8").splitlines()
    m, n, nnz = (int(x) for x in lines[1].split())
    rows, cols, vals = [], [], []
    for line in lines[2 : 2 + nnz]:
        i, j, v = line.split()
        rows.append(int(i) - 1)
        cols.append(int(j) - 1)
        vals.append(float(v))
    matrix = _CSR.from_coo(rows, cols, np.array(vals), (m, n))
    vocab = Vocabulary(
        dims=tuple(meta["dims"]),
        mode=meta["mode"],
        df=np.array(meta["df"], dtype=np.int64),
        n_docs=meta["n_docs"],
    )
    return DocMatrix(
        doc_ids=tuple(meta["doc_ids"]),
        vocab=vocab,
        matrix=matrix,
        row_norm=meta["row_norm"],
        weighting=meta["weighting"],
        empty_docs=tuple(meta["empty_docs"]),
    )


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


SCORES = st.one_of(
    st.sampled_from([5e-324, 0.1 + 0.2, 1e308, -0.0, 0.0, 1.0, 0.4, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SYMBOLS = st.sampled_from(["x", "E", "sigma", "Gamma", "nabla", "ω"])


@st.composite
def relation_lists(draw):
    doc_ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4))
    relations = []
    for _ in range(draw(st.integers(0, 12))):
        # neither part of a key holds "_", and a subscript is never empty
        subscript = draw(st.one_of(
            st.none(),
            st.sampled_from(["1", "i,j", "max", "α"]),
            st.text(st.characters(exclude_characters="_"), min_size=1, max_size=3),
        ))
        relations.append(Relation(
            identifier=identifier_key(draw(SYMBOLS), subscript),
            definition=draw(st.text(max_size=20)),  # any Unicode, controls and line breaks too
            score=draw(SCORES),
            method=draw(st.sampled_from(METHODS)),
            doc_id=draw(st.sampled_from(doc_ids)),
        ))
    return relations


class TestRelationsFile:
    @given(relation_lists())
    def test_same_bytes_and_records_as_the_old_code(self, tmp_path_factory, relations):
        # the extract stage hands the writer its relations in the file's order
        relations = sorted(relations, key=lambda r: (r.doc_id, r.identifier, r.definition))
        out = tmp_path_factory.mktemp("rel")
        write_relations(out, relations)
        old = out / "old.jsonl"
        old_write_relations(old, relations)
        path = out / "relations.jsonl"
        assert path.read_bytes() == old.read_bytes()
        got, want = read_relations(out), old_read_relations(path)
        assert got == want
        assert [_bits(r.score) for r in got] == [_bits(r.score) for r in want]
        assert [_bits(r.score) for r in got] == [_bits(r.score) for r in relations]

    @given(relation_lists())
    def test_written_in_the_order_given(self, tmp_path_factory, relations):
        out = tmp_path_factory.mktemp("rel")
        write_relations(out, iter(relations[::-1]))
        got = read_relations(out)
        assert got == relations[::-1]
        assert [_bits(r.score) for r in got] == [_bits(r.score) for r in relations[::-1]]

    def test_a_subscripted_key_is_written_as_two_fields(self, tmp_path):
        relations = [
            Relation("sigma", "variance", 0.25, METHODS[0], doc_id="d"),
            Relation("sigma_d", "standard deviation", 0.5, METHODS[0], doc_id="d"),
        ]
        write_relations(tmp_path, relations)
        lines = (tmp_path / "relations.jsonl").read_text().splitlines()
        fields = [(rec["identifier"], rec["subscript"]) for rec in map(json.loads, lines)]
        assert fields == [("sigma", None), ("sigma", "d")]
        assert read_relations(tmp_path) == relations

    @pytest.mark.parametrize("cut, needle", [
        (lambda line: line[:30], "Unterminated string"),
        (lambda line: line.replace('"method"', '"methods"'), "'method'"),
        (lambda line: "[]", "list indices"),
    ])
    def test_a_bad_record_names_the_file_and_line(self, tmp_path, cut, needle):
        relations = [Relation(f"x_{i}", "mass", 0.5, METHODS[0], doc_id="d") for i in range(3)]
        write_relations(tmp_path, relations)
        path = tmp_path / "relations.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:2] + [cut(lines[2])]), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ") + f".*{needle}"):
            read_relations(tmp_path)

    def test_a_doc_id_is_let_go_once_its_relations_are_written(self, tmp_path):
        class DocId(str):  # a str that can be weakly referenced
            pass

        ids = [DocId(f"d{k}") for k in range(4)]
        refs = [weakref.ref(doc_id) for doc_id in ids]
        alive = []

        def relations():
            for k in range(4):
                doc_id = ids.pop(0)  # the only reference left is this one
                yield Relation("x", "mass", 0.5, METHODS[0], doc_id=doc_id)
                if k:  # the writer has written document k's first relation
                    alive.append(refs[k - 1]() is not None)
                yield Relation("y_1", "speed", 0.25, METHODS[1], doc_id=doc_id)

        write_relations(tmp_path, relations())
        assert alive == [False, False, False]
        plain = [rel._replace(doc_id=f"d{k}") for k in range(4) for rel in (
            Relation("x", "mass", 0.5, METHODS[0]), Relation("y_1", "speed", 0.25, METHODS[1]))]
        old_write_relations(tmp_path / "old.jsonl", plain)
        assert (tmp_path / "relations.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_no_relations_is_an_empty_file(self, tmp_path):
        write_relations(tmp_path, [])
        assert (tmp_path / "relations.jsonl").read_bytes() == b""
        assert read_relations(tmp_path) == []


@st.composite
def doc_matrices(draw):
    """Canonical matrices with empty rows and values from 1e-8 to 1e8."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    stored[rng.random(m) < 0.3] = False  # empty rows
    rows, cols = np.nonzero(stored)
    values = rng.choice([-1.0, 1.0], len(rows)) * 10.0 ** rng.uniform(-8, 8, len(rows))
    doc_ids = tuple(f"d{i}" for i in range(m))
    vocab = Vocabulary(
        dims=tuple(sorted(draw(st.sets(st.text(min_size=1, max_size=5), min_size=n, max_size=n)))),
        mode=draw(st.sampled_from(["identifiers", "weak", "strong"])),
        df=rng.integers(1, 50, n),
        n_docs=m,
    )
    empty = tuple(doc_ids[i] for i in range(m) if not stored[i].any())
    return DocMatrix(
        doc_ids=doc_ids,
        vocab=vocab,
        matrix=_CSR.from_coo(rows, cols, values, (m, n)),
        row_norm=draw(st.booleans()),
        weighting=draw(st.sampled_from(["binary", "tf", "sublinear_tf", "tfidf"])),
        empty_docs=empty,
    )


class TestMatrixFiles:
    @given(doc_matrices())
    def test_same_bytes_and_arrays_as_the_old_code(self, tmp_path_factory, dm):
        new, old = tmp_path_factory.mktemp("new"), tmp_path_factory.mktemp("old")
        dm.save(new)
        old_save_matrix(old, dm)
        for name in ("matrix.mtx", "matrix_meta.json"):
            assert (new / name).read_bytes() == (old / name).read_bytes()
        got, want = DocMatrix.load(new), old_read_matrix(new)
        for X in (got.matrix, dm.matrix):
            assert X.shape == want.matrix.shape
            assert X.indptr.tobytes() == want.matrix.indptr.tobytes()
            assert X.indices.tobytes() == want.matrix.indices.tobytes()
            assert X.data.tobytes() == want.matrix.data.tobytes()
        assert got.vocab.df.tobytes() == want.vocab.df.tobytes()
        assert (got.doc_ids, got.vocab.dims, got.vocab.mode, got.vocab.n_docs) == (
            want.doc_ids, want.vocab.dims, want.vocab.mode, want.vocab.n_docs)
        assert (got.row_norm, got.weighting, got.empty_docs) == (
            want.row_norm, want.weighting, want.empty_docs)


    @pytest.mark.parametrize("change", [-1, -100, 1])
    def test_an_entry_count_unlike_the_header_is_refused(self, tmp_path, change):
        # ingest-long's file cut by 100 lines loaded its first 3 413 of 3 513 entries
        rows, cols = np.divmod(np.arange(120), 12)
        dm = DocMatrix(doc_ids=tuple(f"d{i}" for i in range(10)),
                       vocab=Vocabulary(tuple(f"w{j}" for j in range(12)), "weak",
                                        np.ones(12, dtype=np.int64), 10),
                       matrix=_CSR.from_coo(rows, cols, np.linspace(0.5, 1.0, 120), (10, 12)),
                       row_norm=True, weighting="tfidf")
        dm.save(tmp_path)
        path = tmp_path / "matrix.mtx"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines = lines[:change] if change < 0 else lines + ["1 1 0.5\n"]
        path.write_text("".join(lines), encoding="utf-8")
        found = 120 + change
        with pytest.raises(ValueError, match=re.escape(f"{path}: the header's 120 entries, "
                                                       f"but {found} entry lines")):
            DocMatrix.load(tmp_path)

    @pytest.mark.parametrize("last, needle", [
        ("5 1 0.5", "entry (5, 1)"),  # loaded with indptr [0, 2, 2, 2, 2, 3]
        ("1 9 0.5", "entry (1, 9)"),
        ("0 1 0.5", "entry (0, 1)"),  # numpy's error named no file
    ])
    def test_an_entry_outside_the_header_shape_is_refused(self, tmp_path, last, needle):
        save_small_matrix(tmp_path)
        path = tmp_path / "matrix.mtx"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1] + [last]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 5: {needle} outside the "
                                                       "header's 2 x 3 shape")):
            DocMatrix.load(tmp_path)

    @pytest.mark.parametrize("extra, needle", [
        ("2 2 1.0", "line 6: entry (2, 2) repeats line 5"),  # loaded as column 1 twice in row 1
        ("1 1 0.75", "line 6: entry (1, 1) repeats line 3"),
    ])
    def test_a_repeated_entry_is_refused(self, tmp_path, extra, needle):
        save_small_matrix(tmp_path)
        path = tmp_path / "matrix.mtx"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "2 3 4"
        path.write_text("\n".join(lines + [extra]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, {needle}")):
            DocMatrix.load(tmp_path)

    @pytest.mark.parametrize("key, counts", [
        ("doc_ids", "1 doc_ids, 3 dims and 3 df"),  # write_labels zipped the shorter list
        ("dims", "2 doc_ids, 2 dims and 3 df"),
        ("df", "2 doc_ids, 3 dims and 2 df"),
    ])
    def test_meta_unlike_the_matrix_shape_is_refused(self, tmp_path, key, counts):
        save_small_matrix(tmp_path)
        path = tmp_path / "matrix_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta[key] = meta[key][:-1]
        path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {counts} for the 2 x 3 matrix in {tmp_path / 'matrix.mtx'}")):
            DocMatrix.load(tmp_path)


def save_small_matrix(out_dir) -> None:
    """A 2 x 3 matrix whose entry lines are ``1 1``, ``1 3`` and ``2 2``."""
    DocMatrix(doc_ids=("a", "b"),
              vocab=Vocabulary(("u", "v", "w"), "weak", np.ones(3, dtype=np.int64), 2),
              matrix=_CSR.from_coo([0, 0, 1], [0, 2, 1], [0.25, 0.5, 1.0], (2, 3)),
              row_norm=False, weighting="tf").save(out_dir)


def at(n, change):
    """Change line n of a file's lines; the error must name line n."""

    def corrupt(lines):
        lines[n - 1] = change(lines[n - 1])
        return n

    return corrupt


def not_json(lines):
    lines[1] = lines[1].replace(b'"', b"'", 1)  # line 2 holds the first key


def blank_then_outside(lines):
    """A blank line among the entries, and a last entry one row past the
    shape: the error must name the last line, the blank one counted."""
    lines.insert(5, b"\n")
    rows = int(lines[1].split()[0])
    lines[-1] = b"%d %s" % (rows + 1, lines[-1].split(b" ", 1)[1])
    return len(lines)


def two_label_faults(lines):
    """A U+2028 inside line 1's label, which is no line break in text mode,
    and a space in place of line 3's tab."""
    lines[0] = lines[0].replace(b"\t", b"\tcat\xe2\x80\xa8egory", 1)
    lines[2] = lines[2].replace(b"\t", b" ")
    return 3


def stage(run):
    return lambda out, path: run(PipelineConfig.load(TOY_CONFIG, out=out))


def cut_in_string(line):
    return line[: line.index(b'"doc_id": "') + 13] + b"\n"


# (id, file of the toy run, its corruption, which returns the line the
# error must name or None for a JSON file, the reader, the error's type,
# and what its message says after the file and line)
REFUSALS = [
    ("relations-bad-byte", "relations.jsonl", at(5, lambda line: b"\xff" + line),
     stage(stage_vectorize), ValueError, "not UTF-8 (invalid start byte)"),
    ("relations-cut-in-a-string", "relations.jsonl", at(5, cut_in_string),
     stage(stage_vectorize), ValueError, "Unterminated string"),
    ("corpus-cut-in-a-string", "corpus.jsonl", at(3, lambda line: line[:40] + b"\n"),
     lambda out, path: load_corpus(path), ValueError, "Unterminated string"),
    ("matrix-x", "matrix.mtx", at(6, lambda line: re.sub(rb" \d+ ", b" x ", line)),
     stage(stage_cluster), ValueError, "invalid literal for int()"),
    ("matrix-two-fields", "matrix.mtx", at(6, lambda line: line.rsplit(b" ", 1)[0] + b"\n"),
     stage(stage_cluster), ValueError, "not enough values to unpack (expected 3, got 2)"),
    ("matrix-bad-byte", "matrix.mtx", at(6, lambda line: b"\xff" + line),
     stage(stage_cluster), ValueError, "not UTF-8 (invalid start byte)"),
    ("matrix-blank-line", "matrix.mtx", blank_then_outside,
     stage(stage_cluster), ValueError, "outside the header's"),
    ("meta-not-json", "matrix_meta.json", not_json,
     stage(stage_cluster), ValueError, "Expecting property name enclosed in double quotes"),
    ("grid-not-json", "grid.json", not_json,
     stage(stage_evaluate), ValueError, "Expecting property name enclosed in double quotes"),
    ("assignment-label-x", "assignment.tsv", at(2, lambda line: line.split(b"\t")[0] + b"\tx\n"),
     stage(stage_namespaces), ValueError, "invalid literal for int()"),
    ("labels-u2028", "assignment.tsv", two_label_faults,
     lambda out, path: load_labels(path), ValueError, "expected two fields split by one tab"),
]


@pytest.fixture(scope="module")
def toy_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "out"
    run_pipeline(PipelineConfig.load(TOY_CONFIG, out=out))
    shutil.copyfile(TOY_CORPUS, out / "corpus.jsonl")
    return out


@pytest.mark.parametrize("name, corrupt, read, error, needle", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_a_refusal_names_the_file_and_line(tmp_path, toy_out, name, corrupt, read, error, needle):
    out = tmp_path / "out"
    shutil.copytree(toy_out, out)
    path = out / name
    lines = path.read_bytes().splitlines(keepends=True)
    line = corrupt(lines)
    path.write_bytes(b"".join(lines))
    with pytest.raises(Exception) as info:
        read(out, path)
    assert info.type is error
    prefix = f"{path}: " if line is None else f"{path}, line {line}: "
    assert str(info.value).startswith(prefix) and needle in str(info.value)


def old_hierarchy_entry(name, cluster_id, hit) -> dict:
    return {
        "namespace": name,
        "cluster_id": cluster_id,
        "top": hit.top,
        "second": hit.second,
        "cosine": hit.cosine,
        "matched_keywords": hit.matched_keywords,
    }


class TestHierarchyEntry:
    @given(st.text(), st.integers(0, 10**6), st.text(), st.text(),
           st.floats(0.0, 1.0), st.integers(0, 100))
    def test_asdict_entry_is_the_hand_built_one(self, name, cluster_id, top, second, cos, hits):
        hit = HierarchyAssignment(top, second, cos, hits)
        entry = {"namespace": name, "cluster_id": cluster_id, **asdict(hit)}
        assert entry == old_hierarchy_entry(name, cluster_id, hit)
        want = json.dumps([old_hierarchy_entry(name, cluster_id, hit)], sort_keys=True, indent=2)
        assert json.dumps([entry], sort_keys=True, indent=2) == want
