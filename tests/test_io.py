"""Matrix documents, instance directories, scalar parsing."""

import json

import numpy as np
import orjson
import pytest

from gdrazin import CaseSpec, generate
from gdrazin.io import (
    SCHEMA_VERSION,
    DocumentError,
    complex_to_doc,
    doc_to_complex,
    doc_to_matrix,
    dumps,
    load_instance,
    load_matrix,
    matrix_to_doc,
    parse_scalar,
    save_instance,
    save_matrix,
)
from helpers import write_schema_1


def test_matrix_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, m)  # exact, not approximate


def test_doc_shape_and_layout():
    doc = matrix_to_doc(np.array([[1, 2j], [3, 4]], dtype=complex))
    assert doc["rows"] == 2 and doc["cols"] == 2
    # flat and row-major: re, im of entry (0, 0), then of entry (0, 1), ...
    assert doc["data"].tolist() == [1.0, 0.0, 0.0, 2.0, 3.0, 0.0, 4.0, 0.0]
    assert orjson.loads(dumps(doc)) == {"rows": 2, "cols": 2, "data": [1, 0, 0, 2, 3, 0, 4, 0]}


@pytest.mark.parametrize(
    "doc,match",
    [
        ("not a dict", "must be an object, got str"),
        ({}, "missing key 'rows'"),
        ({"rows": 2, "cols": 2}, "missing key 'data'"),
        ({"rows": 0, "cols": 1, "data": []}, "rows/cols must be positive integers"),
        ({"rows": True, "cols": 1, "data": [1, 0]}, "rows/cols must be positive integers"),
        # 2*rows*cols numbers, faults named by their index in data
        ({"rows": 2, "cols": 2, "data": [1, 0]}, "2\\*rows\\*cols = 8 numbers, got 2$"),
        ({"rows": 1, "cols": 2, "data": [1, 2, 3]}, "2\\*rows\\*cols = 4 numbers, got 3$"),
        ({"rows": 1, "cols": 1, "data": (1.0, 0.0)}, "2\\*rows\\*cols = 2 numbers, got tuple$"),
        # the first bad entry wins, whatever its fault and whatever follows
        ({"rows": 1, "cols": 3, "data": [1, 2, float("inf"), 10**400, None, 0]}, "data\\[2\\] is not finite"),
        ({"rows": 1, "cols": 3, "data": [1, 2, 10**400, float("nan"), "x", 0]}, "data\\[2\\] is out of the"),
        ({"rows": 1, "cols": 1, "data": [1.0, True]}, "data\\[1\\] must be a number, got True$"),
        ({"rows": 1, "cols": 2, "data": [1, 2, "3", 4]}, "data\\[2\\] must be a number, got '3'$"),
        ({"rows": 1, "cols": 2, "data": [1, 2, 3, None]}, "data\\[3\\] must be a number, got None$"),
        ({"rows": 1, "cols": 2, "data": [1, [2], 3, 4]}, "data\\[1\\] must be a number, got \\[2\\]$"),
        ({"rows": 1, "cols": 2, "data": [1, 2, 10**400, 4]}, "data\\[2\\] is out of the floating-point range$"),
        ({"rows": 1, "cols": 2, "data": [1, 2, 3, float("-inf")]}, "data\\[3\\] is not finite: -inf$"),
        ({"rows": 1, "cols": 1, "data": [float("nan"), 0.0]}, "data\\[0\\] is not finite: nan$"),
        ({"rows": 1, "cols": 1, "data": [0.0, np.int64(1)]}, "data\\[1\\] must be a number"),
        # a pair in a list of the flat length is not a number, and a list of
        # pairs of any other length has the wrong length
        ({"rows": 1, "cols": 1, "data": [[1, 2], [3, 4]]}, "data\\[0\\] must be a number, got \\[1, 2\\]$"),
        ({"rows": 1, "cols": 2, "data": [[1, 2], [3, 4]]}, "2\\*rows\\*cols = 4 numbers, got 2$"),
    ],
)
def test_doc_to_matrix_rejects_malformed(doc, match):
    with pytest.raises(DocumentError, match=match):
        doc_to_matrix(doc)


def _entrywise_decode(doc):
    """Reference decoder: one complex(re, im) per entry."""
    data = doc["data"]
    entries = [complex(data[i], data[i + 1]) for i in range(0, len(data), 2)]
    return np.array(entries, dtype=complex).reshape(doc["rows"], doc["cols"])


def _entrywise_encode(m):
    """Reference encoder: float(re), float(im) of each entry, row-major."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [x for z in flat for x in (float(z.real), float(z.imag))]


def test_codec_matches_entrywise_reference():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    m[0, :4] = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 1e-320 - 1e308j]
    m[1, :2] = [5e-324 - 5e-324j, np.finfo(float).max + 2.2250738585072014e-308j]
    for view in (m, m.T, m[::2, ::-3]):  # contiguous, transposed, strided
        doc = matrix_to_doc(view)
        reference = {"rows": doc["rows"], "cols": doc["cols"], "data": _entrywise_encode(view)}
        text = dumps(doc)
        assert text == orjson.dumps(reference) + b"\n"
        parsed = orjson.loads(text)
        assert doc_to_matrix(parsed).tobytes() == _entrywise_decode(parsed).tobytes()
        assert doc_to_matrix(parsed).tobytes() == np.ascontiguousarray(view).tobytes()
    big = [2**53 + 1, 2**53 + 3, -(2**60) - 1, 2**1000 + 1, 7]
    doc = {"rows": 1, "cols": 4, "data": [big[i + j] for i in range(4) for j in (0, 1)]}
    assert doc_to_matrix(doc).tobytes() == _entrywise_decode(doc).tobytes()
    assert doc_to_matrix(doc)[0, 0] == complex(2**53 + 1, 2**53 + 3)


def test_signed_zeros_survive_save_and_load(tmp_path):
    m = np.array([[complex(-0.0, -0.0), complex(-0.0, 0.0)], [complex(0.0, -0.0), 0j]])
    save_matrix(tmp_path / "z.json", m)
    back = load_matrix(tmp_path / "z.json")
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))


def test_transposed_input_encodes_row_major():
    m = np.arange(6, dtype=complex).reshape(2, 3) * (1 + 1j)
    t = m.T  # 3x2, column-major in memory
    assert not t.flags.c_contiguous
    doc = matrix_to_doc(t)
    assert (doc["rows"], doc["cols"]) == (3, 2)
    assert doc["data"].tolist() == [float(v) for v in (0, 3, 1, 4, 2, 5) for _ in "ri"]


def test_number_subclasses_follow_isinstance():
    doc = {"rows": 1, "cols": 2, "data": [np.float64(1.5), 2, -3, np.float64(-0.25)]}
    assert np.array_equal(doc_to_matrix(doc), np.array([[1.5 + 2j, -3 - 0.25j]]))


def test_load_matrix_error_paths(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_matrix(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DocumentError, match="not valid JSON"):
        load_matrix(bad)
    for digits in (400, 5000):  # past float range; past the int digit limit
        huge = tmp_path / f"huge{digits}.json"
        huge.write_text('{"rows": 1, "cols": 1, "data": [1' + "0" * digits + ", 0]}")
        with pytest.raises(DocumentError):
            load_matrix(huge)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark is not UTF-8
    with pytest.raises(DocumentError, match="cannot read"):
        load_matrix(utf16)
    with pytest.raises(DocumentError, match="cannot read"):
        load_matrix(tmp_path / "nul\x00.json")
    nan = tmp_path / "nan.json"  # the stdlib encoder writes NaN, which is not JSON
    nan.write_text(json.dumps({"rows": 1, "cols": 1, "data": [float("nan"), 0.0]}))
    with pytest.raises(DocumentError, match="not valid JSON"):
        load_matrix(nan)


def _stdlib_matrix(text: str) -> np.ndarray:
    """A matrix document parsed by the stdlib json module, entry by entry."""
    return _entrywise_decode(json.loads(text))


def test_stdlib_spellings_load_bit_identically(tmp_path):
    # exponents as the stdlib encoder writes them, integers, signed zero and
    # the smallest subnormal
    text = (
        '{"rows": 2, "cols": 3, "data": [1e-05, 1e+16, 3, -7, -0.0, 5e-324, '
        '0.1, -2.5e-308, 1.7976931348623157e+308, 0, -5e-324, -0.0]}\n'
    )
    path = tmp_path / "m.json"
    path.write_text(text)
    back = load_matrix(path)
    assert back.tobytes() == _stdlib_matrix(text).tobytes()
    assert back[0, 0] == 1e-05 + 1e16j and np.signbit(back[0, 2].real)


def test_saved_document_reads_back_under_stdlib_json(tmp_path):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**64, size=2 * 48, dtype=np.uint64)
    m = bits.view(float).copy()
    m[~np.isfinite(m)] = 0.0  # random bit patterns: subnormals, extremes, both signs
    m[:6] = [-0.0, 5e-324, -5e-324, 1e-05, 1e16, np.finfo(float).max]
    m = m.view(complex).reshape(6, 8)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    doc = json.loads(path.read_text())
    assert len(doc["data"]) == 2 * 48 and all(type(x) is float for x in doc["data"])
    assert _stdlib_matrix(path.read_text()).tobytes() == m.tobytes()


def test_complex_doc_roundtrip():
    assert complex_to_doc(None) is None
    z = 1.5 - 2.5j
    assert doc_to_complex(complex_to_doc(z)) == z
    for bad in (None, [1.0], ["1", 0.0], [True, 0.0], [float("nan"), 0.0], [10**400, 0.0]):
        with pytest.raises(DocumentError):
            doc_to_complex(bad)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2", 0.5 + 0j),
        ("-3/4", -0.75 + 0j),
        ("3", 3 + 0j),
        ("-2", -2 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("1+2i", 1 + 2j),
        ("2.5j", 2.5j),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize(
    "text", ["", "auto", "x", "1/0", "1//2", "++2", "nan", "-nan", "nanj", "1e999", "1e308/1e-308"]
)
def test_parse_scalar_rejects(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_instance_roundtrip(tmp_path):
    case = generate(CaseSpec(target="3.1", dim=5, lam=0.5, seed=3))
    manifest = save_instance(tmp_path / "inst", case)
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["target"] == "3.1"
    assert manifest["broken"] is None
    back_manifest, matrices, lam = load_instance(tmp_path / "inst")
    assert back_manifest == json.loads(json.dumps(manifest))
    assert lam == 0.5 and type(lam) is complex
    assert set(matrices) == {"a", "b", "c", "d"}
    for name, m in matrices.items():
        assert np.array_equal(m, case.matrices[name])


def test_instance_roundtrip_pair_kind(tmp_path):
    case = generate(CaseSpec(target="2.3", dim=4, lam=2.0, seed=1, negate=True))
    save_instance(tmp_path / "inst", case)
    manifest, matrices, lam = load_instance(tmp_path / "inst")
    assert manifest["negate"] is True and lam == 2.0
    assert manifest["broken"] == case.broken
    assert set(matrices) == {"a", "b"}


def test_schema_1_instance_is_refused(tmp_path):
    # gdz writes schema 2 alone, and reads only what it writes
    save_instance(tmp_path, generate(CaseSpec(target="4.3", dim=6, lam=3.0, seed=2)))
    write_schema_1(tmp_path)
    assert isinstance(json.loads((tmp_path / "a.json").read_text())["data"][0], list)
    with pytest.raises(DocumentError, match=r"schema_version must be one of \(2,\), got 1$"):
        load_instance(tmp_path)
    with pytest.raises(DocumentError, match=r"a\.json: data must list 2\*rows\*cols = 72 numbers, got 36$"):
        load_matrix(tmp_path / "a.json")


def test_load_instance_validates_manifest(tmp_path):
    d = tmp_path / "inst"
    d.mkdir()
    with pytest.raises(DocumentError, match="cannot read"):
        load_instance(d)
    (d / "instance.json").write_text("[]")
    with pytest.raises(DocumentError, match="must be an object"):
        load_instance(d)
    (d / "instance.json").write_text(json.dumps({"schema_version": 1, "kind": "pair", "target": "2.3"}))
    with pytest.raises(DocumentError, match="missing key"):
        load_instance(d)
    (d / "instance.json").write_text(
        json.dumps(
            {"schema_version": 2, "kind": "pair", "target": "2.3", "lambda": [1.0, 0.0],
             "negate": False, "files": {"a": "a.json"}}
        )
    )
    with pytest.raises(DocumentError, match="files must be"):
        load_instance(d)
