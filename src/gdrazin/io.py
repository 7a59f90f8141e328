"""JSON persistence for matrices, generated instances, and report fields.

A matrix document is ``{"rows": r, "cols": c, "data": [re0, im0, re1, im1,
...]}``: the entries row-major, each as its real then its imaginary part, so
``data`` holds ``2*r*c`` numbers. ``matrix_to_doc`` puts the float64 view of
the array in ``data`` and ``dumps`` writes it with orjson's numpy path, which
spells every number as orjson spells a Python float. ``doc_to_matrix`` checks
the types of the whole list as one set, reads it with one ``np.fromiter`` and
checks that every number is finite; a ``data`` list of any other length is
refused.

Every document is encoded and decoded with orjson, the package's only JSON
codec. Its encoder writes each float as the shortest text that reads back to
the same float64, and its decoder rounds decimal text to the nearest float64,
so save followed by load reproduces the exact same matrix, bit for bit. The
text is RFC 8259 JSON: a file whose numbers are spelled another way
(``1e-05``, ``1e+16``, integers) loads to the same values, and the literals
``NaN`` and ``Infinity`` are refused as not valid JSON.

A generated-instance directory holds one matrix document per block plus an
``instance.json`` manifest recording the spec, the file map, and the
verification certificate. ``load_instance`` reads schema ``SCHEMA_VERSION``.

Paths are handled as strings. ``norm_path`` spells a path as pathlib would
(so messages and report fields name files exactly as ``str(Path(p))`` did)
and builds a ``Path`` only for a path not already in that form; ``join_path``
is pathlib's ``/`` for a plain file name. Every document is one binary read
whose UTF-8 text goes to orjson, and one binary write; a parse error gives
orjson's position in that text, where a "\r" counts as a character.
"""

import cmath
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import orjson

from .additive import PAIR_TARGETS, FactorCheck, _same_square, require_lambda
from .blockmat import RULE_IDS, _block_shapes
from .errors import GDrazinError
from .evaluation import OPERANDS, target_kind

if TYPE_CHECKING:  # an annotation only: writing an instance needs no generator
    from .casegen import GeneratedCase

__all__ = [
    "SCHEMA_VERSION",
    "DocumentError",
    "matrix_to_doc",
    "dumps",
    "doc_to_matrix",
    "norm_path",
    "join_path",
    "write_bytes",
    "save_matrix",
    "load_matrix",
    "check_shapes",
    "complex_to_doc",
    "doc_to_complex",
    "factor_check_to_doc",
    "parse_scalar",
    "save_instance",
    "load_instance",
]

SCHEMA_VERSION = 2
READABLE_SCHEMA_VERSIONS = (2,)  # the manifest schemas load_instance reads


class DocumentError(GDrazinError):
    """A JSON document is missing, malformed, or inconsistent."""


def matrix_to_doc(m: np.ndarray) -> dict:
    """The matrix document of ``m``. Its ``data`` is the float64 view of the
    row-major entries, ``[re0, im0, re1, im1, ...]`` (a view of ``m`` itself
    when ``m`` is C-contiguous complex128); ``dumps`` writes it as a flat
    JSON list."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D array, got ndim {m.ndim}")
    rows, cols = m.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        # row-major whatever the memory layout of m
        "data": np.ascontiguousarray(m).reshape(-1).view(np.float64),
    }


def dumps(doc, *, indent: bool = False) -> bytes:
    """``doc`` as one line of JSON text, or indented by two spaces, ending in
    a newline. A ``data`` array from ``matrix_to_doc`` is written as a list
    of numbers, each spelled as orjson spells the same Python float (a NaN
    or an infinity as null)."""
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    if indent:
        option |= orjson.OPT_INDENT_2
    return orjson.dumps(doc, option=option)


def doc_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise DocumentError(f"matrix document must be an object, got {type(doc).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in doc:
            raise DocumentError(f"matrix document missing key {key!r}")
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    # bool is an int subclass; JSON true/false must not pass as dimensions
    if (
        not isinstance(rows, int)
        or not isinstance(cols, int)
        or isinstance(rows, bool)
        or isinstance(cols, bool)
        or rows < 1
        or cols < 1
    ):
        raise DocumentError(f"rows/cols must be positive integers, got {rows!r}/{cols!r}")
    n = 2 * rows * cols
    if not isinstance(data, list) or len(data) != n:
        raise DocumentError(
            f"data must list 2*rows*cols = {n} numbers, "
            f"got {len(data) if isinstance(data, list) else type(data).__name__}"
        )
    flat = _decode(data)
    if flat is None:
        raise _entry_error(data)
    return flat.view(complex).reshape(rows, cols)


def _decode(data: list) -> np.ndarray | None:
    """The numbers of ``data`` as one float array, checked on the whole list
    at once; None when some entry is not a number, out of range or not
    finite. Types are tested as a set with issubclass, so a subclass passes
    exactly when isinstance lets it (np.float64 does, np.int64 does not)."""
    if not all(map(_is_number_type, set(map(type, data)))):
        return None
    try:
        flat = np.fromiter(data, dtype=float, count=len(data))
    except OverflowError:  # an integer too large for a float
        return None
    return flat if np.isfinite(flat).all() else None


def _entry_error(data: list) -> DocumentError:
    """The error naming the first entry of ``data`` that _decode refuses."""
    for i, entry in enumerate(data):
        if not _is_number(entry):
            return DocumentError(f"data[{i}] must be a number, got {entry!r}")
        try:
            if not math.isfinite(entry):
                return DocumentError(f"data[{i}] is not finite: {entry!r}")
        except OverflowError:  # an integer too large for a float
            return DocumentError(f"data[{i}] is out of the floating-point range")
    return DocumentError("data holds an entry that does not convert to a float")


def _is_number_type(t: type) -> bool:
    # bool is an int subclass; JSON true/false must not pass as numbers
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_number(x) -> bool:
    return _is_number_type(type(x))


def norm_path(path) -> str:
    """``str(Path(path))``: no empty or "." part and no trailing slash. A
    path already spelled that way is returned as it is, with no Path built."""
    p = os.fspath(path)
    if p and "//" not in p and "/./" not in p and not p.startswith("./") and not p.endswith(("/", "/.")):
        return p
    return str(Path(p))


def join_path(directory: str, name: str) -> str:
    """``str(Path(directory) / name)`` for a ``norm_path`` directory and a
    plain file name."""
    return name if directory == "." else os.path.join(directory, name)


def _read_json(path: str):
    """The JSON document at ``path`` (a norm_path string), read as bytes and
    decoded as UTF-8 (RFC 8259)."""
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to the file at ``path``, as ``Path(path).write_bytes``."""
    with open(norm_path(path), "wb") as f:
        f.write(data)


def save_matrix(path, m: np.ndarray) -> None:
    write_bytes(path, dumps(matrix_to_doc(m)))


def load_matrix(path) -> np.ndarray:
    p = norm_path(path)
    doc = _read_json(p)
    try:
        return doc_to_matrix(doc)
    except DocumentError as exc:
        raise DocumentError(f"{p}: {exc}") from exc


def check_shapes(target: str, mats: dict[str, np.ndarray]) -> None:
    """Raise DocumentError unless the shapes of the decoded ``mats`` fit the
    operands of ``target``: two square matrices of one shape, or the blocks
    of a 2x2 block matrix (the decode has proved every entry finite)."""
    try:
        if target_kind(target) == "block":
            _block_shapes(**mats)
        else:
            _same_square(mats["a"], mats["b"])
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def complex_to_doc(z: complex | None):
    if z is None:
        return None
    z = complex(z)
    return [float(z.real), float(z.imag)]


def doc_to_complex(doc) -> complex | None:
    if doc is None:
        return None
    if not isinstance(doc, list) or len(doc) != 2 or not all(map(_is_number, doc)):
        raise DocumentError(f"scalar must be a [re, im] pair of numbers, got {doc!r}")
    try:
        finite = math.isfinite(doc[0]) and math.isfinite(doc[1])
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise DocumentError("scalar is not a finite [re, im] pair")
    return complex(doc[0], doc[1])


def factor_check_to_doc(chk: FactorCheck) -> dict:
    return {
        "condition": chk.condition,
        "holds": bool(chk.holds),
        "lambda": complex_to_doc(chk.lam),
        "residual": float(chk.residual),
        "degenerate": bool(chk.degenerate),
    }


def parse_scalar(text: str) -> complex | None:
    """Parse a scalar argument: 'auto' for fitted, fractions like '1/2',
    and complex literals with either 'i' or 'j' ('3i', '1+2j', '-i').
    ValueError for anything else, and for a value that is not finite
    ('nan', '1e999', '1e308/1e-308')."""
    t = text.strip().lower()
    if t == "auto":
        return None
    num, slash, den = t.partition("/")
    try:
        z = complex(float(num) / float(den)) if slash else complex(t.replace("i", "j"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {text!r}") from exc
    if not cmath.isfinite(z):
        raise ValueError(f"scalar {text!r} is not finite")
    return z


def save_instance(directory, case: "GeneratedCase") -> dict:
    """Write one generated instance into a directory; returns the manifest."""
    d = norm_path(directory)
    os.makedirs(d, exist_ok=True)
    files = {}
    for name, m in sorted(case.matrices.items()):
        fname = f"{name}.json"
        save_matrix(join_path(d, fname), m)
        files[name] = fname
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": case.kind,
        "target": case.spec.target,
        "dim": int(case.spec.dim),
        "lambda": complex_to_doc(complex(case.spec.lam)),
        "seed": int(case.spec.seed),
        "negate": bool(case.spec.negate),
        "broken": case.broken,
        "files": files,
        "certificate": [factor_check_to_doc(c) for c in case.certificate],
    }
    write_bytes(join_path(d, "instance.json"), dumps(manifest, indent=True))
    return manifest


def load_instance(directory) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a generated-instance directory back: (manifest, matrices).

    Raises DocumentError unless the manifest's schema_version is an integer
    in READABLE_SCHEMA_VERSIONS, it names a kind ("pair" or "block") and a
    target of that kind, a negate (when present) is a boolean, a lambda (when
    present) is null or a [re, im] pair that require_lambda takes, and its
    files map each block name to the plain name of a matrix document in the
    directory (no path separator, not "." or ".."), the matrices fitting
    together."""
    d = norm_path(directory)
    mpath = join_path(d, "instance.json")
    manifest = _read_json(mpath)
    if not isinstance(manifest, dict):
        raise DocumentError(f"{mpath}: manifest must be an object")
    for key in ("schema_version", "kind", "target", "files"):
        if key not in manifest:
            raise DocumentError(f"{mpath}: manifest missing key {key!r}")
    version = manifest["schema_version"]
    if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
        raise DocumentError(
            f"{mpath}: schema_version must be one of {READABLE_SCHEMA_VERSIONS}, got {version!r}"
        )
    kind, target = manifest["kind"], manifest["target"]
    if kind not in ("pair", "block"):
        raise DocumentError(f"{mpath}: kind must be 'pair' or 'block', got {kind!r}")
    targets = PAIR_TARGETS if kind == "pair" else RULE_IDS
    if target not in targets:
        raise DocumentError(f"{mpath}: target {target!r} is not a {kind} target {targets}")
    if not isinstance(manifest.get("negate", False), bool):
        raise DocumentError(f"{mpath}: negate must be true or false, got {manifest['negate']!r}")
    try:
        lam = doc_to_complex(manifest.get("lambda"))
    except DocumentError as exc:
        raise DocumentError(f"{mpath}: lambda: {exc}") from exc
    try:
        require_lambda(lam)
    except ValueError as exc:
        raise DocumentError(f"{mpath}: {exc}") from exc
    expected = set(OPERANDS[kind])
    files = manifest["files"]
    if (
        not isinstance(files, dict)
        or set(files) != expected
        or not all(isinstance(f, str) for f in files.values())
    ):
        raise DocumentError(f"{mpath}: files must map exactly {sorted(expected)} to file names")
    for fname in files.values():
        if fname in ("", ".", "..") or "/" in fname:
            raise DocumentError(f"{mpath}: file name {fname!r} is not a plain name in {d}")
    matrices = {name: load_matrix(join_path(d, fname)) for name, fname in files.items()}
    try:
        check_shapes(target, matrices)
    except DocumentError as exc:
        raise DocumentError(f"{d}: {exc}") from exc
    return manifest, matrices
