"""CPT file round-trips and parser validation."""

import contextlib
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_factors
from tensor_topk import cp, cpt_io, qft
from tensor_topk.cli import main
from tensor_topk.cpt_io import read_cpt, write_cpt
from tensor_topk.errors import CptFormatError


def _roundtrip(tmp_path, A):
    path = tmp_path / "t.cpt"
    write_cpt(A, path)
    return read_cpt(path)


def test_roundtrip_real_bitexact(tmp_path, rng):
    A = cp.CpTensor(random_factors(rng, (4, 3, 5), 3))
    B = _roundtrip(tmp_path, A)
    assert B.dims == A.dims and B.rank == A.rank
    for fa, fb in zip(A.factors, B.factors):
        np.testing.assert_array_equal(fa, fb)


def test_roundtrip_complex_bitexact(tmp_path, rng):
    A = cp.CpTensor(random_factors(rng, (3, 4), 2, complex_=True))
    B = _roundtrip(tmp_path, A)
    assert B.is_complex
    for fa, fb in zip(A.factors, B.factors):
        np.testing.assert_array_equal(fa, fb)


def test_roundtrip_awkward_values(tmp_path):
    # 1/3, a subnormal, negative zero, near-overflow, an off-by-one-ulp value
    f0 = np.array([[1 / 3, 5e-324], [-0.0, 1e308]])
    f1 = np.array([[np.pi, 2e-308], [1.0000000000000002, -7.1]])
    A = cp.CpTensor([f0, f1])
    B = _roundtrip(tmp_path, A)
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()


def test_file_is_json(tmp_path, rng):
    A = cp.CpTensor(random_factors(rng, (3, 2), 2))
    path = tmp_path / "t.cpt"
    write_cpt(A, path)
    doc = json.loads(path.read_text())
    assert doc["field"] == "real"
    assert doc["dims"] == [3, 2]
    assert doc["rank"] == 2
    assert len(doc["factors"]) == 2
    assert len(doc["factors"][0]) == 6  # row-major flat


def _write_doc(tmp_path, doc):
    path = tmp_path / "bad.cpt"
    path.write_text(json.dumps(doc))
    return path


def _valid_doc():
    return {"field": "real", "dims": [2, 2], "rank": 1,
            "factors": [[1.0, 2.0], [3.0, 4.0]]}


def test_parser_accepts_valid_doc(tmp_path):
    A = read_cpt(_write_doc(tmp_path, _valid_doc()))
    assert A.dims == (2, 2)
    assert cp.element(A, (1, 1)) == 8.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("field"),
    lambda d: d.pop("dims"),
    lambda d: d.pop("rank"),
    lambda d: d.pop("factors"),
    lambda d: d.update(field="integer"),
    lambda d: d.update(dims=[2, 0]),
    lambda d: d.update(dims=[2.0, 2.0]),
    lambda d: d.update(dims=[2]),
    lambda d: d.update(rank=0),
    lambda d: d.update(rank=True),
    lambda d: d.update(factors=[[1.0, 2.0]]),
    lambda d: d.update(factors=[[1.0], [3.0, 4.0]]),
    lambda d: d.update(factors=[[1.0, "x"], [3.0, 4.0]]),
    lambda d: d.update(factors=[[1.0, None], [3.0, 4.0]]),
    lambda d: d.update(factors="flat"),
])
def test_parser_rejects_malformed(tmp_path, mutate):
    doc = _valid_doc()
    mutate(doc)
    with pytest.raises(CptFormatError):
        read_cpt(_write_doc(tmp_path, doc))


@pytest.mark.parametrize("field,entry", [
    ("real", "NaN"), ("real", "Infinity"), ("real", "-Infinity"), ("real", "1e999"),
    ("complex", "[0.0, NaN]"),
])
def test_parser_rejects_non_finite(tmp_path, field, entry):
    path = tmp_path / "bad.cpt"
    path.write_text('{"field": "%s", "dims": [2], "rank": 1, "factors": [[%s, %s]]}'
                    % (field, entry, entry))
    with pytest.raises(CptFormatError, match="NaN or infinite"):
        read_cpt(path)


def test_parser_rejects_non_json(tmp_path):
    path = tmp_path / "junk.cpt"
    path.write_text("not json at all {{{")
    with pytest.raises(CptFormatError):
        read_cpt(path)


def test_complex_pairs(tmp_path):
    doc = {"field": "complex", "dims": [2], "rank": 1,
           "factors": [[[1.0, -2.0], [0.5, 0.0]]]}
    A = read_cpt(_write_doc(tmp_path, doc))
    assert A.is_complex
    assert cp.element(A, (0,)) == 1.0 - 2.0j


def test_complex_file_rejects_bare_reals(tmp_path):
    doc = {"field": "complex", "dims": [2], "rank": 1,
           "factors": [[1.0, 0.5]]}
    with pytest.raises(CptFormatError):
        read_cpt(_write_doc(tmp_path, doc))


_BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize("field,entry", [
    ("complex", '["1.5", 0.0]'),
    ("complex", "[true, 0.0]"),
    ("complex", "[0.0, false]"),
    ("complex", "[null, 0.0]"),
    ("complex", "[[1], 0.0]"),
    ("complex", '["x", 0.0]'),
    ("complex", "[{}, 0.0]"),
    ("complex", "[1.0, 0.0, 0.0]"),
    ("complex", "[%s, 0.0]" % _BIG_INT),
    ("real", "true"),
    ("real", '"1.5"'),
    ("real", "[1.0]"),
    ("real", _BIG_INT),
])
def test_parser_rejects_non_number_entries(tmp_path, field, entry):
    # the bad entry comes second, after a valid one
    good = "[1.0, 0.0]" if field == "complex" else "1.0"
    path = tmp_path / "bad.cpt"
    path.write_text('{"field": "%s", "dims": [2], "rank": 1, "factors": [[%s, %s]]}'
                    % (field, good, entry))
    with pytest.raises(CptFormatError, match="factor 1"):
        read_cpt(path)


def test_parser_accepts_integer_entries(tmp_path):
    big = 2 ** 63 + 1  # beyond int64: rounds to float64 as float() does
    doc = {"field": "complex", "dims": [2], "rank": 1,
           "factors": [[[1, -2], [big, 0]]]}
    A = read_cpt(_write_doc(tmp_path, doc))
    assert A.factors[0].tobytes() == np.array(
        [[1.0 - 2.0j], [complex(float(big), 0.0)]]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_writer_refuses_non_finite(tmp_path, bad):
    f0 = np.ones((2, 1), dtype=type(bad))
    f0[1, 0] = bad
    path = tmp_path / "t.cpt"
    with pytest.raises(ValueError, match="NaN or infinite"):
        write_cpt(cp.CpTensor([f0, np.ones((3, 1))]), path)
    assert not path.exists()
    # an existing file is left as it was, not replaced
    write_cpt(cp.cp_ones((2, 3)), path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="NaN or infinite"):
        write_cpt(cp.CpTensor([f0, np.ones((3, 1))]), path)
    assert path.read_bytes() == before


def test_rewrite_replaces_a_longer_file(tmp_path, rng):
    path, link, fresh = tmp_path / "t.cpt", tmp_path / "link.cpt", tmp_path / "fresh.cpt"
    write_cpt(cp.CpTensor(random_factors(rng, (40, 30), 4)), path)
    old = path.read_bytes()
    os.link(path, link)
    A = cp.CpTensor(random_factors(rng, (3, 2), 1))
    write_cpt(A, path)
    write_cpt(A, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    # a new file took the name; the old one lives on under its other link
    assert link.read_bytes() == old
    assert not os.path.samefile(path, link)


def test_rewrite_through_a_symlink_writes_its_target(tmp_path, rng):
    target, path, fresh = tmp_path / "target.cpt", tmp_path / "t.cpt", tmp_path / "fresh.cpt"
    write_cpt(cp.CpTensor(random_factors(rng, (40, 30), 4)), target)
    path.symlink_to(target)
    A = cp.CpTensor(random_factors(rng, (3, 2), 1))
    write_cpt(A, path)
    write_cpt(A, fresh)
    assert path.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_writing_to_a_directory_raises(tmp_path):
    path = tmp_path / "d.cpt"
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        write_cpt(cp.cp_ones((2, 3)), path)
    assert path.is_dir()


def _reference_fmt(x):
    s = format(float(x), ".17g")
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def _reference_write_cpt(A, path):
    """The writer formatting one entry at a time, kept as the byte reference."""
    parts = []
    parts.append('{"field": "%s",' % ("complex" if A.is_complex else "real"))
    parts.append(' "dims": [%s],' % ", ".join(str(n) for n in A.dims))
    parts.append(' "rank": %d,' % A.rank)
    lines = []
    for f in A.factors:
        flat = f.reshape(-1)
        if A.is_complex:
            body = ", ".join(f"[{_reference_fmt(v.real)}, {_reference_fmt(v.imag)}]"
                             for v in flat)
        else:
            body = ", ".join(_reference_fmt(v) for v in flat)
        lines.append("  [" + body + "]")
    parts.append(' "factors": [\n' + ",\n".join(lines) + "\n]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


@pytest.mark.parametrize("complex_", [False, True])
def test_writer_bytes_match_reference(tmp_path, rng, complex_):
    special = np.array([1.0, -0.0, 0.0, 1e16, -1e16, 1e17, 5e-324, 1e308, 1 / 3,
                        99999999999999984.0, -7.0, 2.5])
    # mode 0 spans more than one write chunk, with every special value on
    # both sides of the chunk boundary
    rows = cpt_io._WRITE_CHUNK // 2 + 7
    f0 = rng.uniform(-3.0, 3.0, size=(rows, 2))
    f0.flat[:special.size] = special
    f0.flat[cpt_io._WRITE_CHUNK - 6:cpt_io._WRITE_CHUNK + 6] = special
    f1 = np.resize(special, (6, 2))
    f2 = np.round(rng.uniform(-50.0, 50.0, size=(5, 2)))
    if complex_:
        f1 = f1 + 1j * f1[::-1]
        f2 = f2 - 1j * special[:10].reshape(5, 2)
    A = cp.CpTensor([f0, f1, f2])
    got, want = tmp_path / "new.cpt", tmp_path / "ref.cpt"
    write_cpt(A, got)
    _reference_write_cpt(A, want)
    assert got.read_bytes() == want.read_bytes()
    B = read_cpt(got)
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()


def _chunk_paths(A):
    """Which of the writer's two paths the chunks of A take: "dedupe" for a
    chunk at most half of whose values are distinct, "direct" otherwise."""
    paths = set()
    for f in A.factors:
        flat = f.reshape(-1).view(np.float64)
        for c0 in range(0, flat.size, cpt_io._WRITE_CHUNK):
            chunk = flat[c0:c0 + cpt_io._WRITE_CHUNK]
            distinct = np.unique(chunk.view(np.int64)).size
            paths.add("dedupe" if 2 * distinct <= chunk.size else "direct")
    return paths


def _assert_reference_bytes(tmp_path, A):
    got, want = tmp_path / "new.cpt", tmp_path / "ref.cpt"
    write_cpt(A, got)
    _reference_write_cpt(A, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("chunk", [None, 8])
@pytest.mark.parametrize("complex_", [False, True])
def test_writer_bytes_match_reference_on_repeats(tmp_path, rng, monkeypatch, complex_,
                                                 chunk):
    # -0.0 next to 0.0, integral values on both sides of 1e17 and "%.17g"'s
    # digits-only range, a subnormal and a 17-digit fraction
    special = np.array([-0.0, 0.0, 1.0, -7.0, 1e16, 99999999999999984.0, 1e17, 5e-324,
                        1 / 3])
    if chunk is not None:
        # small even chunks, which the runs of 7 repeats below straddle
        monkeypatch.setattr(cpt_io, "_WRITE_CHUNK", chunk)
    rows = cpt_io._WRITE_CHUNK + 5
    # runs of repeats within and across chunks; then a mostly-distinct factor
    f0 = np.resize(np.repeat(special, 7), (rows, 2))
    f1 = rng.uniform(-3.0, 3.0, size=(rows, 2))
    f1.flat[::7] = special[rng.integers(0, special.size, size=f1.flat[::7].size)]
    if complex_:
        # set part by part: re + 1j * im would turn every -0.0 into 0.0
        f0, f1 = f0.astype(complex), f1.astype(complex)
        f0.imag = np.resize(np.repeat(special[::-1], 7), (rows, 2))
        f1.imag = rng.uniform(-3.0, 3.0, size=(rows, 2))
    A = cp.CpTensor([f0, f1])
    assert _chunk_paths(A) == {"dedupe", "direct"}
    _assert_reference_bytes(tmp_path, A)


def test_writer_bytes_match_reference_on_a_qft_state(tmp_path):
    layout = qft.square_layout(9)
    psi0 = qft.random_product_state(layout, np.random.default_rng(11))
    A = qft.run_qft(psi0, layout)
    assert "dedupe" in _chunk_paths(A)
    _assert_reference_bytes(tmp_path, A)


def test_writer_memory_is_bounded(tmp_path):
    # a 4x16x4096 complex state, 11.5 MB of text: three factors of QFT-like
    # phases (16 to 1024 distinct angles) and one of distinct values.  The
    # writer holds one 2^14-value chunk's strings at a time, about 1.4 MB;
    # formatting 2^16 values per chunk with no deduplication peaks at 4.6 MB
    rng = np.random.default_rng(9)
    fs = [np.exp(2j * np.pi * rng.integers(0, 4 ** (p + 2), size=(16, 4096)) / 4 ** (p + 2))
          / 4 for p in range(3)]
    fs.append(rng.standard_normal((16, 4096)) + 1j * rng.standard_normal((16, 4096)))
    A = cp.CpTensor(fs)
    assert _chunk_paths(A) == {"dedupe", "direct"}
    path = tmp_path / "state.cpt"
    tracemalloc.start()
    try:
        write_cpt(A, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6
    B = read_cpt(path)
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()


def _relayout(doc, layout):
    if layout == "factors_first":
        return json.dumps({"factors": doc["factors"],
                           **{k: v for k, v in doc.items() if k != "factors"}})
    if layout == "indented":
        return json.dumps(doc, indent=2)
    # unknown keys before, between and after the known ones
    return json.dumps({"comment": "made by hand", "field": doc["field"],
                       "extra": {"dims": [0], "factors": None}, "dims": doc["dims"],
                       "rank": doc["rank"], "factors": doc["factors"], "tail": [1, [2]]})


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("layout", ["factors_first", "indented", "extra_keys"])
def test_reader_accepts_any_layout(tmp_path, rng, layout, complex_):
    A = cp.CpTensor(random_factors(rng, (3, 4, 2), 3, complex_=complex_))
    path = tmp_path / "t.cpt"
    write_cpt(A, path)
    path.write_text(_relayout(json.loads(path.read_text()), layout))
    B = read_cpt(path)
    assert B.dims == A.dims and B.is_complex == A.is_complex
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()


_GOOD = b'{"field": "real", "dims": [2], "rank": 1, "factors": [[1.0, 2.0]]}'


@pytest.mark.parametrize("data,message", [
    (_GOOD + b" {}", "Extra data"),
    (b"[1.0, 2.0]", "top level must be a single object"),
    (b'"field"', "top level must be a single object"),
    (_GOOD[:-1] + b', }', "property name"),
    (_GOOD.replace(b"2.0]]", b"2.0],]"), "Expecting value"),
    (_GOOD.replace(b"2.0]", b"2.0,]"), "Expecting value"),
    (b'{"field": "real", "dims": [2], "rank": 1, "factors": [[1.0, 2.0]], "dims": [3]}',
     "duplicate key 'dims'"),
    (b'{"factors": [[1.0, 2.0]], "field": "real", "dims": [2], "rank": 1, "factors": []}',
     "duplicate key 'factors'"),
    (b"\xef\xbb\xbf" + _GOOD, "BOM"),
    (_GOOD.replace(b" ", b"\xff", 1), "not UTF-8"),
    (_GOOD.replace(b"1.0,", b"1" * 5000 + b","), "cannot decode JSON"),
    (_GOOD.replace(b"1.0,", b"[" * 100000 + b"]" * 100000 + b","), "cannot decode JSON"),
], ids=["trailing-data", "array-top", "string-top", "object-trailing-comma",
        "factors-trailing-comma", "entries-trailing-comma", "duplicate-header-key",
        "duplicate-factors", "utf8-bom", "non-utf8", "long-integer", "deep-nesting"])
def test_reader_rejects_with_exit_1(tmp_path, data, message):
    path = tmp_path / "bad.cpt"
    path.write_bytes(data)
    with pytest.raises(CptFormatError, match=message):
        read_cpt(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["topk", "--input", str(path), "--k", "1"]) == 1
    assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("text,message", [
    # a JSON error after the factors outranks a bad factor
    ('{"field": "real", "dims": [2], "rank": 1, "factors": [[1.0, "x"]]} x', "Extra data"),
    ('{"field": "real", "dims": [2], "rank": 0, "factors": [[1.0, 2.0]]} x', "Extra data"),
    # a missing member outranks a bad header value
    ('{"field": "integer", "dims": [2], "factors": [[1.0, 2.0]]}', "missing required field 'rank'"),
    # the header outranks the factors it was streamed past
    ('{"field": "real", "dims": [2], "rank": 0, "factors": [["x"]]}', "rank must be"),
    # the factor count outranks a bad first factor, whether short or long
    ('{"field": "real", "dims": [2, 2], "rank": 1, "factors": [[1.0]]}', "list of 2 arrays"),
    ('{"field": "real", "dims": [2], "rank": 1, "factors": [[1.0], [1.0, 2.0]]}',
     "list of 1 arrays"),
    # with the factors first, the same order holds
    ('{"factors": [[1.0]], "field": "real", "dims": [2, 2], "rank": 1}', "list of 2 arrays"),
    ('{"factors": [[1.0], ["x", 2.0]], "field": "real", "dims": [2, 2], "rank": 1}',
     "factor 1 must hold 2 entries"),
    ('{"factors": [["x"]], "field": "real", "dims": [2], "rank": 0} x', "Extra data"),
    ('{"factors": [["x"]], "field": "integer", "dims": [2], "factors": [[1.0, 2.0]]}',
     "duplicate key 'factors'"),
    ('{"factors": [[1.0, 2.0]], "dims": [2], "field": "real", "rank": 1, "dims": [3]}',
     "duplicate key 'dims'"),
    ('{"factors": [["x"]], "field": "integer", "dims": [2]}', "missing required field 'rank'"),
    ('{"factors": [["x"]], "field": "real", "dims": [2], "rank": 0}', "rank must be"),
    ('{"factors": [["x"], [1.0, 2.0]], "field": "real", "dims": [2], "rank": 1}',
     "list of 1 arrays"),
    ('{"factors": 5, "field": "real", "dims": [2], "rank": 1}', "list of 1 arrays"),
    ('{"factors": [[1.0, 2.0], [1.0, "x"]], "field": "real", "dims": [2, 2], "rank": 1}',
     "factor 2 entry 1 is not a real number"),
    # and with the factors between header members
    ('{"field": "real", "factors": [[1.0, "x"]], "dims": [2], "rank": 1}',
     "factor 1 entry 1 is not a real number"),
])
def test_reader_error_order_is_whole_document_order(tmp_path, text, message):
    path = tmp_path / "bad.cpt"
    path.write_text(text)
    with pytest.raises(CptFormatError, match=message):
        read_cpt(path)


def _factors_first(text):
    """The writer's text with the factors member moved before the header."""
    head, factors = text.split(',\n "factors": ', 1)
    return '{"factors": ' + factors[:-len("}\n")] + ",\n " + head[1:] + "}\n"


def test_reader_holds_one_factor_at_a_time(tmp_path, rng):
    # a whole-document json.load peaks at 4.2x the file size on this file,
    # and keeping the previous factor's objects through the next decode at
    # 2.9x; a factors list decoded whole when it came first peaked at 4.9x
    A = cp.CpTensor(random_factors(rng, (16, 16, 16, 16), 256, complex_=True))
    path = tmp_path / "big.cpt"
    write_cpt(A, path)
    header_first = path.read_text()
    for text in (header_first, _factors_first(header_first)):
        path.write_text(text)
        tracemalloc.start()
        try:
            B = read_cpt(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.6 * path.stat().st_size
        for fa, fb in zip(A.factors, B.factors):
            assert fa.tobytes() == fb.tobytes()


# values the writer prints in each of its ways: "%.17g" alone, with ".0"
# (integral values below 1e17, signed zeros), in exponent form (1e17 and
# up, subnormals), and 17-digit fractions
_SPECIAL = np.array([-0.0, 0.0, 0.5, -2.5, 1.0, -7.0, 1e16, 99999999999999984.0, 1e17,
                     -1e17, 5e-324, 2.2250738585072014e-308 / 3, 1 / 3, 1e308])


def _complexify(f, imag):
    # set part by part: re + 1j * im would turn every -0.0 into 0.0
    out = f.astype(complex)
    out.imag = imag
    return out


def _decline(*args):
    return None


def _count_fast_path(monkeypatch):
    """Record, per factor the reader tries, whether the fast path took it."""
    taken = []
    fast = cpt_io._parse_canonical

    def counted(*args):
        out = fast(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(cpt_io, "_parse_canonical", counted)
    return taken


def _outcome(path):
    """The tensor's bytes, or the exception's type and message."""
    try:
        B = read_cpt(path)
    except Exception as exc:  # compared across the two paths, whatever it is
        return type(exc), str(exc)
    return B.dims, B.is_complex, [f.tobytes() for f in B.factors]


@pytest.mark.parametrize("complex_", [False, True])
def test_fast_path_reads_writer_output_like_json(tmp_path, rng, monkeypatch, complex_):
    # repeat-dominated factors of special values and of half-integers, one
    # spanning more than one slice, and a factor of distinct values
    rows = cpt_io._READ_CHUNK // 2 + 7
    fs = [_SPECIAL[rng.integers(0, _SPECIAL.size, size=(40, 3))],
          rng.integers(-8, 9, size=(rows, 3)) / 2,
          rng.uniform(-3.0, 3.0, size=(30, 3)),
          np.resize(_SPECIAL, (16, 3))]
    fs[2].flat[::5] = np.resize(_SPECIAL, 18)
    if complex_:
        fs = [_complexify(f, _SPECIAL[rng.integers(0, _SPECIAL.size, size=f.shape)])
              for f in fs]
        fs[2].imag = rng.uniform(-3.0, 3.0, size=(30, 3))
    A = cp.CpTensor(fs)
    path = tmp_path / "t.cpt"
    write_cpt(A, path)
    taken = _count_fast_path(monkeypatch)
    fast = _outcome(path)
    assert taken == [True, True, False, True]
    monkeypatch.setattr(cpt_io, "_parse_canonical", _decline)
    assert _outcome(path) == fast
    assert fast[2] == [f.tobytes() for f in A.factors]


def test_fast_path_takes_a_qft_states_repeated_factors(tmp_path, monkeypatch):
    # factors 0 and 1 of a d=16 state hold 244 and 5,736 distinct values
    # among 131,072; factors 2 and 3 are mostly distinct and go to json
    layout = qft.square_layout(16)
    A = qft.run_qft(qft.random_product_state(layout, np.random.default_rng([31, 0])),
                    layout)
    path = tmp_path / "state.cpt"
    write_cpt(A, path)
    text = path.read_text()
    starts = [m.start() + 2 for m in re.finditer(r"^  \[", text, re.M)]
    assert len(starts) == 4
    decoded = []
    decode = cpt_io._decode_at

    def counted(text, idx):
        decoded.append(idx)
        return decode(text, idx)

    monkeypatch.setattr(cpt_io, "_decode_at", counted)
    B = read_cpt(path)
    assert [starts.index(i) for i in decoded if i in starts] == [2, 3]
    assert len(decoded) == 5  # field, dims and rank, then factors 2 and 3
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()


@pytest.mark.parametrize("dims,entries", [
    ([10 ** 15], "0.5, 0.5, 0.5, 0.5"),  # the header claims far more entries
    ([8], "0.5, 0.5, 0.5, 0.5"),
    ([2], "0.5, 0.5, 0.5, 0.5"),
    ([4], "0.5, 0.5, 0.5, 0.5, "),
    ([4], "0.5, 0.5, 0.5, 0.5]"),
])
def test_fast_path_declines_lists_of_the_wrong_length(tmp_path, monkeypatch, dims, entries):
    path = tmp_path / "t.cpt"
    path.write_text('{"field": "real", "dims": %s, "rank": 1, "factors": [\n  [%s]\n]}\n'
                    % (dims, entries))
    fast = _outcome(path)
    monkeypatch.setattr(cpt_io, "_parse_canonical", _decline)
    assert _outcome(path) == fast
    assert fast[0] is CptFormatError


def _token_mutants(base, rng):
    """Bad tokens put in for numbers of the factors, "]]" after one and one
    pair's brackets swapped, at a few places; and in each factor's line, one
    ", "-separated token dropped, repeated, or swapped with its neighbor (in
    a complex file, across a pair boundary: "b], [c" -> "[c, b]")."""
    body = base.index(b'"factors"')
    numbers = [m.span() for m in re.finditer(rb"-?\d+\.\d+", base[body:])]
    picks = sorted(set(rng.choice(len(numbers), size=8, replace=False).tolist())
                   | {0, len(numbers) // 2, len(numbers) - 1})
    out = []
    for t in picks:
        a, b = (body + i for i in numbers[t])
        for bad in (b"NaN", b"Infinity", b"nan", b"-inf", b"1_0", b"+1.0", b" 1.0",
                    b"1.", b".5", b"-0", b"1e400"):
            out.append(base[:a] + bad + base[b:])
        out.append(base[:b] + b"]]" + base[b:])
        opener = base.rfind(b"[", 0, a)
        closer = base.index(b"]", b)
        out.append(base[:opener] + b"]" + base[opener + 1:closer] + b"[" + base[closer + 1:])
    lines = base.split(b"\n")
    for i, line in enumerate(lines):
        if not line.startswith(b"  ["):
            continue
        tokens = line.split(b", ")
        j = 1 + 2 * int(rng.integers((len(tokens) - 3) // 2))  # odd, inside the line
        for edit in (tokens[:j] + tokens[j + 1:], tokens[:j] + tokens[j - 1:],
                     tokens[:j] + [tokens[j + 1], tokens[j]] + tokens[j + 2:]):
            out.append(b"\n".join(lines[:i] + [b", ".join(edit)] + lines[i + 1:]))
    return out


def _byte_mutants(base, rng, count):
    """``count`` copies of ``base``, each with 1-3 random byte substitutions,
    deletions or insertions."""
    alphabet = b'0123456789.-+eE[], \n"NIa_'
    out = []
    for _ in range(count):
        data = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(data)))
            byte = (alphabet[int(rng.integers(len(alphabet)))] if rng.integers(2)
                    else int(rng.integers(256)))
            op = rng.integers(3)
            if op == 0:
                data[at] = byte
            elif op == 1:
                del data[at]
            else:
                data.insert(at, byte)
        out.append(bytes(data))
    return out


@pytest.mark.parametrize("complex_", [False, True])
def test_fast_path_mutants_read_like_json(tmp_path, monkeypatch, complex_):
    rng = np.random.default_rng(40 + complex_)
    fs = [rng.integers(-2, 3, size=(n, 3)) / 2 for n in (6, 8, 10)]
    if complex_:
        fs = [_complexify(f, rng.integers(-2, 3, size=f.shape) / 2) for f in fs]
    path = tmp_path / "t.cpt"
    write_cpt(cp.CpTensor(fs), path)
    base = path.read_bytes()
    mutants = _token_mutants(base, rng) + _byte_mutants(base, rng, 250)
    taken = _count_fast_path(monkeypatch)
    fast = []
    for data in mutants:
        path.write_bytes(data)
        fast.append(_outcome(path))
    monkeypatch.setattr(cpt_io, "_parse_canonical", _decline)
    for data, want in zip(mutants, fast):
        path.write_bytes(data)
        assert _outcome(path) == want, data
    # the fast path took some factors and declined others; some mutants read
    assert any(taken) and not all(taken)
    assert any(not isinstance(out[0], type) for out in fast)


@pytest.mark.parametrize("complex_,parent_ratio", [(False, 4.02), (True, 5.40)])
def test_reader_memory_on_repeated_values(tmp_path, complex_, parent_ratio):
    # half-integer factors, each read on the fast path; json plus
    # _parse_factor peaked at parent_ratio times the file size here
    rng = np.random.default_rng(5)
    fs = [rng.integers(-8, 9, size=(16, 256)) / 2 for _ in range(4)]
    if complex_:
        fs = [f + 1j * rng.integers(-8, 9, size=(16, 256)) / 2 for f in fs]
    A = cp.CpTensor(fs)
    path = tmp_path / "half.cpt"
    write_cpt(A, path)
    text = path.read_text()
    starts = [m.start() + 2 for m in re.finditer(r"^  \[", text, re.M)]
    assert all(cpt_io._parse_canonical(text, i, 16, 256, complex_) for i in starts)
    del text
    tracemalloc.start()
    try:
        B = read_cpt(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (parent_ratio + 0.3) * path.stat().st_size
    for fa, fb in zip(A.factors, B.factors):
        assert fa.tobytes() == fb.tobytes()
