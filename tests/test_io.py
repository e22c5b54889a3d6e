"""CPT file round-trips and parser validation."""

import json

import numpy as np
import pytest

from conftest import random_factors
from tensor_topk import cp
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
