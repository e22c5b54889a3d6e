"""Read and write the CPT text format.

A CPT file is a single UTF-8 JSON object:

    {"field": "real" | "complex",
     "dims": [n_1, ..., n_d],
     "rank": R,
     "factors": [factor_1, ..., factor_d]}

Factor p is a flat list of n_p * R numbers in row-major order; complex
entries are [re, im] pairs.  Values are written with 17 significant digits,
so write/read round-trips are bit-exact for float64.  JSON has no NaN or
infinity, so the writer refuses a tensor holding one before it opens the
file, and the reader rejects them.  The writer streams: it formats and
writes each factor in bounded chunks, so its memory does not grow with the
file.  The reader accepts only JSON numbers (not booleans, strings or null)
as entries.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .cp import CpTensor
from .errors import CptFormatError


# float64 values formatted per write call; bounds the writer's string memory.
# Even, so the (re, im) pair of a complex entry never straddles two chunks.
_WRITE_CHUNK = 1 << 16


def _format_chunk(chunk):
    """Strings of a float64 chunk: "%.17g", with ".0" after integral values.

    Integer-looking output would parse as a JSON int, and "-0" would drop
    the sign.  "%.17g" prints digits only (no '.', no exponent) exactly for
    the integral values below 1e17 in magnitude, so only those get ".0".
    """
    text = list(map("%.17g".__mod__, chunk.tolist()))
    for t in np.flatnonzero((chunk == np.trunc(chunk)) & (np.abs(chunk) < 1e17)):
        text[t] += ".0"
    return text


def write_cpt(A, path):
    """Write a CpTensor to ``path`` in CPT format.

    Raises ValueError, before the file is opened, when an entry is NaN or
    infinite.
    """
    if not all(np.isfinite(f).all() for f in A.factors):
        raise ValueError("CPT cannot store NaN or infinite factor entries")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"field": "%s",\n "dims": [%s],\n "rank": %d,\n "factors": [\n'
                 % ("complex" if A.is_complex else "real",
                    ", ".join(str(n) for n in A.dims), A.rank))
        for p, f in enumerate(A.factors):
            # complex entries as interleaved (re, im) float64 pairs
            flat = f.reshape(-1).view(np.float64)
            fh.write(",\n  [" if p else "  [")
            for c0 in range(0, flat.shape[0], _WRITE_CHUNK):
                text = _format_chunk(flat[c0:c0 + _WRITE_CHUNK])
                if A.is_complex:
                    pairs = iter(text)
                    text = map("[%s, %s]".__mod__, zip(pairs, pairs))
                fh.write((", " if c0 else "") + ", ".join(text))
            fh.write("]")
        fh.write("\n]}\n")


# JSON numbers as json.load returns them; bool is excluded by exact type
_NUMBER_TYPES = frozenset((int, float))


def _parse_factor(raw, n, rank, is_complex, p):
    if not isinstance(raw, list) or len(raw) != n * rank:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise CptFormatError(
            f"factor {p + 1} must hold {n * rank} entries ({n}x{rank} row-major), got {got}"
        )
    # type checks run as set scans; the slow searches below only name the entry
    entries = raw
    if is_complex:
        if set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
            t = next(t for t, v in enumerate(raw) if type(v) is not list or len(v) != 2)
            raise CptFormatError(
                f"factor {p + 1} entry {t} must be a [re, im] pair in a complex file"
            )
        entries = list(itertools.chain.from_iterable(raw))
    if not set(map(type, entries)) <= _NUMBER_TYPES:
        t = next(t for t, v in enumerate(entries) if type(v) not in _NUMBER_TYPES)
        if is_complex:
            raise CptFormatError(f"factor {p + 1} entry {t // 2} is not a pair of numbers")
        raise CptFormatError(f"factor {p + 1} entry {t} is not a real number")
    try:
        out = np.array(entries, dtype=np.float64)
    except OverflowError as exc:
        raise CptFormatError(f"factor {p + 1} holds an integer too large for float64") from exc
    if not np.all(np.isfinite(out)):
        raise CptFormatError(f"factor {p + 1} holds NaN or infinite entries")
    if is_complex:
        out = out.view(np.complex128)
    return out.reshape(n, rank)


def read_cpt(path):
    """Parse a CPT file into a CpTensor; malformed input raises CptFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CptFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CptFormatError("top level must be a single object")
    for key in ("field", "dims", "rank", "factors"):
        if key not in doc:
            raise CptFormatError(f"missing required field '{key}'")
    field = doc["field"]
    if field not in ("real", "complex"):
        raise CptFormatError(f"field must be 'real' or 'complex', got {field!r}")
    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in dims)):
        raise CptFormatError("dims must be a non-empty list of positive integers")
    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise CptFormatError(f"rank must be a positive integer, got {rank!r}")
    factors = doc["factors"]
    if not isinstance(factors, list) or len(factors) != len(dims):
        raise CptFormatError(
            f"factors must be a list of {len(dims)} arrays (one per mode)"
        )
    mats = [
        _parse_factor(raw, n, rank, field == "complex", p)
        for p, (raw, n) in enumerate(zip(factors, dims))
    ]
    return CpTensor(mats)
