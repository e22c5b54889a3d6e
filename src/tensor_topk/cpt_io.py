"""Read and write the CPT text format.

A CPT file is a single UTF-8 JSON object:

    {"field": "real" | "complex",
     "dims": [n_1, ..., n_d],
     "rank": R,
     "factors": [factor_1, ..., factor_d]}

Factor p is a flat list of n_p * R numbers in row-major order; complex
entries are [re, im] pairs.  Values are written with 17 significant digits,
so write/read round-trips are bit-exact for float64.
"""

from __future__ import annotations

import json

import numpy as np

from .cp import CpTensor
from .errors import CptFormatError


def _fmt(x):
    s = format(float(x), ".17g")
    # integer-looking output would parse as a JSON int; "-0" would drop the sign
    if s.lstrip("-").isdigit():
        s += ".0"
    return s


def write_cpt(A, path):
    """Write a CpTensor to ``path`` in CPT format."""
    parts = []
    parts.append('{"field": "%s",' % ("complex" if A.is_complex else "real"))
    parts.append(' "dims": [%s],' % ", ".join(str(n) for n in A.dims))
    parts.append(' "rank": %d,' % A.rank)
    lines = []
    for f in A.factors:
        flat = f.reshape(-1)
        if A.is_complex:
            body = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in flat)
        else:
            body = ", ".join(_fmt(v) for v in flat)
        lines.append("  [" + body + "]")
    parts.append(' "factors": [\n' + ",\n".join(lines) + "\n]}")
    text = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_factor(raw, n, rank, is_complex, p):
    if not isinstance(raw, list) or len(raw) != n * rank:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise CptFormatError(
            f"factor {p + 1} must hold {n * rank} entries ({n}x{rank} row-major), got {got}"
        )
    if is_complex:
        out = np.empty(n * rank, dtype=np.complex128)
        for t, v in enumerate(raw):
            if not (isinstance(v, list) and len(v) == 2):
                raise CptFormatError(
                    f"factor {p + 1} entry {t} must be a [re, im] pair in a complex file"
                )
            out[t] = complex(float(v[0]), float(v[1]))
    else:
        out = np.empty(n * rank, dtype=np.float64)
        for t, v in enumerate(raw):
            if isinstance(v, (list, dict, str, bool)) or v is None:
                raise CptFormatError(f"factor {p + 1} entry {t} is not a real number")
            out[t] = float(v)
    if not np.all(np.isfinite(out)):
        raise CptFormatError(f"factor {p + 1} holds NaN or infinite entries")
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
