"""Read and write the CPT text format.

A CPT file is a single UTF-8 JSON object:

    {"field": "real" | "complex",
     "dims": [n_1, ..., n_d],
     "rank": R,
     "factors": [factor_1, ..., factor_d]}

Factor p is a flat list of n_p * R numbers in row-major order; complex
entries are [re, im] pairs.  Values are written with 17 significant digits,
so write/read round-trips are bit-exact for float64.  JSON has no NaN or
infinity, so the writer refuses a tensor holding one before it touches the
file, and the reader rejects them.  The writer streams: it formats and
writes each factor in bounded chunks, so its memory does not grow with the
file.  A chunk at most half of whose values are distinct, as in the first
factors of a QFT state, has each distinct value formatted once.  It
replaces an existing regular file with a new one rather than truncating
it: the new file's mode comes from the umask, and other hard links to the
old file keep the old content.  The reader accepts only JSON numbers (not
booleans, strings or null) as entries.

The reader holds the file's text plus one factor's Python objects: it walks
the top-level object member by member, and parses each element of
``factors`` into its array before decoding the next.  Key order is free and
unknown keys are skipped.  A ``factors`` list that comes before field, dims
and rank is walked element by element, each element dropped, and streamed
again once the header is in: it is decoded twice, one factor at a time.  A
key given twice, and a file that is not UTF-8, raise CptFormatError (the
CLI's exit 1), like every other malformed input.

A streamed factor whose text is exactly what the writer prints, and whose
last tokens are at most half distinct, is parsed once per distinct token
instead of through ``json``; the bits are the same.  Any other factor, and
every malformed one, goes through ``json``, so results and error messages do
not depend on which path a factor takes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import stat

import numpy as np

from .cp import CpTensor
from .errors import CptFormatError


# float64 values formatted per write call; bounds the writer's string memory.
# Even, so the (re, im) pair of a complex entry never straddles two chunks.
_WRITE_CHUNK = 1 << 14


# "%.17g" prints digits only (no '.', no exponent) exactly for the integral
# values below 1e17 in magnitude; those get ".0", since integer-looking output
# would parse as a JSON int and "-0" would drop the sign.
_REAL_FMT = np.array(["%.17g", "%.17g.0"], dtype=object)
# complex entries as "[re, im]", indexed by 2 * (re needs ".0") + (im needs ".0")
_PAIR_FMT = np.array(["[%s, %s]" % (a, b) for a in _REAL_FMT for b in _REAL_FMT],
                     dtype=object)


def _needs_point(values):
    """1 where "%.17g" prints ``values`` as bare digits, 0 elsewhere (int8)."""
    return ((values == np.trunc(values)) & (np.abs(values) < 1e17)).view(np.int8)


def _format_values(values):
    """The text of each float64 in ``values``, one str per value."""
    # "%.17g" prints no newline, so one template formats every value
    return ("\n".join(_REAL_FMT[_needs_point(values)].tolist())
            % tuple(values.tolist())).split("\n")


def _format_chunk(chunk, is_complex):
    """Text of a float64 chunk, formatted through one "%" template.

    Entries are joined by ", "; a complex chunk holds interleaved (re, im)
    values and comes out as "[re, im]" pairs.  When at most half of the
    chunk's values are distinct, each distinct bit pattern is formatted once
    and the text is built from those strings; grouping by bits keeps -0.0
    apart from 0.0.
    """
    bits = chunk.view(np.int64)
    ordered = np.sort(bits)
    starts = np.ones(chunk.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[starts]
    if 2 * distinct.size > chunk.size:
        point = _needs_point(chunk)
        if is_complex:
            fmts = _PAIR_FMT[2 * point[0::2] + point[1::2]]
        else:
            fmts = _REAL_FMT[point]
        return ", ".join(fmts.tolist()) % tuple(chunk.tolist())
    values = distinct.view(np.float64)
    texts = _format_values(values)
    ids = np.searchsorted(distinct, bits)
    if is_complex:
        texts = ["[" + t for t in texts] + [t + "]" for t in texts]
        ids[1::2] += values.size
    return ", ".join(np.array(texts, dtype=object)[ids].tolist())


def write_cpt(A, path):
    """Write a CpTensor to ``path`` in CPT format.

    An existing regular file at ``path`` is unlinked and written anew, so the
    result is a new inode: its mode comes from the umask, and hard links to
    the old file keep the old content.  A symlink is written through to its
    target, as by ``open(path, "w")``.  Raises ValueError, before the path is
    touched, when an entry is NaN or infinite.
    """
    if not all(np.isfinite(f).all() for f in A.factors):
        raise ValueError("CPT cannot store NaN or infinite factor entries")
    # Not truncated: ext4 starts writeback of a truncated-and-rewritten file
    # at close, and the next O_TRUNC of it waits for that writeback to end.
    # A temp file renamed over the old one trips the same flush.  Overwriting
    # in place without truncating could leave old and new bytes mixed after
    # a crash, in a file that still parses.  A new inode has nothing to wait on.
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"field": "%s",\n "dims": [%s],\n "rank": %d,\n "factors": [\n'
                 % ("complex" if A.is_complex else "real",
                    ", ".join(str(n) for n in A.dims), A.rank))
        for p, f in enumerate(A.factors):
            # complex entries as interleaved (re, im) float64 pairs
            flat = f.reshape(-1).view(np.float64)
            fh.write(",\n  [" if p else "  [")
            for c0 in range(0, flat.shape[0], _WRITE_CHUNK):
                fh.write((", " if c0 else "")
                         + _format_chunk(flat[c0:c0 + _WRITE_CHUNK], A.is_complex))
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


# Tokens per slice of a factor's text on the reader's fast path, and in the
# sample that decides it: bounds the str objects alive at once.  Even, so
# every slice of a complex factor starts on a pair's "[re" token.
_READ_CHUNK = 1 << 10
# Characters per token the writer never exceeds: a token, a bracket and ", "
# ("-4.9406564584124654e-324" is the longest "%.17g" output, 24 characters).
_TOKEN_SPAN = 27
# Characters per token the writer never goes below: "0.0" and ", ".
_TOKEN_MIN = 5


def _parse_canonical(text, idx, n, rank, is_complex):
    """(factor, index past it) when the list at ``idx`` is repeat-dominated
    writer output, else None.

    The writer puts each factor on a line of its own, which ends with the
    list's "]" and, when another factor follows, a ",".  So the list is taken
    to end there, and its text is split on ", " in slices of at most
    _READ_CHUNK tokens; each token is mapped to a small id, and only the
    distinct tokens are parsed.  A token is taken only if it is exactly what
    the writer prints for its finite value ("[" + re and im + "]" in a
    complex list), so no bracket but a pair's can sit inside the list.  An
    accepted list is thus one that `_parse_factor` reads to the same bits,
    and anything else is declined for the JSON path to read or report.
    Whether to try is decided from the list's last _READ_CHUNK tokens: a QFT
    state's later factors repeat within their first rows, not further on.
    """
    count = n * rank * (2 if is_complex else 1)
    line_end = text.find("\n", idx)
    if line_end < 0:
        line_end = len(text)
    tail = line_end - 1 if text.startswith(",", line_end - 1) else line_end
    if not (text.startswith("[", idx) and text.endswith("]", idx + 1, tail)
            and _TOKEN_MIN * count <= line_end - idx <= (count + 1) * _TOKEN_SPAN):
        return None
    start, stop = idx + 1, tail - 1  # the list's inside: "[re, im], ..." when complex
    span = _READ_CHUNK * _TOKEN_SPAN
    sample = text[max(start, stop - span):stop].rsplit(", ", _READ_CHUNK)
    if 2 * len(set(sample)) > len(sample):
        return None
    del sample  # not alive next to the first slice
    ids = np.empty(count, dtype=np.int32)
    lookup = {}  # token -> id, in id order
    got, pos = 0, start
    while True:
        part = text[pos:min(pos + span, stop)]
        tokens = part.split(", ", _READ_CHUNK)
        last = len(tokens) <= _READ_CHUNK
        if not last:
            pos += len(part) - len(tokens.pop())
        elif pos + len(part) != stop:
            return None  # a token longer than any the writer prints
        if got + len(tokens) > count:
            return None
        lookup.update(zip(set(tokens).difference(lookup), itertools.count(len(lookup))))
        ids[got:got + len(tokens)] = np.fromiter(map(lookup.__getitem__, tokens),
                                                 np.int32, len(tokens))
        got += len(tokens)
        if last:
            break
    if got != count:
        return None
    distinct = list(lookup)
    if is_complex:
        opens = np.array([t.startswith("[") for t in distinct])
        if (not opens[ids[0::2]].all() or opens[ids[1::2]].any()
                or not all(t.endswith("]") for t, o in zip(distinct, opens) if not o)):
            return None
        distinct = [t[1:] if o else t[:-1] for t, o in zip(distinct, opens)]
    try:
        values = np.array(list(map(float, distinct)), dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all() or _format_values(values) != distinct:
        return None
    out = values[ids]
    if is_complex:
        out = out.view(np.complex128)
    return out.reshape(n, rank), tail


def _check_header(header):
    """(is_complex, dims, rank) of the header members, checked in that order."""
    field = header["field"]
    if field not in ("real", "complex"):
        raise CptFormatError(f"field must be 'real' or 'complex', got {field!r}")
    dims = header["dims"]
    if (not isinstance(dims, list) or not dims
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in dims)):
        raise CptFormatError("dims must be a non-empty list of positive integers")
    rank = header["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise CptFormatError(f"rank must be a positive integer, got {rank!r}")
    return field == "complex", dims, rank


# the required members, in the order a missing one is reported
_MEMBERS = ("field", "dims", "rank", "factors")
_decode_at = json.JSONDecoder().raw_decode


def _skip_ws(text, idx):
    return json.decoder.WHITESPACE.match(text, idx).end()


def _expect(text, idx, char, what):
    """Index past ``char`` at ``idx``; anything else is a JSON syntax error."""
    if not text.startswith(char, idx):
        raise json.JSONDecodeError(f"Expecting {what}", text, idx)
    return idx + 1


class _Walk:
    """One pass over the top-level object of a CPT document.

    Members are decoded one at a time, and every element of a ``factors``
    list is decoded and dropped before the next, so one factor's Python
    objects are alive at a time.  Once field, dims and rank are in, each
    element is also parsed into its array.  A ``factors`` list that comes
    before them is only walked, and its index kept; once the walk is done
    and the header is in, the list is streamed again from that index.

    A format error met on the way is kept, not raised: parsing stops and the
    rest is only decoded.  So a JSON error anywhere still wins, and the
    checks report in the order of a whole-document parse: duplicate key,
    missing member, header, factor count, factors.
    """

    def __init__(self):
        self.seen = set()
        self.duplicate = None   # the first key seen twice
        self.members = {}       # the header members (last if repeated)
        self.mats = []          # streamed factors, parsed, in mode order
        self.n_streamed = None  # element count of a factors list
        self.pending = None     # index of a factors list met before the header
        self.error = None       # the first format error met while streaming

    def run(self, text, idx):
        """Walk the object whose '{' is at ``idx``; raises JSONDecodeError."""
        idx = _skip_ws(text, idx + 1)
        if not text.startswith("}", idx):
            while True:
                idx = _expect(text, idx, '"', "property name enclosed in double quotes")
                key, idx = json.decoder.scanstring(text, idx)
                idx = _skip_ws(text, idx)
                idx = _skip_ws(text, _expect(text, idx, ":", "':' delimiter"))
                if key in self.seen and self.duplicate is None:
                    self.duplicate = key
                self.seen.add(key)
                if key == "factors" and text.startswith("[", idx):
                    idx = self._stream_factors(text, idx)
                else:
                    value, idx = _decode_at(text, idx)
                    if key in _MEMBERS[:3]:
                        self.members[key] = value
                    del value  # not kept alive through the next decode
                idx = _skip_ws(text, idx)
                if not text.startswith(",", idx):
                    break
                idx = _skip_ws(text, idx + 1)
        idx = _skip_ws(text, _expect(text, idx, "}", "',' delimiter"))
        if idx != len(text):
            raise json.JSONDecodeError("Extra data", text, idx)
        if self.pending is not None and self.seen.issuperset(_MEMBERS[:3]):
            self._stream_factors(text, self.pending)

    def _stream_factors(self, text, idx):
        """Walk the list at ``idx`` element by element, parsing each once the
        header is in; index past its ']'."""
        dims = ()
        if not self.seen.issuperset(_MEMBERS[:3]):
            self.pending = idx
        else:
            try:
                is_complex, dims, rank = _check_header(self.members)
            except CptFormatError as exc:
                self.error = self.error or exc
        self.n_streamed = 0
        idx = _skip_ws(text, idx + 1)
        if text.startswith("]", idx):
            return idx + 1
        while True:
            p = self.n_streamed
            parse = self.error is None and p < len(dims)
            fast = _parse_canonical(text, idx, dims[p], rank, is_complex) if parse else None
            if fast is not None:
                mat, idx = fast
                self.mats.append(mat)
            else:
                raw, idx = _decode_at(text, idx)
                if parse:
                    try:
                        self.mats.append(_parse_factor(raw, dims[p], rank, is_complex, p))
                    except CptFormatError as exc:
                        self.error = exc
                del raw  # before the next element is decoded
            self.n_streamed += 1
            idx = _skip_ws(text, idx)
            if not text.startswith(",", idx):
                return _expect(text, idx, "]", "',' delimiter")
            idx = _skip_ws(text, idx + 1)

    def tensor(self):
        """The checked CpTensor, or the first format error in report order."""
        if self.duplicate is not None:
            raise CptFormatError(f"duplicate key {self.duplicate!r}")
        for key in _MEMBERS:
            if key not in self.seen:
                raise CptFormatError(f"missing required field '{key}'")
        dims = _check_header(self.members)[1]
        if self.n_streamed != len(dims):
            raise CptFormatError(
                f"factors must be a list of {len(dims)} arrays (one per mode)"
            )
        if self.error is not None:
            raise self.error
        return CpTensor(self.mats)


def read_cpt(path):
    """Parse a CPT file into a CpTensor; malformed input raises CptFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CptFormatError(f"not UTF-8 text: {exc}") from exc
    walk = _Walk()
    start = _skip_ws(text, 0)
    try:
        if text.startswith("{", start):
            walk.run(text, start)
        else:
            json.loads(text)  # raises its own error, or holds a non-object
    except json.JSONDecodeError as exc:
        raise CptFormatError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past int()'s digit limit, or nesting past the stack
        raise CptFormatError(f"cannot decode JSON: {exc}") from exc
    if not text.startswith("{", start):
        raise CptFormatError("top level must be a single object")
    return walk.tensor()
