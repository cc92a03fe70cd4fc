"""JSON documents, their one encoder, and the on-disk table cache.

The table document schema (versioned by its "format" field):

    {"format": 1, "prime": p, "group_order": 8 p^2,
     "classes": [{"rep": [v0, v1, a, b, c, d], "size": ..., "centralizer": ...}],
     "characters": [{"name": ..., "degree": ..., "indicator": ...,
                     "values": [value, ...]}]}

In memory, as `table_document` builds it, each value is a `RootSum`; in
JSON it is that value's `to_json_obj()`, {"n": ..., "coeffs": [[num, den],
...]}.  Values appear in class order; coefficient numerators and
denominators are exact decimal strings; every denominator is "1", as
values lie in Z[zeta_p].

Every document (table, report, scan) is written by `canonical_json`, whose
output is byte-identical to `json.dumps(obj, indent=2, ensure_ascii=True,
default=RootSum.to_json_obj)` plus a newline; that text is the stable
on-disk and stdout format.  It is not produced by `json.dumps` itself
because any `indent` makes CPython fall back to its pure-Python encoder,
which yields one small string per token, and a table document grows like
(rows)^2 (p - 1): 1.5 MB at p = 17, 6.8 MB at p = 23.  Yet a table holds
few distinct values (36 in 1681 cells at p = 17, 61 in 5041 at p = 23).
`canonical_json` writes each distinct value's text once per call, in a
memo keyed by the value's canonical form and holding value texts only,
builds each list's or dict's text with one `str.join` over its encoded
children, and leaves strings to the C-backed `encode_basestring_ascii`.

Writes go through a temp file plus rename so a crashed run never leaves
partial JSON behind.  The table cache is never read back as a table:
`load_cached_table` only compares a cache file with the text of the table
just built, so nothing read from disk is served, and a file that matches
is not rewritten.
"""

import json
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .cyclotomic import RootSum

TABLE_FORMAT = 1
REPORT_FORMAT = 1

CHUNK = 1 << 16  # characters of a cache file compared at a time


def table_document(table):
    """The document of a character table; its values are the rows' `RootSum`s."""
    ct = table.class_table
    return {
        "format": TABLE_FORMAT,
        "prime": ct.p,
        "group_order": ct.order,
        "classes": [
            {
                "rep": list(ct.rep_element(k)),
                "size": size,
                "centralizer": centralizer,
            }
            for k, (size, centralizer) in enumerate(zip(ct.sizes, ct.centralizer_orders))
        ],
        "characters": [
            {
                "name": r.name,
                "degree": r.degree,
                "indicator": r.indicator,
                "values": list(r.values),
            }
            for r in table.rows
        ],
    }


def document_values(doc):
    """The values of the table document doc, one list per row."""
    return [ch["values"] for ch in doc["characters"]]


def _report_value(value):
    """A Report field as its document holds it: a Fraction as [num, den], a tuple as a list."""
    if isinstance(value, Fraction):
        return [str(value.numerator), str(value.denominator)]
    if isinstance(value, dict):
        return {k: _report_value(v) for k, v in value.items()}
    return list(value) if isinstance(value, tuple) else value


def report_document(report):
    """The serializable form of a verification Report.

    Its fields in the order of `Report.__slots__`, `overall_pass` just
    before `timings`, and `alt_subgroup` only when set.
    """
    doc = {"format": REPORT_FORMAT, "kind": "verification_report"}
    for name in report.__slots__:
        value = getattr(report, name)
        if name == "timings":
            doc["overall_pass"] = report.overall_pass
        if value is not None:
            doc[name] = _report_value(value)
    return doc


def scan_document(lo, hi, summaries):
    return {
        "format": REPORT_FORMAT,
        "kind": "scan_summary",
        "range": [lo, hi],
        "records": summaries,
        "all_pass": all(r["pass"] for r in summaries),
    }


def canonical_json(obj):
    """The one serialization used everywhere, so outputs are byte-stable.

    Equal to `json.dumps(obj, indent=2, ensure_ascii=True,
    default=RootSum.to_json_obj) + "\n"` for every value json.dumps accepts
    with str keys.  A value JSON cannot hold, or a dict key that is not a
    str, raises TypeError.
    """
    return _encode(obj, "\n", {}) + "\n"


def _encode(o, nl, texts):
    """The JSON text of o, whose own line starts with the indentation nl.

    texts memoizes the text of each RootSum by (nl, its canonical form), and
    holds nothing else, so a table encodes each distinct value once.
    """
    if isinstance(o, RootSum):  # most leaves of a table document
        key = (nl, o.canonical())
        text = texts.get(key)
        if text is None:
            text = texts[key] = _encode(o.to_json_obj(), nl, texts)
        return text
    # The f-strings copy the joined text once, where + would copy it three times.
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        # Most leaves are strings; encoding them inline saves a call each.
        items = [_encode_str(v) if type(v) is str else _encode(v, inner, texts) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        # A key that is not a str makes _encode_str raise TypeError; json.dumps
        # would stringify a scalar key, but no document has one.
        items = [_encode_str(k) + ": "
                 + (_encode_str(v) if type(v) is str else _encode(v, inner, texts))
                 for k, v in o.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return _encode_scalar(o)


def _encode_scalar(o):
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return json.dumps(o)  # repr, or NaN / Infinity / -Infinity
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def write_atomic(path, text):
    """Write text to path via a temp file in the same directory plus rename.

    The file gets the mode `open(path, "w")` would create, 0o666 less the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates it 0o600
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_path(cache_dir, p):
    return Path(cache_dir) / f"table_p{p}.json"


def _first_difference(fh, text):
    """The offset of the first character where the open file fh and text differ, or None.

    The file is read in chunks of CHUNK characters, so no second copy of a
    large document is held.
    """
    at = 0
    while chunk := fh.read(CHUNK):
        if not text.startswith(chunk, at):
            return at + len(os.path.commonprefix((chunk, text[at:at + len(chunk)])))
        at += len(chunk)
    return None if at == len(text) else at


def load_cached_table(cache_dir, p, text):
    """text if the cache file for p holds exactly those characters, else None.

    A file that cannot be opened is a silent miss.  One that differs from
    text, or does not decode, is reported on stderr and is a miss too, so
    the caller overwrites it.
    """
    path = cache_path(cache_dir, p)
    try:
        with open(path, newline="") as fh:
            at = _first_difference(fh, text)
    except OSError:
        return None
    except UnicodeDecodeError as exc:
        problem = f"does not decode: {exc.reason}"
    else:
        if at is None:
            return text
        problem = f"differs from the table at character {at}"
    print(f"cache rejected: {path}: {problem}", file=sys.stderr)
    return None


def store_cached_table(cache_dir, p, text):
    """Cache the canonical JSON text of the table document for p."""
    write_atomic(cache_path(cache_dir, p), text)
