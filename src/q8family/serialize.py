"""JSON documents, their one encoder, and the on-disk table cache.

The table document schema (versioned by its "format" field):

    {"format": 1, "prime": p, "group_order": 8 p^2,
     "classes": [{"rep": [v0, v1, a, b, c, d], "size": ..., "centralizer": ...}],
     "characters": [{"name": ..., "degree": ..., "indicator": ...,
                     "values": [value, ...]}]}

In memory, as `table_document` builds it and `load_cached_table` returns
it, each value is a `RootSum`; in JSON it is that value's `to_json_obj()`,
{"n": ..., "coeffs": [[num, den], ...]}.  Values appear in class order;
coefficient numerators and denominators are exact decimal strings; every
denominator is "1", as values lie in Z[zeta_p].

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
partial JSON behind.  A cached document is served only when it has
exactly the keys and types `table_document` writes, its integer fields
satisfy the table invariants and every value parses as a `RootSum` at its
prime; the values are not checked against the group.
"""

import json
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .characters import (class_partition_holds, degree_sum_holds,
                         family_class_count, fs_sum_rule, quaternionic_row_unique)
from .cyclotomic import RootSum

TABLE_FORMAT = 1
REPORT_FORMAT = 1

# the keys `table_document` writes, at each level; a cached document has exactly these
TABLE_KEYS = {"format", "prime", "group_order", "classes", "characters"}
CLASS_KEYS = {"rep", "size", "centralizer"}
CHARACTER_KEYS = {"name", "degree", "indicator", "values"}


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
                "size": ct.sizes[k],
                "centralizer": ct.centralizer_orders[k],
            }
            for k in range(ct.n_classes)
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


def _value_key(obj):
    """A hashable key of a value as `json.load` gives it, or None for some that do not parse.

    Two values get equal keys only when they are the same JSON up to key
    order.  So "n" must be an int, because JSON true, 1 and 1.0 are equal
    in Python, and every coefficient a list, because tuple() reads a
    string or an object as it reads a list.
    """
    if (type(obj) is dict and len(obj) == 2 and type(n := obj.get("n")) is int
            and type(pairs := obj.get("coeffs")) is list and {*map(type, pairs)} == {list}):
        key = (n, *map(tuple, pairs))
        try:
            hash(key)
        except TypeError:  # a coefficient holds a list or an object
            return None
        return key
    return None


def document_values(doc):
    """The values of a parsed JSON document as `RootSum`s, one list per row.

    The first cell of each distinct JSON value is parsed, and the later
    ones share its `RootSum`; `RootSum.from_json_obj` accepts one spelling
    per value, so a cache hit holds one `RootSum` per distinct value.
    ValueError, for the first cell in document order that does not parse.
    """
    p = doc["prime"]
    parsed = {}

    def value(obj):
        key = _value_key(obj)
        v = parsed.get(key)
        if v is None:  # the None key is never stored: its values raise here
            v = parsed[key] = RootSum.from_json_obj(obj, p)
        return v

    return [[value(obj) for obj in ch["values"]] for ch in doc["characters"]]


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


def table_document_problem(doc, p):
    """The first shape or integer invariant the table document for p breaks, or None.

    Its keys must be exactly those `table_document` writes, at each level.
    """
    try:
        classes, chars = doc["classes"], doc["characters"]
        if (doc.keys() != TABLE_KEYS or not all(c.keys() == CLASS_KEYS for c in classes)
                or not all(ch.keys() == CHARACTER_KEYS for ch in chars)):
            return "fields other than those of a table document"
        order = doc["group_order"]
        reps = [c["rep"] for c in classes]
        sizes = [c["size"] for c in classes]
        cents = [c["centralizer"] for c in classes]
        degrees = [ch["degree"] for ch in chars]
        indicators = [ch["indicator"] for ch in chars]
        value_counts = [len(ch["values"]) for ch in chars]
    except (AttributeError, KeyError, TypeError):
        return "missing or malformed fields"
    if not all(type(x) is int for x in [order, *sizes, *cents, *degrees, *indicators]):
        return "non-integer order, size, centralizer, degree or indicator"
    if not all(type(ch["name"]) is str for ch in chars):
        return "a character name that is not a string"
    if not all(type(r) is list and len(r) == 6 and all(type(x) is int for x in r) for r in reps):
        return "a class rep that is not a list of six ints"
    if order != 8 * p * p:
        return f"group order {order} != 8 p^2"
    if not len(classes) == len(chars) == family_class_count(p):
        return f"{len(classes)} classes and {len(chars)} rows, not 5 + (p^2-1)/8"
    if not class_partition_holds(order, sizes, cents):
        return "class sizes and centralizers do not partition G"
    if not degree_sum_holds(order, degrees):
        return "degrees squared do not sum to |G|"
    if any(n != len(classes) for n in value_counts):
        return "a row does not have one value per class"
    if not fs_sum_rule(p, degrees, indicators)[0]:
        return "indicator-weighted degrees do not sum to 1 + p^2"
    if not quaternionic_row_unique(degrees, indicators):
        return "indicator -1 is not on the unique degree-2 row alone"
    return None


def load_cached_table(cache_dir, p):
    """The cached table document for p, or None if absent, stale, unreadable or invalid.

    p must be an odd prime; a "format" or "prime" other than the int
    TABLE_FORMAT or p is a miss.  A document is invalid when its keys are
    not exactly those `table_document` writes, a name is not a str or a
    rep not six ints, it breaks an integer invariant, or a value does not
    parse; it is reported on stderr and then treated as a miss, so the
    caller recomputes and overwrites it.
    A valid one is returned as `table_document` builds it: its values are
    the parsed `RootSum`s.
    """
    path = cache_path(cache_dir, p)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):  # not UTF-8, not JSON, too deep
        return None
    if type(doc) is not dict:
        return None
    fmt, prime = doc.get("format"), doc.get("prime")
    if type(fmt) is not int or fmt != TABLE_FORMAT or type(prime) is not int or prime != p:
        return None  # another format or prime: a miss, not a fault
    problem = table_document_problem(doc, p)
    if problem is None:
        try:
            values = document_values(doc)
        except ValueError as exc:
            problem = f"a character value does not parse: {exc}"
    if problem is not None:
        print(f"cache rejected: {path}: {problem}", file=sys.stderr)
        return None
    for ch, row in zip(doc["characters"], values):
        ch["values"] = row
    return doc


def store_cached_table(cache_dir, p, text):
    """Cache the canonical JSON text of the table document for p."""
    write_atomic(cache_path(cache_dir, p), text)
