"""JSON documents, their one encoder, and the on-disk table cache.

The table document schema (versioned by its "format" field):

    {"format": 1, "prime": p, "group_order": 8 p^2,
     "classes": [{"rep": [v0, v1, a, b, c, d], "size": ..., "centralizer": ...}],
     "characters": [{"name": ..., "degree": ..., "indicator": ...,
                     "values": [{"n": ..., "coeffs": [[num, den], ...]}, ...]}]}

Values appear in class order; coefficient numerators and denominators are
exact decimal strings; every denominator is "1", as values lie in Z[zeta_p].

Every document (table, report, scan) is written by `canonical_json`, whose
output is byte-identical to `json.dumps(obj, indent=2, ensure_ascii=True)`
plus a newline; that text is the stable on-disk and stdout format.  It is
not produced by `json.dumps` itself because any `indent` makes CPython fall
back to its pure-Python encoder, which yields one small string per token,
and a table document grows like (rows)^2 (p - 1): 1.5 MB at p = 17,
6.8 MB at p = 23.  `canonical_json` instead builds each list's or dict's
text with one `str.join` over its encoded children, and leaves strings to
the C-backed `encode_basestring_ascii`; on a table document it takes
about half the time of `json.dumps(indent=2)`, and less memory.

Writes go through a temp file plus rename so a crashed run never leaves
partial JSON behind.  A cached document is served only when its integer
fields satisfy the table invariants and every value parses as a `RootSum`
at its prime; the values are not checked against the group.
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


def _frac_pair(f):
    f = Fraction(f)
    return [str(f.numerator), str(f.denominator)]


def table_document(table):
    """The serializable form of a character table."""
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
                "values": [v.to_json_obj() for v in r.values],
            }
            for r in table.rows
        ],
    }


def document_values(doc):
    """The document's values as `RootSum`s, one list per row; ValueError if one does not parse."""
    p = doc["prime"]
    return [[RootSum.from_json_obj(v, p) for v in ch["values"]] for ch in doc["characters"]]


def report_document(report):
    """The serializable form of a verification Report."""
    breakdown = dict(report.indicator_breakdown)
    breakdown["restriction_inner"] = _frac_pair(breakdown["restriction_inner"])
    breakdown["numerator"] = _frac_pair(breakdown["numerator"])
    doc = {
        "format": REPORT_FORMAT,
        "kind": "verification_report",
        "prime": report.prime,
        "label": list(report.label),
        "orbit_rep": list(report.orbit_rep),
        "group_order": report.group_order,
        "class_count": report.class_count,
        "degree_multiset": list(report.degree_multiset),
        "indicator_list": list(report.indicator_list),
        "row_names": list(report.row_names),
        "stabilizer_size": report.stabilizer_size,
        "induced_norm": _frac_pair(report.induced_norm),
        "indicator_induced": report.indicator_induced,
        "indicator_induced_direct": report.indicator_induced_direct,
        "indicator_psi": report.indicator_psi,
        "indicator_psi_direct": report.indicator_psi_direct,
        "psi_multiplicity": report.psi_multiplicity,
        "decomposition": dict(report.decomposition),
        "indicator_breakdown": breakdown,
        "claims": dict(report.claims),
        "checks": dict(report.checks),
        "square_locus_size": report.square_locus_size,
        "overall_pass": report.overall_pass,
        "timings": dict(report.timings),
    }
    if report.alt_subgroup is not None:
        doc["alt_subgroup"] = dict(report.alt_subgroup)
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

    Equal to `json.dumps(obj, indent=2, ensure_ascii=True) + "\n"` for every
    value json.dumps accepts with str keys.  A value JSON cannot hold, or a
    dict key that is not a str, raises TypeError.
    """
    return _encode(obj, "\n") + "\n"


def _encode(o, nl):
    """The JSON text of o, whose own line starts with the indentation nl."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        # Most leaves are strings; encoding them inline saves a call each.
        items = [_encode_str(v) if type(v) is str else _encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # A key that is not a str makes _encode_str raise TypeError; json.dumps
        # would stringify a scalar key, but no document has one.
        items = [_encode_str(k) + ": "
                 + (_encode_str(v) if type(v) is str else _encode(v, inner))
                 for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
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
    """The first integer invariant the table document for p breaks, or None."""
    try:
        classes, chars = doc["classes"], doc["characters"]
        order = doc["group_order"]
        sizes = [c["size"] for c in classes]
        cents = [c["centralizer"] for c in classes]
        degrees = [ch["degree"] for ch in chars]
        indicators = [ch["indicator"] for ch in chars]
        value_counts = [len(ch["values"]) for ch in chars]
    except (KeyError, TypeError):
        return "missing or malformed fields"
    if not all(type(x) is int for x in [order, *sizes, *cents, *degrees, *indicators]):
        return "non-integer order, size, centralizer, degree or indicator"
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
    """(doc, document_values(doc)) for p, or None if absent, stale, unreadable or invalid.

    p must be an odd prime.  A document is invalid when it breaks an
    integer invariant or a value does not parse; it is reported on stderr
    and then treated as a miss, so the caller recomputes and overwrites it.
    """
    path = cache_path(cache_dir, p)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):  # not UTF-8, not JSON, too deep
        return None
    if not isinstance(doc, dict) or doc.get("format") != TABLE_FORMAT:
        return None
    if doc.get("prime") != p:
        return None
    problem = table_document_problem(doc, p)
    if problem is None:
        try:
            values = document_values(doc)
        except ValueError as exc:
            problem = f"a character value does not parse: {exc}"
    if problem is not None:
        print(f"cache rejected: {path}: {problem}", file=sys.stderr)
        return None
    return doc, values


def store_cached_table(cache_dir, p, text):
    """Cache the canonical JSON text of the table document for p."""
    write_atomic(cache_path(cache_dir, p), text)
