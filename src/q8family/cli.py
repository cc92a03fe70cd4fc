"""Command-line front end: verify, table, scan, selftest.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 internal
invariant violation.  Output to --out goes through an atomic temp-file
rename, so failed runs never leave partial files.
"""

import argparse
import io
import os
import sys

# The layers are lazy modules (see the package docstring): each is compiled
# and run when a command first calls into it, so they are called by attribute.
from . import characters, selftest, serialize, verify
from .errors import InvariantError, UsageError
from .modp import DEFAULT_PRIME_BOUND, require_odd_prime

CACHE_ENV = "Q8FAMILY_CACHE_DIR"


def _parse_label(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"label must look like 'a,b', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError(f"label must be two integers, got {text!r}") from None


def _parse_prime_range(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"prime range must look like 'A..B', got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"prime range bounds must be integers, got {text!r}") from None
    return lo, hi


def build_parser():
    parser = argparse.ArgumentParser(
        prog="q8family",
        description="Exact character tables and Frobenius-Schur certificates "
                    "for the groups (C_p x C_p) : Q8.")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(sp, handler, fmt_choices=None):
        if fmt_choices:
            sp.add_argument("--format", dest="fmt", choices=fmt_choices, default="text")
            sp.add_argument("--out", help="write output to this path (atomically)")
        sp.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND,
                        help="largest admissible prime (default %(default)s)")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("verify", help="certify the claims for one prime")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--label", help="starting character of V as 'a,b' "
                                    "(default: smallest nontrivial)")
    sp.add_argument("--alt-subgroup", action="store_true",
                    help="also verify against a conjugate quaternion subgroup")
    finish(sp, cmd_verify, ("text", "json"))

    sp = sub.add_parser("table", help="emit the full character table")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--cache", dest="cache_dir",
                    help=f"cache directory (default ${CACHE_ENV})")
    finish(sp, cmd_table, ("text", "json", "csv"))

    sp = sub.add_parser("scan", help="verify all labels for a range of primes")
    sp.add_argument("--primes", required=True, help="inclusive range 'A..B'")
    sp.add_argument("--jobs", type=int, default=1,
                    help="primes processed in parallel (default 1)")
    sp.add_argument("--alt-subgroup", action="store_true")
    finish(sp, cmd_scan, ("text", "json"))

    sp = sub.add_parser("selftest", help="run the invariant suite for one prime")
    sp.add_argument("--prime", type=int, required=True)
    finish(sp, cmd_selftest)

    return parser


def _emit(args, text):
    if args.out:
        try:
            serialize.write_atomic(args.out, text)
        except OSError as e:
            raise UsageError(f"cannot write {args.out}: {e}") from None
    else:
        sys.stdout.write(text)


# -- rendering ----------------------------------------------------------------


def render_report_text(report):
    p = report.prime
    bd = report.indicator_breakdown
    lines = [
        f"p = {p}: G = (C_{p} x C_{p}) : Q8, |G| = {report.group_order}, "
        f"{report.class_count} conjugacy classes",
        f"label {report.label} (orbit representative {report.orbit_rep}):",
        f"  stabilizer in Q has size {report.stabilizer_size} "
        f"-> {'trivial, induced character irreducible' if report.stabilizer_size == 1 else 'NOT trivial'}",
        f"  [chi, chi] = {report.induced_norm}  "
        f"(norm 1 certifies irreducibility)",
        f"  indicator of chi: class formula {report.indicator_induced:+d}, "
        f"element-wise sum {report.indicator_induced_direct:+d}",
        f"    breakdown: (|V| chi(1) + |V| [chi_V, 1_V]) / |G| = "
        f"({bd['core_order']}*{bd['degree']} + {bd['core_order']}*{bd['restriction_inner']}) "
        f"/ {bd['group_order']} = {bd['numerator'] / bd['group_order']}",
        f"  psi = unique degree-2 row: indicator {report.indicator_psi:+d} "
        f"(element-wise {report.indicator_psi_direct:+d})",
        f"  [chi^2, psi] = {report.psi_multiplicity}  (containment needs >= 1)",
        "  chi^2 = "
        + " + ".join(f"{m}*{nm}" for nm, m in report.decomposition.items() if m),
        f"  square locus {{g : g^2 in V}} = V<z>, size {report.square_locus_size} "
        f"= 2 p^2 = {2 * p * p}",
        f"  degrees {list(report.degree_multiset)}, "
        f"indicators {list(report.indicator_list)}",
        "  claims: " + ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in report.claims.items()),
        "  checks: " + ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in report.checks.items()),
    ]
    if report.alt_subgroup is not None:
        alt = report.alt_subgroup
        lines.append(
            f"  conjugate subgroup (by {alt['conjugator']}): "
            f"{'same verdict' if alt['pass'] else 'FAIL'}, "
            f"[chi^2, psi] = {alt['psi_multiplicity']}")
    lines.append(f"VERDICT: {'PASS' if report.overall_pass else 'FAIL'} "
                 f"(p={p}, label {report.label})")
    return "\n".join(lines) + "\n"


def _value_texts(doc):
    """The str of each value of the table document doc, one list per row.

    str runs once per distinct value: equal values share their canonical form.
    """
    texts = {}

    def text(v):
        key = v.canonical()
        t = texts.get(key)
        if t is None:
            t = texts[key] = str(v)
        return t

    return [[text(v) for v in row] for row in serialize.document_values(doc)]


def render_table_text(doc):
    """The table document doc as aligned text."""
    p = doc["prime"]
    classes = doc["classes"]
    header = (f"character table of (C_{p} x C_{p}) : Q8   "
              f"|G| = {doc['group_order']}   {len(classes)} classes")
    rep_row = ["rep"] + [" ".join(map(str, c["rep"])) for c in classes]
    size_row = ["size"] + [str(c["size"]) for c in classes]
    cent_row = ["centralizer"] + [str(c["centralizer"]) for c in classes]
    body = [[f"{ch['name']} (d={ch['degree']}, fs={ch['indicator']:+d})", *vals]
            for ch, vals in zip(doc["characters"], _value_texts(doc))]
    rows = [rep_row, size_row, cent_row] + body
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [header]
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def render_table_csv(doc):
    """The table document doc as csv."""
    import csv  # here, not at the top: no other command needs it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    classes = doc["classes"]
    writer.writerow(["name", "degree", "indicator"]
                    + ["K" + str(i) for i in range(len(classes))])
    writer.writerow(["rep", "", ""] + [" ".join(map(str, c["rep"])) for c in classes])
    writer.writerow(["size", "", ""] + [c["size"] for c in classes])
    writer.writerow(["centralizer", "", ""] + [c["centralizer"] for c in classes])
    for ch, vals in zip(doc["characters"], _value_texts(doc)):
        writer.writerow([ch["name"], ch["degree"], ch["indicator"], *vals])
    return buf.getvalue()


def _compact_multiplicities(mults):
    counts = {}
    for m in mults:
        counts[m] = counts.get(m, 0) + 1
    return ",".join(f"{m}x{c}" for m, c in sorted(counts.items()))


def render_scan_text(summaries):
    lines = []
    for rec in summaries:
        lines.append(
            f"p={rec['prime']:<3d} |G|={rec['group_order']:<5d} "
            f"labels={rec['labels_checked']:<3d} "
            f"[chi^2,psi]={_compact_multiplicities(rec['psi_multiplicities']):<8s} "
            f"{'PASS' if rec['pass'] else 'FAIL'}  ({rec['seconds']:.2f}s)")
        for f in rec["failures"]:
            lines.append(f"    FAILED label {tuple(f['label'])}")
    ok = all(r["pass"] for r in summaries)
    lines.append(f"scan: {len(summaries)} primes, "
                 f"{'all pass' if ok else 'FAILURES PRESENT'}")
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------------


def cmd_verify(args):
    label = None if args.label is None else _parse_label(args.label)
    report = verify.verify_prime(args.prime, label, args.bound, args.alt_subgroup)
    if args.fmt == "json":
        _emit(args, serialize.canonical_json(serialize.report_document(report)))
    else:
        _emit(args, render_report_text(report))
    return 0 if report.overall_pass else 1


def cmd_table(args):
    p = args.prime
    require_odd_prime(p, args.bound)  # before any work, the cache included
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    doc = serialize.table_document(characters.character_table(p))
    text = serialize.canonical_json(doc) if cache_dir or args.fmt == "json" else None
    if cache_dir:
        path = serialize.cache_path(cache_dir, p)
        if serialize.load_cached_table(cache_dir, p, text) is not None:
            print(f"cache hit: {path}", file=sys.stderr)
        else:
            try:
                serialize.store_cached_table(cache_dir, p, text)
            except OSError as e:
                raise UsageError(f"cannot write cache {path}: {e}") from None
    render = {"csv": render_table_csv, "text": render_table_text}.get(args.fmt)
    _emit(args, render(doc) if render else text)
    return 0


def cmd_scan(args):
    lo, hi = _parse_prime_range(args.primes)
    if args.jobs < 1:  # as scan_primes does, but before any layer is compiled
        raise UsageError("--jobs must be >= 1")
    summaries = verify.scan_primes(lo, hi, args.bound, args.alt_subgroup, args.jobs)
    if args.fmt == "json":
        _emit(args, serialize.canonical_json(serialize.scan_document(lo, hi, summaries)))
    else:
        _emit(args, render_scan_text(summaries))
    if all(r["pass"] for r in summaries):
        return 0
    for rec in summaries:
        for f in rec["failures"]:
            print(f"verification failed at p={rec['prime']}, "
                  f"label {tuple(f['label'])}", file=sys.stderr)
    return 1


def cmd_selftest(args):
    results = selftest.run_selftest(args.prime, args.bound)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name.ljust(width)}  {r.detail}")
    ok = all(r.ok for r in results)
    print(f"selftest p={args.prime}: "
          f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return 0 if ok else 3


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
