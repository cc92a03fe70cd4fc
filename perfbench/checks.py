"""Correctness checks on the outputs of the q8family CLI.

Every check compares an output with a closed form in p or with the
benchmark's own recomputation; none compares with a stored copy of an
earlier output.  Orthonormality of a table is recomputed here, without
q8family, by mapping each cyclotomic value into a prime field F_l with
l = 1 (mod n), where the n-th roots of unity exist.

Each check raises CheckError with a one-line reason, or returns a value
the caller needs (such as the parsed document).
"""

import csv
import io
import json
import re
from fractions import Fraction
from math import lcm

IDENTITY_ELEMENT = [0, 0, 1, 0, 0, 1]
FIELD_FLOOR = 1 << 62  # the prime l of F_l is above this

# selftest checks the selftest workload exists to time: the slow oracles
# and both orthogonality relations
SELFTEST_TIMED_CHECKS = ("induction_oracle", "indicator_oracle",
                         "first_orthogonality", "second_orthogonality")


class CheckError(Exception):
    """An output differs from what the closed forms or recomputation predict."""


def require(cond, reason):
    if not cond:
        raise CheckError(reason)


def is_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def parse_json(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None
    require(isinstance(doc, dict), "output JSON is not an object")
    return doc


def _row_degree(name):
    """Degree of a row from its name: 8 induced, 2 for psi, 1 inflated linear."""
    if name.startswith("ind_"):
        return 8
    return 2 if name == "psi" else 1


def _fraction(pair):
    num, den = pair
    return Fraction(int(num), int(den))


# -- verify ---------------------------------------------------------------------


def check_report(doc, p, label):
    """A `verify --format json` report against the closed forms at p."""
    n_orbits = (p * p - 1) // 8
    require(doc.get("kind") == "verification_report", "not a verification report")
    require(doc.get("prime") == p, f"prime {doc.get('prime')} != {p}")
    require(doc.get("label") == [label[0] % p, label[1] % p],
            f"label {doc.get('label')} != requested {list(label)}")
    require(doc.get("overall_pass") is True, "overall_pass is not true")
    claims = doc.get("claims") or {}
    require(claims and all(v is True for v in claims.values()),
            f"claims not all true: {claims}")
    require(doc.get("group_order") == 8 * p * p,
            f"group_order {doc.get('group_order')} != 8p^2 = {8 * p * p}")
    require(doc.get("class_count") == 5 + n_orbits,
            f"class_count {doc.get('class_count')} != 5 + (p^2-1)/8 = {5 + n_orbits}")
    degrees = sorted(doc.get("degree_multiset", []))
    require(degrees == [1] * 4 + [2] + [8] * n_orbits,
            f"degree multiset {degrees} is not four 1s, one 2 and {n_orbits} 8s")
    names = doc.get("row_names", [])
    indicators = doc.get("indicator_list", [])
    require(len(names) == len(indicators) == 5 + n_orbits,
            "row_names and indicator_list do not match the class count")
    require(sorted(_row_degree(nm) for nm in names) == degrees,
            "row names disagree with the degree multiset")
    require(indicators.count(-1) == 1, f"{indicators.count(-1)} indicators are -1, not one")
    fs_sum = sum(i * _row_degree(nm) for nm, i in zip(names, indicators))
    require(fs_sum == 1 + p * p, f"sum indicator*degree = {fs_sum} != 1 + p^2")
    require(_fraction(doc.get("induced_norm", ["0", "1"])) == 1, "induced_norm != 1")
    require(doc.get("stabilizer_size") == 1, "stabilizer_size != 1")
    require(doc.get("square_locus_size") == 2 * p * p, "square_locus_size != 2p^2")
    require(doc.get("indicator_induced") == 1 and doc.get("indicator_psi") == -1,
            "indicators of chi and psi are not +1 and -1")
    mult = doc.get("psi_multiplicity")
    require(isinstance(mult, int) and mult >= 1, f"psi_multiplicity {mult} < 1")
    dec = doc.get("decomposition", {})
    require(dec.get("psi") == mult, "decomposition disagrees with psi_multiplicity")
    weight = sum(m * _row_degree(nm) for nm, m in dec.items())
    require(weight == 64 and dec.get("triv") == 1,
            f"chi^2 decomposition weighs {weight}, not 64, or [triv] != 1")
    return doc


# -- scan -----------------------------------------------------------------------


def check_scan(doc, lo, hi):
    """A `scan --format json` summary: every odd prime in range, all labels pass."""
    primes = [p for p in range(lo, hi + 1) if is_odd_prime(p)]
    require(doc.get("kind") == "scan_summary", "not a scan summary")
    records = doc.get("records", [])
    got = [r.get("prime") for r in records]
    require(got == primes, f"primes {got} != odd primes in {lo}..{hi}: {primes}")
    for r in records:
        p = r["prime"]
        n_orbits = (p * p - 1) // 8
        require(r.get("labels_checked") == n_orbits,
                f"p={p}: labels_checked {r.get('labels_checked')} != (p^2-1)/8")
        require(r.get("group_order") == 8 * p * p, f"p={p}: group_order != 8p^2")
        mults = r.get("psi_multiplicities", [])
        require(len(mults) == n_orbits and all(m >= 1 for m in mults),
                f"p={p}: psi multiplicities {mults} are not all >= 1")
        require(r.get("pass") is True and not r.get("failures"), f"p={p}: record fails")
    require(doc.get("all_pass") is True, "all_pass is not true")
    return sum(r["labels_checked"] for r in records)


# -- selftest -------------------------------------------------------------------


def check_selftest(stdout, p, oracle_rows):
    """`selftest` text: every check line `ok`, the summary `N/N` with N lines.

    The timed checks must each appear once, and the averaging oracle must
    cover `oracle_rows` induced rows.
    """
    lines = stdout.splitlines()
    require(len(lines) >= 2, "selftest printed fewer than two lines")
    *checks, summary = lines
    bad = [ln for ln in checks if not ln.startswith("ok ")]
    require(not bad, f"selftest lines not ok: {bad[:2]}")
    want = f"selftest p={p}: {len(checks)}/{len(checks)} checks passed"
    require(summary == want, f"summary {summary!r} != {want!r}")
    names = [ln.split()[1] for ln in checks]
    for name in SELFTEST_TIMED_CHECKS:
        require(names.count(name) == 1, f"selftest ran {name} {names.count(name)} times, not once")
    oracle = checks[names.index("induction_oracle")]
    require(f"on {oracle_rows} row(s)" in oracle,
            f"induction_oracle did not cover {oracle_rows} row(s): {oracle!r}")


# -- character tables -----------------------------------------------------------


def _is_probable_prime(n):
    """Miller-Rabin with fixed bases; exact for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def field_for_order(n):
    """A prime l = 1 (mod n) above FIELD_FLOOR and a primitive n-th root of unity in F_l."""
    ell = (FIELD_FLOOR // n + 1) * n + 1
    while not _is_probable_prime(ell):
        ell += n
    factors = _prime_factors(n)
    for g in range(2, ell):
        w = pow(g, (ell - 1) // n, ell)
        if all(pow(w, n // q, ell) != 1 for q in factors):
            return ell, w
    raise AssertionError("no primitive root found")


def table_images(doc):
    """Each value of the table mapped into F_l, with its complex conjugate.

    Returns (ell, values, conjugates) where values[i][k] is the image of
    row i at class k.  zeta_n goes to w^(N/n) for the field's primitive
    N-th root w, and complex conjugation to w^(-N/n).
    """
    big_n = 1
    for ch in doc["characters"]:
        for v in ch["values"]:
            big_n = lcm(big_n, int(v["n"]))
    ell, w = field_for_order(big_n)
    powers = [1] * big_n
    for j in range(1, big_n):
        powers[j] = powers[j - 1] * w % ell
    values, conjugates = [], []
    for ch in doc["characters"]:
        row, row_conj = [], []
        for v in ch["values"]:
            step = big_n // int(v["n"])
            x = x_conj = 0
            for i, (num, den) in enumerate(v["coeffs"]):
                c = int(num) * pow(int(den), ell - 2, ell)
                x += c * powers[i * step % big_n]
                x_conj += c * powers[-i * step % big_n]
            row.append(x % ell)
            row_conj.append(x_conj % ell)
        values.append(row)
        conjugates.append(row_conj)
    return ell, values, conjugates


def check_table_doc(doc, p):
    """A table document: class data, degrees and both orthogonality relations."""
    order = 8 * p * p
    n_classes = 5 + (p * p - 1) // 8
    require(doc.get("prime") == p, f"prime {doc.get('prime')} != {p}")
    require(doc.get("group_order") == order, f"group_order != 8p^2 = {order}")
    classes, chars = doc.get("classes", []), doc.get("characters", [])
    require(len(classes) == n_classes, f"{len(classes)} classes != 5 + (p^2-1)/8")
    require(len(chars) == n_classes, f"{len(chars)} rows != {n_classes} classes")
    sizes = [c["size"] for c in classes]
    require(sum(sizes) == order, f"class sizes sum to {sum(sizes)} != |G|")
    require(all(c["size"] * c["centralizer"] == order for c in classes),
            "size x centralizer != |G| for some class")
    require(sum(ch["degree"] ** 2 for ch in chars) == order, "sum of degree^2 != |G|")
    ident = [k for k, c in enumerate(classes) if c["rep"] == IDENTITY_ELEMENT]
    require(len(ident) == 1, "no single class of the identity")
    for ch in chars:
        require(len(ch["values"]) == n_classes, f"row {ch['name']} has the wrong length")
        v = ch["values"][ident[0]]
        coeffs = [_fraction(c) for c in v["coeffs"]]
        require(coeffs[0] == ch["degree"] and not any(coeffs[1:]),
                f"row {ch['name']}: value at the identity != degree")
    indicators = [ch["indicator"] for ch in chars]
    require(indicators.count(-1) == 1, "not exactly one indicator -1")
    require(sum(ch["indicator"] * ch["degree"] for ch in chars) == 1 + p * p,
            "sum indicator*degree != 1 + p^2")

    ell, vals, conj = table_images(doc)
    for i in range(n_classes):
        for j in range(i, n_classes):
            s = sum(z * a * b for z, a, b in zip(sizes, vals[i], conj[j])) % ell
            require(s == (order if i == j else 0),
                    f"rows {chars[i]['name']}, {chars[j]['name']} not orthonormal")
    for k in range(n_classes):
        for k2 in range(k, n_classes):
            s = sum(vals[i][k] * conj[i][k2] for i in range(n_classes)) % ell
            want = classes[k]["centralizer"] if k == k2 else 0
            require(s == want, f"columns {k}, {k2} violate second orthogonality")
    return doc


_TERM = re.compile(r"(-?)(?:([0-9/]+)|(?:([0-9/]+)\*)?z(\d+)(?:\^(\d+))?)")


def parse_value(cell):
    """A printed cyclotomic value ('3', '-1/2', '1 + z17^3 - 2*z17^5') as (n, {i: c}).

    n is 1 for a rational value and the order of its root of unity
    otherwise; the dict holds the nonzero coefficients by power.
    """
    terms = cell.replace(" - ", " + -").split(" + ")
    n, coeffs = 1, {}
    for term in terms:
        m = _TERM.fullmatch(term)
        require(m is not None, f"value {cell!r} is not a cyclotomic number")
        sign, const, coeff, order, power = m.groups()
        if const is not None:
            i, c = 0, Fraction(const)
        else:
            require(n in (1, int(order)), f"value {cell!r} mixes roots of unity")
            n = int(order)
            i, c = int(power or 1), Fraction(coeff or 1)
        require(i not in coeffs, f"value {cell!r} repeats a power")
        coeffs[i] = -c if sign else c
    return n, {i: c for i, c in coeffs.items() if c}


def json_value(v):
    """A JSON table value as (n, {i: c}), in the form parse_value returns."""
    coeffs = {i: _fraction(c) for i, c in enumerate(v["coeffs"])}
    return int(v["n"]), {i: c for i, c in coeffs.items() if c}


def _check_grid(rows, doc, kind):
    """Rows of cells (header rows rep, size, centralizer, then one per character)
    against the JSON: names, degrees, indicators, class data and every value."""
    chars, classes = doc["characters"], doc["classes"]
    require(len(rows) == 3 + len(chars), f"{kind} table has {len(rows)} rows")
    want_head = [["rep"] + [" ".join(map(str, c["rep"])) for c in classes],
                 ["size"] + [str(c["size"]) for c in classes],
                 ["centralizer"] + [str(c["centralizer"]) for c in classes]]
    require(rows[:3] == want_head, f"{kind} class rows disagree with the JSON")
    for (head, *cells), ch in zip(rows[3:], chars):
        require(head == (ch["name"], ch["degree"], ch["indicator"]),
                f"{kind} row {head} disagrees with the JSON name, degree or indicator")
        require(len(cells) == len(classes), f"{kind} row {ch['name']} has the wrong length")
        for k, (cell, v) in enumerate(zip(cells, ch["values"])):
            require(parse_value(cell) == json_value(v),
                    f"{kind} row {ch['name']}, class {k}: {cell!r} != the JSON value")


_TEXT_HEAD = re.compile(r"(\S+) \(d=(\d+), fs=([+-]\d+)\)")


def check_table_text(text, doc):
    """`table --format text`: the same rows, class data and values as the JSON.

    Cells are right-aligned and joined by two or more spaces; no cell holds
    two spaces in a row, so splitting on runs of two recovers them.
    """
    lines = text.splitlines()
    require(len(lines) >= 1 and lines[0].startswith("character table of"),
            "text table has no title line")
    rows = []
    for ln in lines[1:]:
        head, *cells = re.split(r" {2,}", ln.strip())
        if len(rows) >= 3:
            m = _TEXT_HEAD.fullmatch(head)
            require(m is not None, f"text row head {head!r} is not 'name (d=D, fs=S)'")
            head = (m[1], int(m[2]), int(m[3]))
        rows.append([head] + cells)
    _check_grid(rows, doc, "text")


def check_table_csv(text, doc):
    """`table --format csv`: the same rows, class data and values as the JSON."""
    rows = list(csv.reader(io.StringIO(text)))
    n_classes = len(doc["classes"])
    require(len(rows) >= 1 and rows[0] == ["name", "degree", "indicator"]
            + [f"K{k}" for k in range(n_classes)], "csv header row is wrong")
    grid = []
    for r in rows[1:]:
        if len(grid) < 3:
            require(r[1:3] == ["", ""], f"csv class row {r[0]} has a degree or indicator")
            grid.append([r[0]] + r[3:])
        else:
            require(len(r) >= 3, f"csv row {r} is too short")
            grid.append([(r[0], int(r[1]), int(r[2]))] + r[3:])
    _check_grid(grid, doc, "csv")


def tamper_table(doc):
    """A copy of a table document with psi's indicator flipped and one value set to 7."""
    bad = json.loads(json.dumps(doc))
    psi = next(ch for ch in bad["characters"] if ch["degree"] == 2)
    psi["indicator"] = -psi["indicator"]
    psi["values"][-1] = {"n": 1, "coeffs": [["7", "1"]]}
    return bad
