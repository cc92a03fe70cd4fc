#!/usr/bin/env python3
"""Tabulate the exact multiplicity of the degree-2 row in chi^2.

The certified claim only needs multiplicity >= 1; this script records the
exact value for every orbit representative at every prime in range, to see
whether it ever moves off 2.

Example (about 2 s; it prints multiplicity 2 for all 105 orbits at p = 29):
    python scripts/multiplicity_census.py --max-prime 29
"""

import argparse
import sys
from collections import Counter

from q8family.characters import character_table, label_orbits, tensor_square_decompose
from q8family.modp import is_odd_prime


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-prime", type=int, default=3)
    ap.add_argument("--max-prime", type=int, default=13)
    ap.add_argument("--bound", type=int, default=97)
    ap.add_argument("--full", action="store_true",
                    help="print the complete decomposition per orbit")
    args = ap.parse_args()

    census = Counter()
    for p in range(args.min_prime, args.max_prime + 1):
        if not is_odd_prime(p):
            continue
        table = character_table(p, bound=args.bound)
        q = table.class_table.group.quaternion
        for rep in label_orbits(q):
            row = table.induced_row_for_label(rep)
            dec = tensor_square_decompose(table, row)
            m = dec["psi"]
            census[(p, m)] += 1
            if args.full:
                parts = " + ".join(f"{v}*{k}" for k, v in dec.items() if v)
                print(f"p={p} label={rep}: chi^2 = {parts}")
        mults = sorted({m for (pp, m) in census if pp == p})
        print(f"p={p}: {sum(c for (pp, _), c in census.items() if pp == p)} orbits, "
              f"[chi^2, psi] values {mults}")

    values = sorted({m for (_, m) in census})
    print(f"census complete: multiplicities observed = {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
