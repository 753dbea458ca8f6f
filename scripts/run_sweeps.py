"""Sweep every minimal-word orbit up to a band cap and check the degree laws.

For each length this verifies, orbit by orbit:
  * every law of ``braid3.invariants.broken_laws``, in its order, through
    ``check_laws`` with the orbit's chi (the list and its reasons are
    written there once),
  * the component count read from the polynomial, 1 - min deg_z P, equals
    the permutation's cycle count (the census checks one row per
    polynomial; the sweep checks every orbit),
  * the strong-quasipositivity criterion implies a positive band form.

Usage:  python scripts/run_sweeps.py [--max-bands N]
"""

import argparse
import sys
import time
from collections import Counter

from braid3.enumeration import enumerate_minimal
from braid3.errors import ConsistencyError
from braid3.invariants import check_laws, pmcf_predicate
from braid3.words import closure_components, render_word
from braid3.xu import is_strongly_quasipositive


def law(holds: bool, name: str, entry) -> None:
    """Raise ConsistencyError (never stripped by -O) when a law fails on an orbit."""
    if not holds:
        raise ConsistencyError(
            f"{name} fails for length {entry.length}, word {render_word(entry.word)}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-bands", type=int, default=12)
    args = parser.parse_args()

    grand_total = 0
    print(f"{'bands':>5} {'orbits':>7} {'knots':>6} {'seconds':>8}")
    for n in range(args.max_bands + 1):
        t0 = time.perf_counter()
        entries = enumerate_minimal(n, cap=args.max_bands)
        kinds = Counter(e.components for e in entries)
        for e in entries:
            p = e.polynomial
            check_laws(p, e.chi, e.word)
            law(e.components == closure_components(e.word), "components from min deg_z P", e)
            if pmcf_predicate(p):
                qp = is_strongly_quasipositive(e.word)
                law(qp != "no", "PMCF implies a positive band form", e)
        grand_total += len(entries)
        print(f"{n:>5} {len(entries):>7} {kinds.get(1, 0):>6} {time.perf_counter() - t0:>8.2f}")
    print(f"all degree and coefficient laws hold on {grand_total} orbits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
