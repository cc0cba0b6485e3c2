#!/usr/bin/env python3
"""Time ``invert_matrix_series`` on perturbed identities of growing size.

The n x n series matrix has entry (i, j) equal to delta_ij plus two terms
c*w.  Each w is a word of length 1 or 2 over two letters.  Over ``qt:r``, c
is t_v + k, and over ``q`` it is k, with k uniform in 1..5 and v uniform
over the variables.  For each term the draws are the word, then k, then v,
from ``random.Random(SEED)`` in row-major order.  Each line gives n, the
block dim, both verification flags and the process time of the inversion,
the median of three runs.  With ``--json`` it also gives the process time
of ``SeriesMatrix.to_json`` on the inverse, the median of the same three
runs, and the sha256 of that JSON, so that a comparison shows both the
speed and the byte identity of the serialised inverse.  Compare two
checkouts with ``--src``:

    python3 scripts/invert_sizes.py --field qt:1 6 7 8
    python3 scripts/invert_sizes.py --src ../other/src --field qt:1 6 7 8
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
import time

SEED = 1


def perturbed_identity(field, n, rng):
    from ratskew.fields import FunctionField
    from ratskew.linrep import LinRep, SeriesMatrix

    nvars = field.nvars if isinstance(field, FunctionField) else 0
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = LinRep.one(field) if i == j else LinRep.zero(field)
            for _ in range(2):
                w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
                c = field.from_int(rng.randint(1, 5))
                if nvars:
                    c = c + field.var(rng.randrange(nvars))
                e = e + LinRep.word(field, w, c)
            row.append(e)
        entries.append(row)
    return SeriesMatrix.from_entries(field, entries)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the ratskew package (default: this checkout's src)")
    ap.add_argument("--field", default="qt:1", help="q, fp:<p> or qt:<r> (default qt:1)")
    ap.add_argument("--json", action="store_true",
                    help="also time to_json of the inverse and print the sha256 of its JSON")
    ap.add_argument("sizes", nargs="+", type=int, help="matrix sizes n")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ratskew.fields import field_from_name
    from ratskew.linrep import invert_matrix_series

    field = field_from_name(args.field)
    for n in args.sizes:
        times, json_times, digests = [], [], set()
        for _ in range(3):
            m = perturbed_identity(field, n, random.Random(SEED))
            t0 = time.process_time()
            inv, ok_right, ok_left = invert_matrix_series(m)
            times.append(time.process_time() - t0)
            if args.json:
                t0 = time.process_time()
                obj = inv.to_json()
                json_times.append(time.process_time() - t0)
                digests.add(hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest())
        line = "%s n=%d dim=%d ok_right=%s ok_left=%s seconds=%.3f" % (
            field.name, n, m.dim, ok_right, ok_left, statistics.median(times))
        if args.json:
            line += " to_json_seconds=%.3f sha256=%s" % (statistics.median(json_times), ",".join(sorted(digests)))
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
