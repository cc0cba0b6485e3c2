#!/usr/bin/env python3
"""Time the star identity (a+b)* = (a*b)*a* on random polynomials over many letters.

a and b are random polynomials, each a sum of ``terms`` terms c*w.  For
each term the draws are c, uniform in 1..5 (the coefficient is c over
``q`` and ``fp:p``, t1 + c over ``qt:r``), then the length of w, uniform
in 1..``maxlen``, then its letters, each uniform over ``n`` letters; a is
drawn first, then b, from one ``random.Random(100*n + terms)`` per size.
Both sides are built with ``eval_series``, s* written as ``(1 - (s))^-1``,
and compared with ``==``.  Each line gives the field, the size, the
reduced dim of (a+b)*, the verdict and the process time of building and
comparing both sides.  Compare two checkouts with ``--src``:

    python3 scripts/star_identities.py
    python3 scripts/star_identities.py --src ../other/src --field q
"""

import argparse
import os
import random
import sys
import time

SIZES = ((6, 16, 6), (8, 24, 6), (10, 30, 8))  # (n, terms, maxlen)
FIELDS = ("q", "fp:7", "qt:1")


def random_poly(rng, n, terms, maxlen, over_t):
    parts = []
    for _ in range(terms):
        c = rng.randint(1, 5)
        length = rng.randint(1, maxlen)
        word = "*".join("x%d" % rng.randrange(n) for _ in range(length))
        parts.append("(t + %d)*%s" % (c, word) if over_t else "%d*%s" % (c, word))
    return " + ".join(parts)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the ratskew package (default: this checkout's src)")
    ap.add_argument("--field", action="append", help="q, fp:<p> or qt:<r>; repeatable (default: %s)"
                    % ", ".join(FIELDS))
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ratskew.expr import eval_series
    from ratskew.fields import field_from_name

    for name in args.field or FIELDS:
        field = field_from_name(name)
        for n, terms, maxlen in SIZES:
            rng = random.Random(100 * n + terms)
            over_t = name.startswith("qt:")
            a = random_poly(rng, n, terms, maxlen, over_t)
            b = random_poly(rng, n, terms, maxlen, over_t)
            t0 = time.process_time()
            left = eval_series("(1 - ((%s) + (%s)))^-1" % (a, b), field, n)
            right = eval_series("(1 - (1 - (%s))^-1 * (%s))^-1 * (1 - (%s))^-1" % (a, b, a), field, n)
            equal = left == right
            seconds = time.process_time() - t0
            print("%s n=%d terms=%d maxlen=%d dim=%d equal=%s seconds=%.3f"
                  % (name, n, terms, maxlen, left.dim, equal, seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
