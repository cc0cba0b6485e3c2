#!/usr/bin/env python3
"""Survey the unit-witness algorithms over random inputs.

For each trial the script draws a random element, asks for a witness pair
turning it into 1, and re-verifies the certificate from scratch.  Three
populations are covered: elements of the extension-ring quotient, bounded
monoword algebras V for a few alphabet sizes, and the unbounded algebra.

    python3 scripts/witness_survey.py --trials 40 --seed 7
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import random

from ratskew.acceptance import rand_skew, rand_uelem
from ratskew.fields import field_from_name
from ratskew.leavitt import UElem, uinf_witness, v_equal, v_witness
from ratskew.skew import CoeffDomain, SkewRing, ideal_member, t_equal, t_witness


def survey_skew(rng, field, n, trials):
    ring = SkewRing(CoeffDomain("rat", field), n)
    hits = 0
    t0 = time.time()
    for _ in range(trials):
        a = rand_skew(rng, ring)
        if ideal_member(a).value:
            continue  # witnesses only exist outside the ideal
        w = t_witness(a)
        assert t_equal(ring.x_word(w.m_word) * a * w.g, ring.one()).value
        hits += 1
    return hits, time.time() - t0


def survey_v(rng, field, n, trials):
    hits = 0
    t0 = time.time()
    for _ in range(trials):
        a = rand_uelem(rng, field, n)
        w = v_witness(a)
        assert v_equal(w.beta * a * w.gamma, UElem.one(field, n))
        hits += 1
    return hits, time.time() - t0


def survey_uinf(rng, field, trials):
    hits = 0
    t0 = time.time()
    for _ in range(trials):
        a = rand_uelem(rng, field, None)
        w = uinf_witness(a)
        assert (w.beta * a * w.gamma - UElem.one(field, None)).coeffs == {}
        hits += 1
    return hits, time.time() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--field", default="q")
    args = ap.parse_args()

    field = field_from_name(args.field)
    rng = random.Random(args.seed)
    rows = []
    h, dt = survey_skew(rng, field, 2, args.trials)
    rows.append(("quotient ring, 3 letters", h, dt))
    for n in (2, 3):
        h, dt = survey_v(rng, field, n, args.trials)
        rows.append(("V with %d letters" % n, h, dt))
    h, dt = survey_uinf(rng, field, args.trials)
    rows.append(("unbounded algebra", h, dt))

    print("witness survey  (field %s, seed %d, %d trials per row)"
          % (args.field, args.seed, args.trials))
    for label, hits, dt in rows:
        print("  %-26s %3d verified   %6.2fs" % (label, hits, dt))
    print("every produced witness re-verified exactly")


if __name__ == "__main__":
    main()
