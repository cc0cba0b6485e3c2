#!/usr/bin/env python3
"""Catalog universal groups and monoid shapes for small presentation families.

Walks the one-generator cyclic family <g | ng = g>, the two-generator family
<g,p | g = ng + p>, and a few hand-picked presentations; prints the universal
group, the distinguished images, and (where enumeration terminates) the
shape report of the nonzero part.

    python3 scripts/k0_catalog.py --max-n 9 --bound 128
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from ratskew.kzero import (analyze_pisr_shape, grothendieck_group,
                           parse_presentation)


def describe(text, bound):
    p = parse_presentation(text)
    g = grothendieck_group(p)
    images = ", ".join("%s->%s" % (name, list(c)) for name, c in g.images.items())
    shape = analyze_pisr_shape(p, bound)
    if shape.complete:
        tail = "%d elements, conical=%s simple=%s nonzero-group=%s" % (
            shape.size, shape.conical, shape.simple, shape.nonzero_is_group)
        if shape.group is not None:
            tail += ", nonzero part %s (matches: %s)" % (
                shape.group.render(), shape.matches_group_side)
    else:
        tail = ">%d elements (enumeration stopped)" % (shape.size - 1)
    print("  %-22s %-10s %-22s %s" % (text, g.render(), images, tail))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--bound", type=int, default=128)
    args = ap.parse_args()

    print("cyclic family <g | ng = g>")
    for n in range(2, args.max_n + 1):
        describe("g | %dg = g" % n, args.bound)
    print("two-generator family <g,p | g = ng + p>")
    for n in range(2, min(args.max_n, 6) + 1):
        describe("g,p | g = %dg + p" % n, args.bound)
    print("assorted")
    for text in ["g |", "a,b | a + b = 2a", "a | 2a = a"]:
        describe(text, args.bound)


if __name__ == "__main__":
    main()
