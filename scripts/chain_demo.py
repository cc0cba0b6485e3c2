#!/usr/bin/env python3
"""Plan and fully verify a stepwise realization of a group chain.

The default target is Z/2 x Z with order-unit (1, 1), presented as a
constant chain of length three; every distinct component map in the plan
gets its generator matrices built and all defining identities re-checked.
Pass --plan FILE to drive the same pipeline from your own {"groups",
"maps"} JSON, and --out DIR to dump the certificates.

    python3 scripts/chain_demo.py --out /tmp/chain
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from ratskew.realize import build_generators, plan_chain, verify_chain


DEFAULT = {
    "groups": [{"tags": [2, 0], "u": [1, 1]}] * 4,
    "maps": [[[1, 0], [0, 1]]] * 3,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", metavar="FILE", default=None)
    ap.add_argument("--out", metavar="DIR", default=None)
    ap.add_argument("--count", type=int, default=2,
                    help="generator pairs to materialize in the free cases")
    args = ap.parse_args()

    obj = DEFAULT if args.plan is None else json.load(open(args.plan))
    plan = plan_chain(obj["groups"], obj["maps"])
    print("chain plan: %s" % ("ok" if plan.ok else "NOT realizable"))
    for err in plan.errors:
        print("  error: %s" % err)
    if not plan.ok:
        sys.exit(1)
    for step in plan.steps:
        labels = [s.label() for row in step.specs for s in row if s is not None]
        print("  step %d: %s" % (step.index, "; ".join(labels)))

    t0 = time.time()
    results = verify_chain(plan, count=args.count)
    for spec, rep in results:
        status = "ok" if rep.ok else "FAILED: %s" % ", ".join(rep.failed())
        print("  verify %-34s %s  (%d identities)"
              % (spec.label(), status, len(rep.checks)))
    print("verified %d distinct component maps in %.2fs"
          % (len(results), time.time() - t0))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "plan.json"), "w") as fh:
            json.dump(plan.to_json(), fh, sort_keys=True, indent=2)
        for i, (spec, _) in enumerate(results):
            g = build_generators(spec, count=args.count)
            path = os.path.join(args.out, "generators_%d.json" % i)
            with open(path, "w") as fh:
                json.dump(g.to_json(), fh, sort_keys=True, indent=2)
        print("certificates written to %s (re-check with: ratskew verify-cert FILE)"
              % args.out)
    if not all(rep.ok for _, rep in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
