#!/usr/bin/env python3
"""Digest the stdout of a fixed list of CLI commands, for comparing versions.

Runs each command in-process and prints one line per command: the sha256
of its stdout, its exit code and the command.  Every certificate a command
emits is also fed back to ``verify-cert``, which gets a line of its own.
Run it on two checkouts and diff the outputs to see which commands changed:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

# (argv, emits a certificate)
COMMANDS = [
    (["selftest", "--json"], False),
    (["realize", "build", "--from", "2", "--to", "2", "--mult", "2", "--seed", "1",
      "--field", "qt:1", "--json"], True),
    (["series", "invert", "1 - x0*x1 + 2*x1"], False),
    (["series", "invert", "--json", "1 - x0*x1 + 2*x1"], False),
    (["series", "eval", "--field", "qt:1", "(1 + t*x0)^-1 * (2 - x1*x0)"], False),
    (["series", "eval", "--field", "qt:1", "--json", "(1 + t*x0)^-1 * (2 - x1*x0)"], False),
    (["skew", "witness", "--json", "1 - x0"], True),
    (["skew", "witness", "--json", "1 - x0 - x1"], True),
    (["skew", "witness", "--json", "y0*(1 + x1*x2)*(1 - 2*x0)^-1 + y1*y2*e"], True),
    (["k0", "monoid", "--json", "I | 3I=I"], False),
    (["k0", "monoid", "--json", "I,P | I=2I+P"], False),
    (["k0", "group", "I | 3I=I"], False),
    (["k0", "group", "I,P | I=2I+P"], False),
]


def run(run_command, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue()


def line(label, code, stdout):
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return "%s  exit=%s  %s" % (digest, code, label)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the ratskew package (default: this checkout's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ratskew.cli import run_command

    with tempfile.TemporaryDirectory() as tmp:
        for cmd, emits_cert in COMMANDS:
            label = shlex.join(cmd)
            code, stdout = run(run_command, cmd)
            print(line(label, code, stdout), flush=True)
            if emits_cert and code == 0:
                path = os.path.join(tmp, "cert.json")
                with open(path, "w") as fh:
                    fh.write(stdout)
                code, stdout = run(run_command, ["verify-cert", path])
                print(line("verify-cert <output of: %s>" % label, code, stdout), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
