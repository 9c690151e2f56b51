"""Command-line front end.

Subcommands:
  derive-roots  derive the root-set pair from its closed-form rule, print or write it
  verify        run a verification suite, write a JSON/Markdown report
  sample-slocal draw deterministic samples of the monodromy locus

Exit codes: 0 all checks pass, 1 a check failed or a suite raised (the
report is still written), 2 usage error (a seed below 0 among them) or an
--out that cannot be written, 3 root-set failure (no orientation of the
closed-form rule is confirmed).  sample-slocal draws every point's s and
seed first, then samples and tests the points in stacks of SLOCAL_CHUNK and
writes each stack's records before it samples the next.  A stack raises the
first invariant that any of its points breaks: with two bad points the
message may differ from point-by-point sampling, the exit code does not.
The records written before the error stay on stdout, and a partial --out
file is removed.
"""

import argparse
import json
import os
import sys

import numpy as np

from .core import encode_matrix
from .errors import SearchFailureError, UcglError
from .groupoid import draw_seed, sample_slocal_fiber
from .involutions import slocal_membership
from .report import SUITES, run_suite
from .stokes import build_M, derive_root_sets, rand_palindromic_s, root_sets_to_dict

#: points that sample-slocal samples and tests at a time, so that its peak
#: memory grows with --count only by the drawn s and seeds; the draws come
#: before the chunks, and the stacked primitives give each point the bytes
#: of a single call, so the output does not depend on it
SLOCAL_CHUNK = 64


def _build_parser():
    parser = argparse.ArgumentParser(prog="ucgl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-roots", help="derive the root-set pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=str, default=None)

    # unset flags stay None, so the config file or run_suite's defaults
    # (suite all, seed 42, samples 100) apply
    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--n", type=int, default=None, help="rank; required unless the config sets n")
    p.add_argument("--suite", choices=SUITES + ("all",), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file; explicit flags override its entries")

    p = sub.add_parser("sample-slocal", help="sample the monodromy locus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", type=str, default=None)
    return parser


def _emit(chunks, out):
    """Write the text pieces in turn to the file out, or to stdout with a final
    newline as print would."""
    if not out:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise UcglError(f"cannot write {out}: {exc.strerror}") from None
    except UcglError:
        os.remove(out)  # what a piece raised: leave no partial document
        raise


def cmd_derive_roots(args):
    rs = derive_root_sets(args.n, force=True)
    _emit([json.dumps(root_sets_to_dict(rs), sort_keys=True, indent=2)], args.out)
    return 0


def _load_config(path):
    """The JSON object in a config file; anything else is a usage error."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UcglError(f"cannot read config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UcglError(f"config {path} is not a JSON object")
    return config


def cmd_verify(args):
    config = _load_config(args.config) if args.config else {}
    for key in ("n", "suite", "seed", "samples"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    if "n" not in config:
        raise UcglError("no rank: pass --n or set n in the config file")
    report = run_suite(config)
    for c in report.checks:
        if c.name.endswith(".error"):
            print(f"error: {c.details['message']}", file=sys.stderr)
    text = report.to_json() if args.format == "json" else report.to_markdown()
    _emit([text], args.out)
    return 0 if report.all_passed else 1


def cmd_sample_slocal(args):
    if args.count < 1:
        raise UcglError(f"count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise UcglError(f"seed must be at least 0, got {args.seed}")
    rs = derive_root_sets(args.n)
    _emit(_slocal_json(args, rs), args.out)
    return 0


def _slocal_json(args, rs):
    """The text of json.dumps({"n", "seed", "points"}, sort_keys=True, indent=2)
    for the args.count points of random_slocal_points(rs, default_rng(args.seed),
    args.count), in pieces: its draws, every s and then every seed, are made
    up front as it makes them, the points are sampled and tested SLOCAL_CHUNK
    at a time, and each record is encoded only when its piece is written, so
    neither all the points, the records nor the text is ever held."""
    head, tail = json.dumps({"n": args.n, "seed": args.seed, "points": [None]},
                            sort_keys=True, indent=2).split("null")
    yield head
    rng = np.random.default_rng(args.seed)
    s = rand_palindromic_s(rng, (args.count, args.n))
    seeds = draw_seed(rng, args.count)
    for start in range(0, args.count, SLOCAL_CHUNK):
        chunk = slice(start, start + SLOCAL_CHUNK)
        p = sample_slocal_fiber(rs, build_M(rs, s[chunk]), seeds[chunk])
        member = slocal_membership(rs, p, tol=1e-8)
        for i, q in enumerate(p):
            record = {"B": encode_matrix(q.B), "A": encode_matrix(q.A),
                      "s": [[float(z.real), float(z.imag)] for z in q.s],
                      "flags": {key: bool(flag[i]) for key, flag in member.items()}}
            # a record at the list's depth: indent=2 nests it four spaces in
            yield (",\n    " if start + i else "") + json.dumps(
                record, sort_keys=True, indent=2).replace("\n", "\n    ")
    yield tail


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "derive-roots":
            return cmd_derive_roots(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sample_slocal(args)
    except SearchFailureError as exc:
        print(f"root-set failure: {exc}", file=sys.stderr)
        return 3
    except UcglError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
