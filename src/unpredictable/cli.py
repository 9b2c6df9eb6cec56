"""Command-line front end.

Subcommands cover the full pipeline: generate a window (``point`` or
``bernoulli``), filter it into a trajectory (``filter``), and interrogate
the results (``metric``, ``shift``, ``verify-seq``, ``verify-fn``).  Each
one parses its flags, calls the library and writes files; outputs are
byte-deterministic given the flags and seed.  Exit status is 0 on success,
1 when an operation rejects its inputs, and 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .bernoulli import BernoulliSpec, realize
from .errors import DomainError, UnpredictableError
from .filtering import FilterConfig, StepSignal, solve_ode
from .point import point_window
from .seqio import (format_json_report, read_sequence, write_json_report,
                    write_sequence, write_trajectory_csv)
from .symbolspace import Alphabet, metric_distance, shift
from .verify import find_sequence_witnesses, sequence_report, verify_filtered


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}")


def _cmd_point(args) -> int:
    write_sequence(args.out, point_window(args.first, args.length))
    return 0


def _cmd_bernoulli(args) -> int:
    alphabet = Alphabet(_floats(args.alphabet))
    probs = _floats(args.p)
    if len(probs) == 1 and len(alphabet) == 2:
        # a single value is the chance of the second symbol
        probs = (1.0 - probs[0], probs[0])
    spec = BernoulliSpec(alphabet, probs, args.seed, args.length)
    write_sequence(args.out, realize(spec))
    return 0


def _cmd_filter(args) -> int:
    seq = read_sequence(args.infile)
    signal = StepSignal(seq, args.mu)
    config = FilterConfig(decay=args.decay, step=args.mu, sample_dt=args.dt)
    traj = solve_ode(signal, config, args.phi0, args.t_end)
    write_trajectory_csv(args.out, traj, args.digits)
    return 0


def _cmd_metric(args) -> int:
    a = read_sequence(args.a)
    b = read_sequence(args.b)
    report = metric_distance(a, b, args.half_width)._asdict()
    if args.out:
        write_json_report(args.out, report)
    else:
        sys.stdout.write(format_json_report(report))
    return 0


def _cmd_shift(args) -> int:
    write_sequence(args.out, shift(read_sequence(args.infile), args.times))
    return 0


def _cmd_verify_seq(args) -> int:
    seq = read_sequence(args.infile)
    result = find_sequence_witnesses(seq, args.half_width, args.tolerance,
                                     args.epsilon0, args.count)
    report = sequence_report(seq, result, window_half_width=args.half_width,
                             tolerance=args.tolerance,
                             epsilon0=args.epsilon0, count=args.count)
    write_json_report(args.out, report)
    return 0


def _cmd_verify_fn(args) -> int:
    seq = read_sequence(args.infile)
    scale = args.mu if args.integer_shifts else 1.0
    shifts = (None if args.shifts is None
              else [s * scale for s in _floats(args.shifts)])
    report = verify_filtered(
        seq, mu=args.mu, decay=args.decay, phi0=args.phi0,
        burn_in=args.burn_in, compact=(args.alpha, args.beta),
        sigma=args.sigma, sample_dt=args.dt, tolerance=args.tolerance,
        epsilon0=args.epsilon0, shifts=shifts, half_width=args.half_width,
        auto_shifts=args.auto_shifts)
    write_json_report(args.out, report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unpredictable",
        description="Generate, filter, and verify shift-recurrent sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="write a window of the built-in "
                                     "recurrent binary point")
    p.add_argument("--first", type=int, required=True,
                   help="first sequence index of the window")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("bernoulli", help="write a seeded random realization")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--p", default="0.5",
                   help="symbol probabilities; a single value is the chance "
                        "of the second symbol (default 0.5)")
    p.add_argument("--alphabet", default="0,1",
                   help="comma-separated symbol values (default 0,1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bernoulli)

    p = sub.add_parser("filter", help="integrate the exponential filter "
                                      "driven by a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", type=float, default=0.1,
                   help="piece length of the step signal (default 0.1)")
    p.add_argument("--lambda", dest="decay", type=float, default=1.0,
                   help="kernel decay rate (default 1)")
    p.add_argument("--phi0", type=float, default=0.5,
                   help="initial value at t=0 (default 0.5)")
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.01,
                   help="sample spacing (default 0.01)")
    p.add_argument("--digits", type=int, default=17,
                   help="significant digits in the CSV (default 17)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("metric", help="truncated distance between two "
                                      "sequence files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--half-width", type=int, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("shift", help="apply the shift map to a sequence file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("verify-seq", help="search a sequence file for "
                                          "recurrence-with-separation "
                                          "witnesses")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--half-width", type=int, required=True,
                   help="window half-width L for the match test")
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--epsilon0", type=float, required=True)
    p.add_argument("--count", type=int, default=3,
                   help="witnesses required for a consistent verdict")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_seq)

    p = sub.add_parser("verify-fn", help="filter a sequence file and search "
                                         "the output for function witnesses")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", type=float, default=1.0,
                   help="piece length of the step signal (default 1)")
    p.add_argument("--lambda", dest="decay", type=float, default=1.0)
    p.add_argument("--phi0", type=float, default=0.5)
    p.add_argument("--burn-in", type=float, default=8.0,
                   help="integration lead time before t=0 (default 8)")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="compact interval start (default 0)")
    p.add_argument("--beta", type=float, default=4.0,
                   help="compact interval end (default 4)")
    p.add_argument("--sigma", type=float, default=None,
                   help="separation interval half-width "
                        "(default min(kappa_i, kappa_ii)/2)")
    p.add_argument("--dt", type=float, default=None,
                   help="sample spacing (default sigma/8)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="compact match tolerance (default: the burn-in "
                        "transient bound, plus the matched-window bound "
                        "when shifts are derived automatically)")
    p.add_argument("--epsilon0", type=float, default=None,
                   help="required interval separation "
                        "(default alphabet epsilon0 / 24)")
    p.add_argument("--shifts", default=None,
                   help="comma-separated time shifts to test")
    p.add_argument("--integer-shifts", action="store_true",
                   help="treat --shifts values as symbol counts, "
                        "scaled by mu")
    p.add_argument("--auto-shifts", type=int, default=3,
                   help="derive this many shifts from a discrete witness "
                        "search when --shifts is absent (default 3)")
    p.add_argument("--half-width", type=int, default=4,
                   help="window half-width for the discrete search "
                        "(default 4)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_fn)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UnpredictableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
