"""Command-line front end: argument parsing, dispatch and exit codes.

Subcommands: analyze, validate, rescale, compare, transform, factor.  All
output is deterministic (same input, same bytes).  Exit codes: 0 success or
positive verdict, 1 negative verdict or semantic error in valid input,
2 unreadable input (I/O or parse failure, a file that is not UTF-8) or a result
that no document could hold (a far tap, a value past the int->str digit limit).
Every file is read and written, and both analyze reports rendered, by ``specio``.
"""

import argparse
import sys

from .laurent import format_scalar, parse_scalar
from .lifting import CascadeError
from .specio import (
    SpecFormatError,
    _lines,
    _write,
    load_spec,
    parse_matrix,
    read_signal,
    render_text_report,
    serialize_report,
    serialize_spec,
    write_signal,
)
# normalization, rescaling, transform and factorization are imported by the
# subcommands that run them


def __getattr__(name):
    # cli.analyze stays readable, from normalization on use
    if name == "analyze":
        from .normalization import analyze

        return analyze
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_analyze(args) -> int:
    from .normalization import analyze

    cascade = load_spec(args.spec)
    try:
        report = analyze(cascade)
    except CascadeError as exc:  # a field the parser passed, such as an overflowing K
        raise SpecFormatError.located(exc) from None
    render = serialize_report if args.format == "json" else render_text_report
    _write(render(report))
    return 0


def _cmd_validate(args) -> int:
    from .normalization import check_part2

    report = check_part2(load_spec(args.spec))
    print(report.verdict)
    for reason in report.reasons:
        print(reason, file=sys.stderr)
    return 0 if report.compliant else 1


def _cmd_rescale(args) -> int:
    from .rescaling import rescale_cascade

    cascade = load_spec(args.spec)
    try:
        kappa = parse_scalar(args.kappa, cascade.mode)
    except ValueError as exc:
        raise SpecFormatError(str(exc), "--kappa")
    rescaled = rescale_cascade(cascade, kappa)
    _write(serialize_spec(rescaled), args.output)
    return 0


def _cmd_compare(args) -> int:
    from .rescaling import EQUIVALENT, IDENTICAL, find_rescaling

    a = load_spec(args.spec_a)
    b = load_spec(args.spec_b)
    witness = find_rescaling(a, b)
    if witness.relation == IDENTICAL:
        print("identical")
        return 0
    if witness.relation == EQUIVALENT:
        print(f"equivalent modulo rescaling, kappa = {format_scalar(witness.kappa)}")
        return 0
    print("inequivalent")
    return 1


def _cmd_transform(args) -> int:
    from .transform import SubbandPair, analyze_signal, synthesize_signal

    cascade = load_spec(args.spec)
    samples = read_signal(args.signal, cascade.mode, cascade.reversible)
    if not samples or len(samples) % 2:
        need = ("a signal needs whole sample pairs for periodic extension"
                if args.direction == "analyze"
                else "a subband file needs lowpass then highpass blocks of equal length")
        raise ValueError(f"{args.signal}: got {len(samples)} samples, "
                         f"not a nonzero even number; {need}")
    if args.direction == "analyze":
        bands = analyze_signal(cascade, samples)
        out = bands.lowpass + bands.highpass
    else:
        half = len(samples) // 2
        bands = SubbandPair(tuple(samples[:half]), tuple(samples[half:]))
        out = synthesize_signal(cascade, bands)
    write_signal(out, args.output)
    return 0


def _cmd_factor(args) -> int:
    from .factorization import HIGHPASS_FIRST, LOWPASS_FIRST, FactorStrategy, factor_lifting

    matrix = parse_matrix("".join(_lines(args.matrix)))
    first = LOWPASS_FIRST if args.first == "lowpass" else HIGHPASS_FIRST
    strategy = FactorStrategy(reduction=args.reduction, first_channel=first)
    cascade = factor_lifting(matrix, strategy)
    _write(serialize_spec(cascade), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftbank",
        description="Analyze, transform and factor two-channel lifting filter banks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on a cascade spec")
    p.add_argument("spec", help="cascade spec file (JSON)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("validate", help="gain-normalization check; exit 0 iff compliant")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rescale", help="apply a rescaling equivalence")
    p.add_argument("spec")
    p.add_argument("--kappa", required=True,
                   help='scale factor ("3/2", "2", "0.5"); a negative ratio as --kappa=-1/2')
    p.add_argument("-o", "--output", default=None, help="output spec file (default stdout)")
    p.set_defaults(func=_cmd_rescale)

    p = sub.add_parser("compare", help="test two specs for rescaling equivalence")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("transform", help="run a signal through the bank")
    p.add_argument("spec")
    p.add_argument("signal", help="signal file, one sample per line")
    p.add_argument("--direction", choices=("analyze", "synthesize"), default="analyze",
                   help="analyze: signal -> subbands; synthesize: subbands -> signal")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("factor", help="factor a polyphase matrix into lifting steps")
    p.add_argument("matrix", help="matrix file (JSON 2x2 array of tap lists)")
    # factorization.HIGH_END and LOW_END, spelled out to leave that module unloaded
    p.add_argument("--reduction", choices=("high-end", "low-end"), default="high-end")
    p.add_argument("--first", choices=("lowpass", "highpass"), default="lowpass",
                   help="channel whose entry is reduced on equal support")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_factor)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # FactorizationError and ModeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
