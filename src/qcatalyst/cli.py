"""Command line verifier around the report pipelines.

Exit codes: 0 when the report verdict is "verified", 2 when it is
"falsified" or "refused", 1 for usage or file errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import QcatError
from .states import QuantumState, decode_json, read_json
from .pipelines import (
    ReportDocument,
    pipeline_lemma1,
    pipeline_obs1,
    pipeline_obs3,
    pipeline_schmidt,
    pipeline_theorem,
)

EXIT_VERIFIED = 0
EXIT_USAGE = 1
EXIT_NOT_VERIFIED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report to this path (atomic)")
    sub.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    sub.add_argument(
        "--corrupt-epsilon", type=_finite_float, default=0.0, help=argparse.SUPPRESS
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcatalyst",
        description="verify catalytic mixing, separation and containment claims",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "theorem",
        help="separation between catalytic and bounded-message protocols",
        parents=[],
    )
    p.add_argument(
        "--n", type=_positive_int, required=True, help="separation parameter"
    )
    _add_common(p)

    p = subs.add_parser("lemma1", help="exact catalytic mixing of n copies")
    p.add_argument("--rho", help="state JSON file for the entangled input")
    p.add_argument("--sigma", help="state JSON file for the product state")
    p.add_argument(
        "--n", type=_positive_int, default=2, help="number of output copies"
    )
    p.add_argument(
        "--mode",
        choices=("auto", "explicit-flags", "support-measurement"),
        default="auto",
    )
    _add_common(p)

    p = subs.add_parser(
        "obs1", help="simulate a catalytic protocol with one quantum message"
    )
    p.add_argument(
        "--n", type=_positive_int, default=2, help="number of output copies"
    )
    p.add_argument(
        "--product-rho",
        action="store_true",
        help="replace the entangled input by a product state",
    )
    _add_common(p)

    p = subs.add_parser(
        "obs3", help="classical-bit task: one broadcast bit vs no communication"
    )
    p.add_argument(
        "--seeds", type=_positive_int, default=10, help="random catalysts to try"
    )
    _add_common(p)

    p = subs.add_parser("schmidt", help="Schmidt analysis of a stored state")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument(
        "--cut",
        help='JSON object assigning registers to sides, e.g. {"R": "left"}',
    )
    _add_common(p)

    return parser


# parsing leaves a parser as it was, so one serves every call of ``main``
_parser = functools.cache(build_parser)


def _load_state(path: str) -> QuantumState:
    return QuantumState.from_json(read_json(path))


def _render(report: ReportDocument, fmt: str) -> str:
    if fmt == "text":
        return report.to_text()
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _emit(report: ReportDocument, args) -> int:
    payload = _render(report, args.format)
    if args.out:
        tmp = f"{args.out}.tmp{os.getpid()}"
        fh = open(tmp, "w", encoding="utf-8")
        try:
            with fh:
                fh.write(payload)
            os.replace(tmp, args.out)
        except OSError:
            # the file opened above is ours: leave nothing behind
            os.remove(tmp)
            raise
    else:
        sys.stdout.write(payload)
    if report.verdict == "verified":
        return EXIT_VERIFIED
    return EXIT_NOT_VERIFIED


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "theorem":
            report = pipeline_theorem(args.n, corruption=args.corrupt_epsilon)
        elif args.command == "lemma1":
            rho = _load_state(args.rho) if args.rho else None
            sigma = _load_state(args.sigma) if args.sigma else None
            if (rho is None) != (sigma is None):
                parser.error("provide both --rho and --sigma, or neither")
            report = pipeline_lemma1(
                rho, sigma, args.n, args.mode, corruption=args.corrupt_epsilon
            )
        elif args.command == "obs1":
            report = pipeline_obs1(
                args.n, args.product_rho, corruption=args.corrupt_epsilon
            )
        elif args.command == "obs3":
            report = pipeline_obs3(args.seeds, corruption=args.corrupt_epsilon)
        else:
            state = _load_state(args.input)
            cut = decode_json(args.cut) if args.cut else None
            if cut is not None and not isinstance(cut, dict):
                parser.error('--cut must be a JSON object, e.g. {"R": "left"}')
            report = pipeline_schmidt(state, cut)
        return _emit(report, args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        # unreadable or undecodable inputs, or an unwritable --out
        print(f"qcatalyst: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QcatError as exc:
        # inputs that parse but are not valid states / protocols
        print(f"qcatalyst: refused: {exc}", file=sys.stderr)
        return EXIT_NOT_VERIFIED


if __name__ == "__main__":
    sys.exit(main())
