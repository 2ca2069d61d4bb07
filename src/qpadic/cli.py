"""Command-line interface.

Exit codes: 0 success, 1 invalid input (1 also on a closed stdout pipe),
2 internal invariant violation (including oracle disagreement). All
exact quantities are printed as strings holding rationals or integer
exponents; floats appear only in oracle reports. A rational literal may
have at most 1000 digits, counting the magnitude of a decimal exponent.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .adelic import adelic_report, gain_exponent
from .channels import GaussianChannel, GaussianState, channel_validity
from .errors import InvariantViolation
from .lattice import Lattice, Mat2, Vec2
from .ledger import _BASE_LABELS, LogLedger
from .padic import require_prime


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # normal invalid-input path instead.
    def error(self, message):
        raise ValueError(message)


def _attached(argv: list[str]) -> list[str]:
    # argparse reads '-2/3,5/3' as an option unless it follows '=', so attach it to the '--flag'
    # before it, abbreviated or not; a '--' token stays a flag, and --help or a prefix takes no value
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if re.fullmatch("--[^=]+", flag) and not "--help".startswith(flag) and re.match("-[^-]", token):
            token = out.pop() + "=" + token
        out.append(token)
    return out


def _parse_lattice(text: str, p: int) -> Lattice:
    return Lattice(Mat2.parse(text), p)


def _valued(ledger: LogLedger, base: str, **fields) -> dict:
    """The given fields plus the ledger's text in the chosen log base, keyed value_base_<base>."""
    return {**fields, f"value_base_{base}": ledger.render(base)}


def _abbreviated(message: str) -> str:
    # a long integer echoed from the input would flood stderr; say how long it is instead
    return re.sub(r"\d{31,}", lambda run: f"a {len(run[0])}-digit integer", message)


def _emit(payload: dict, args) -> None:
    if args.format == "text":
        for key in sorted(payload):
            value = payload[key]
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _cmd_lattice(args) -> tuple[dict, int]:
    p = require_prime(args.p)
    if args.action in ("intersect", "sum"):
        one = _parse_lattice(args.a, p)
        two = _parse_lattice(args.b, p)
        out = (one & two) if args.action == "intersect" else (one + two)
        return {"basis": str(out.canonical), "measure": str(out.measure)}, 0
    lat = _parse_lattice(args.basis, p)
    if args.action == "measure":
        return {"measure": str(lat.measure)}, 0
    if args.action == "dual":
        return {"basis": str(lat.dual().canonical)}, 0
    if args.action == "selfdual":
        return {"self_dual": lat.is_self_dual()}, 0
    return {"basis": str(lat.canonical)}, 0


def _cmd_channel(args) -> tuple[dict, int]:
    p = require_prime(args.p)
    transform = Mat2.parse(args.transform)
    if args.action == "gain":
        exponent = gain_exponent(transform, p)
        return _valued(LogLedger.single(p, exponent), args.log_base, exponent=exponent, prime=p), 0
    noise = _parse_lattice(args.noise, p)
    if args.action == "validate":
        check = channel_validity(transform, noise)
        return {
            "valid": check.ok,
            "one_minus_det_norm": str(check.one_minus_det_norm),
            "noise_measure": str(check.noise_measure),
            "product": str(check.product),
        }, 0
    channel = GaussianChannel(transform, noise)
    if args.action == "threshold":
        return {"threshold": channel.witness_threshold()}, 0
    state_lat = _parse_lattice(args.state, p)
    shift = Vec2.parse(args.shift) if args.shift is not None else Vec2.zero()
    out = channel.apply(GaussianState(state_lat, shift))
    entropy = out.entropy()
    return {
        "basis": str(out.lattice.canonical),
        "shift": str(out.shift),
        "entropy": _valued(entropy, args.log_base, terms={str(q): e for q, e in entropy.terms.items()}),
    }, 0


def _cmd_adelic(args) -> tuple[dict, int]:
    report = adelic_report(Mat2.parse(args.transform))
    return report.to_json_dict(), 0


def _cmd_oracle(args) -> tuple[dict, int]:
    from .oracle import WeylSystem, run_battery  # the only command that loads numpy
    system = WeylSystem(args.p, args.N)
    if args.max_cases is not None and args.max_cases < 0:
        raise ValueError(f"--max-cases must be non-negative, got {args.max_cases}")
    report = run_battery(system)
    report["channel_cases"] = report["channel_cases"][: args.max_cases]  # the listing, not the verdict
    return report, 0 if report["all_checks_pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="qpadic", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True, parser_class=_CliParser)
    shared = _CliParser(add_help=False)  # flags every subcommand takes
    shared.add_argument("--format", choices=("json", "text"), default="json")
    at_p = _CliParser(add_help=False, parents=[shared])  # and a prime, for all but adelic
    at_p.add_argument("--p", type=int, required=True)

    lat = top.add_parser("lattice", help="lattice geometry").add_subparsers(
        dest="action", required=True, parser_class=_CliParser
    )
    for action in ("measure", "dual", "selfdual", "canon"):
        sub = lat.add_parser(action, parents=[at_p])
        sub.add_argument("--basis", required=True)
        sub.set_defaults(run=_cmd_lattice)
    for action in ("intersect", "sum"):
        sub = lat.add_parser(action, parents=[at_p])
        sub.add_argument("--a", required=True)
        sub.add_argument("--b", required=True)
        sub.set_defaults(run=_cmd_lattice)

    chan = top.add_parser("channel", help="Gaussian channels").add_subparsers(
        dest="action", required=True, parser_class=_CliParser
    )
    for action in ("validate", "apply", "gain", "threshold"):
        sub = chan.add_parser(action, parents=[at_p])
        sub.add_argument("--K", required=True, dest="transform")
        if action in ("validate", "apply", "threshold"):
            sub.add_argument("--L", required=True, dest="noise")
        if action == "apply":
            sub.add_argument("--state", required=True)
            sub.add_argument("--shift", default=None)
        if action in ("apply", "gain"):
            sub.add_argument("--log-base", choices=tuple(_BASE_LABELS), default="e", dest="log_base")
        sub.set_defaults(run=_cmd_channel)

    ade = top.add_parser("adelic", help="sum-zero gain report", parents=[shared])
    ade.add_argument("--K", required=True, dest="transform")
    ade.set_defaults(run=_cmd_adelic)

    orc = top.add_parser("oracle", help="finite Weyl-operator checks", parents=[at_p])
    orc.add_argument("--N", type=int, required=True)
    orc.add_argument("--max-cases", type=int, default=None, dest="max_cases")
    orc.set_defaults(run=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attached(sys.argv[1:] if argv is None else argv))
        payload, code = args.run(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {_abbreviated(str(exc))}", file=sys.stderr)
        return 1
    try:
        _emit(payload, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
