"""Command-line interface.

Subcommands: entropy, bound, apply, kraus, sweep, fuzz, exchange,
prop1, prop2, bridge. Inputs arrive as JSON files in the wire formats
of the serialization module; outputs are JSON (default), csv, or human.
Every command is deterministic given its inputs and --seed.

Exit codes: 0 success, 1 bad input data, a failed randomized property
or no memory left, 2 an internal contradiction (a guaranteed identity or bound
violated, or two routes to one value that disagree: a bug in the
library itself), 64 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from contextlib import nullcontext
from math import isfinite, pi

import numpy as np

from . import amplitude_damping
from .channels import (_theorem_holds, apply_channel, completeness_defect, exchange_entropy, extract_kraus,
                       verify_entropy_bound)
from .classical import bridge_entropies, validate_distribution
from .fuzz import SUITES, run_suite
from .linalg import DEFAULT_TOL, IDENTITY_TOL
from .measurement import _labels, _partition_split, validate_partition
from .mixing import mixing_bound_report
from .serialization import (distribution_from_json, dump_json, load_json,
                            matrix_from_json, matrix_to_json, model_from_json,
                            partition_from_json, ensemble_from_json)
from .states import logical_entropy, purity, validate_density

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONTRADICTION = 2
EXIT_USAGE = 64

CHANNELS = ("amplitude-damping",)


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="logent",
                     description="Logical entropy of quantum states under noise couplings.")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="validation tolerance in [0, 1) (default 1e-9)")
    parser.add_argument("--seed", type=int, default=42,
                        help="root random seed (default 42)")
    parser.add_argument("--format", choices=("json", "csv", "human"), default="json",
                        help="output format for scalar reports (sweep is always csv)")
    parser.add_argument("--output", help="write the result to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):  # each subcommand carries the handler main calls and the parser its errors name
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)
        return p

    def add_state(p):
        p.add_argument("--state", required=True, help="density matrix JSON file")

    def add_model_source(p):
        p.add_argument("--model", help="coupling model JSON file")
        p.add_argument("--channel", choices=CHANNELS, help="named coupling instead of --model")
        p.add_argument("--theta", type=float, help="decay angle for --channel")

    p = command("entropy", _cmd_entropy, "logical entropy and purity of a state")
    add_state(p)

    p = command("bound", _cmd_bound, "off-block bound vs output entropy for one coupling")
    add_state(p)
    add_model_source(p)

    p = command("apply", _cmd_apply, "push a state through a coupling's channel")
    add_state(p)
    add_model_source(p)

    p = command("kraus", _cmd_kraus, "extract the Kraus operators of a coupling")
    add_model_source(p)

    p = command("sweep", _cmd_sweep, "entropy/bound sweep over the decay angle (CSV)")
    add_state(p)
    p.add_argument("--theta-start", type=float, default=0.0)
    p.add_argument("--theta-end", type=float, default=pi)
    p.add_argument("--steps", type=int, default=64)

    p = command("fuzz", _cmd_fuzz, "randomized verification campaigns")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim-s", type=int, default=6,
                   help="primary dimension bound; trials draw from 2..max (1 stays 1)")
    p.add_argument("--dim-e", type=int, default=4, help="secondary dimension bound")

    p = command("exchange", _cmd_exchange, "entropy exchanged with the environment")
    add_state(p)
    add_model_source(p)

    p = command("prop1", _cmd_prop1, "purity split under a basis-aligned measurement")
    add_state(p)
    p.add_argument("--partition", required=True, help="partition JSON file")

    p = command("prop2", _cmd_prop2, "mixing bound for an ensemble")
    p.add_argument("--ensemble", required=True, help="ensemble JSON file")

    p = command("bridge", _cmd_bridge, "classical partition entropy vs quantum measurement")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--partition", required=True, help="partition JSON file")

    return parser


def _load_state(args):
    return validate_density(matrix_from_json(load_json(args.state)), tol=args.tol)


def _load_model(parser, args):
    if args.model and args.channel:
        parser.error("give either --model or --channel, not both")
    if args.model and args.theta is not None:
        parser.error("--theta goes with --channel, not --model")
    if args.model:
        return model_from_json(load_json(args.model))
    if args.channel:
        if args.theta is None:
            parser.error("--channel requires --theta")
        if not isfinite(args.theta):
            parser.error(f"--theta must be a finite angle, got {args.theta!r}")
        return amplitude_damping.coupling_model(args.theta)
    parser.error("a coupling is required: --model FILE or --channel NAME --theta X")


def _emit(text: str, args) -> None:
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _render(payload: dict, args) -> str:
    flat = all(not isinstance(v, (dict, list)) for v in payload.values())
    if args.format == "csv" and flat:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for k, v in payload.items():
            writer.writerow([k, repr(v) if isinstance(v, float) else v])
        return buf.getvalue()
    if args.format == "human":
        lines = []
        for k, v in payload.items():
            if isinstance(v, float):
                lines.append(f"{k} = {v:.12g}")
            elif isinstance(v, (dict, list)):
                lines.append(f"{k} = {json.dumps(v)}")
            else:
                lines.append(f"{k} = {v}")
        return "\n".join(lines)
    return dump_json(payload)


def _cmd_entropy(parser, args) -> tuple[int, dict]:
    rho = _load_state(args)
    return EXIT_OK, {"logical_entropy": logical_entropy(rho), "purity": purity(rho)}


def _cmd_bound(parser, args) -> tuple[int, dict]:
    model = _load_model(parser, args)  # a usage error is reported before a file error
    rho = _load_state(args)
    report = verify_entropy_bound(rho, model, tol=args.tol)
    payload = {"entropy": report.entropy, "bound": report.bound, "slack": report.slack,
               "projected_entropy": report.projected_entropy,
               "hypothesis_pure": report.hypothesis_pure}
    return (EXIT_OK if _theorem_holds(report, args.tol) else EXIT_CONTRADICTION), payload


def _cmd_apply(parser, args) -> tuple[int, dict]:
    model = _load_model(parser, args)
    rho = _load_state(args)
    out = apply_channel(rho, extract_kraus(model))
    return EXIT_OK, matrix_to_json(out)


def _cmd_kraus(parser, args) -> tuple[int, dict]:
    ops = extract_kraus(_load_model(parser, args))
    return EXIT_OK, {"operators": [matrix_to_json(e) for e in ops], "completeness_defect": completeness_defect(ops)}


def _cmd_sweep(parser, args) -> tuple[int, str]:
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    if not isfinite(span := args.theta_end - args.theta_start):  # NaN, an infinity, or past float64
        parser.error(f"--theta-start and --theta-end must bound a finite range, got a span of {span!r}")
    rho = _load_state(args)
    if rho.shape != (2, 2):
        raise ValueError(f"sweep needs a single-qubit state, got shape {rho.shape}")
    a, b, c = float(rho[0, 0].real), complex(rho[0, 1]), float(rho[1, 1].real)
    buf = io.StringIO()
    buf.write("theta,entropy,bound,closed_form_entropy,closed_form_bound,slack\n")
    code = EXIT_OK
    for theta in np.linspace(args.theta_start, args.theta_end, args.steps).tolist():
        r = amplitude_damping.verify_closed_forms(a, b, c, theta, tol=args.tol)
        row = [theta, r.entropy, r.numeric_bound, r.closed_form_entropy, r.bound,
               r.numeric_bound - r.entropy]
        buf.write(",".join(repr(x) for x in row) + "\n")
        code = code if r.theorem_holds else EXIT_CONTRADICTION
    return code, buf.getvalue()


def _cmd_fuzz(parser, args) -> tuple[int, dict]:
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    for flag, bound in (("--dim-s", args.dim_s), ("--dim-e", args.dim_e)):
        if bound < 1:  # every suite, also one that ignores the bound
            parser.error(f"{flag} must be >= 1, got {bound}")
    summary = run_suite(args.suite, args.trials, args.dim_s, args.dim_e, args.seed)
    return (EXIT_OK if summary["failures"] == 0 else EXIT_FAILURE), summary


def _cmd_exchange(parser, args) -> tuple[int, dict]:
    model = _load_model(parser, args)
    rho = _load_state(args)
    report = exchange_entropy(rho, model, tol=args.tol)
    payload = {"exchange_entropy": report.exchange_entropy, "bound": report.bound,
               "slack": report.slack}
    return (EXIT_OK if report.slack >= -args.tol else EXIT_CONTRADICTION), payload


def _cmd_prop1(parser, args) -> tuple[int, dict]:
    rho = _load_state(args)
    blocks, n = partition_from_json(load_json(args.partition)), rho.shape[0]
    labels = _labels([validate_partition(blocks, n)], n)[0]  # checked as a partition, as fuzz prop1 does
    projected_purity, mass = map(float, _partition_split(rho, labels))
    pur = purity(rho)
    residual = abs(pur - (projected_purity + mass))
    payload = {"purity": pur, "projected_purity": projected_purity,
               "off_block_mass": mass, "identity_residual": residual}
    skew = rho - rho.conj().T  # purity sums ||rho||_F^2, the split Re tr(rho^2): they differ by ½||skew||_F^2
    return (EXIT_OK if residual <= IDENTITY_TOL + 0.5 * np.vdot(skew, skew).real else EXIT_CONTRADICTION), payload


def _cmd_prop2(parser, args) -> tuple[int, dict]:
    ens = ensemble_from_json(load_json(args.ensemble))
    report = mixing_bound_report(ens)
    payload = {"mixture_entropy": report.mixture_entropy, "bound": report.bound,
               "slack": report.slack, "weight_entropy": report.weight_entropy,
               "orthogonal_support": report.orthogonal_support}
    return (EXIT_OK if report.slack >= -args.tol else EXIT_CONTRADICTION), payload


def _cmd_bridge(parser, args) -> tuple[int, dict]:
    probs = validate_distribution(distribution_from_json(load_json(args.dist)), tol=args.tol)
    blocks = partition_from_json(load_json(args.partition))
    h_classical, h_quantum = bridge_entropies(probs, blocks)
    diff = abs(h_classical - h_quantum)
    agree = diff <= IDENTITY_TOL
    payload = {"partition_entropy": h_classical, "post_measurement_entropy": h_quantum,
               "difference": diff, "agree": agree}
    return (EXIT_OK if agree else EXIT_CONTRADICTION), payload


_parser = functools.cache(build_parser)  # parse_args leaves a parser as it found it


def main(argv=None) -> int:
    """Run one command and return its exit code. The parser is built once per process."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not 0.0 <= args.tol < 1.0:  # a NaN fails too
            parser.error(f"--tol must be a finite number in [0, 1), got {args.tol!r}")
        code, payload = args.run(args.parser, args)
        _emit(payload if isinstance(payload, str) else _render(payload, args), args)
    except SystemExit as exc:  # a usage error, also parser.error inside a command
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError, AssertionError, MemoryError) as exc:
        print(f"logent: error: {exc}", file=sys.stderr)  # AssertionError: two routes to one value disagree
        return EXIT_CONTRADICTION if isinstance(exc, AssertionError) else EXIT_FAILURE
    return code


if __name__ == "__main__":
    sys.exit(main())
