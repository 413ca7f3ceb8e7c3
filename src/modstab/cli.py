"""Command line entry points.

    modstab run <config-or-builtin> [--out PATH] [--seed-override N]
                [--probes N] [--quiet]
    modstab list
    modstab norm <modular> <vector-json>
    modstab decompose <re> <im>

``run`` accepts a builtin scenario name or a JSON config path and writes
a JSON-lines report (stdout by default).  ``norm`` and ``decompose``
expose the two independently useful numeric kernels as one-shots.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from .algebra import three_unimodular_decomposition
from .config import MAX_SAMPLE_COUNT, parse_modular, read
from .errors import ConfigError, ModstabError, NonFiniteValueError
from .modular import ModularSpec, luxemburg_norm
from .report import count_failures, write_report
from .scenarios import list_builtin_scenarios, run_scenario


def _parse_modular(text):
    """norm | power:P | orlicz:PHI, read by the config schema's ``modular``
    rows, so that P obeys the config's rules for a real value."""
    kind, *fields = text.split(":")
    key = {"power": "p", "orlicz": "phi"}.get(kind)
    if len(fields) > (key is not None):
        raise ConfigError(f"cannot parse modular {text!r}; use norm | power:P | orlicz:PHI")
    cfg = {"kind": kind}
    if fields:
        cfg[key] = fields[0]
        if key == "p":
            # text that is no number stays text, which the schema refuses
            with contextlib.suppress(ValueError):
                cfg["p"] = float(fields[0])
    return ModularSpec(**parse_modular(cfg))


def _parse_vector(text):
    try:
        data = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"vector must be a JSON array: {e}")
    if not isinstance(data, list) or not data:
        raise ConfigError("vector must be a nonempty JSON array")
    return np.array([read(entry, "vector entry", "complex") for entry in data], dtype=np.complex128)


def _cmd_run(args):
    result = run_scenario(
        args.config, seed_override=args.seed_override, probes_override=args.probes
    )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_report(result.header, result.records, fh)
    elif not args.quiet:
        write_report(result.header, result.records, sys.stdout)
    if not args.quiet:
        print(
            f"# {args.config}: exit={result.exit_code} records={len(result.records)} "
            f"failures={count_failures(result.records)} elapsed={result.elapsed:.2f}s",
            file=sys.stderr,
        )
    return result.exit_code


def _cmd_list(_args):
    for name in list_builtin_scenarios():
        print(name)
    return 0


def _cmd_norm(args):
    m = _parse_modular(args.modular)
    vec = _parse_vector(args.vector)
    with np.errstate(over="ignore"):
        value = luxemburg_norm(m, vec, tol=args.tol)
    # a closed form overflows float64 where the bisection ran out of bracket
    if not np.isfinite(value):
        raise NonFiniteValueError("the Luxemburg norm overflows float64")
    print(f"{value:.12g}")
    return 0


def _cmd_decompose(args):
    w = complex(args.re, args.im)
    triple = three_unimodular_decomposition(w)
    for mu in (triple.mu1, triple.mu2, triple.mu3):
        print(f"{mu.real:+.15f} {mu.imag:+.15f}")
    print(f"# sum error {abs(triple.total - w):.3e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="modstab")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or builtin")
    run_p.add_argument("config", help="builtin scenario name or JSON config path")
    run_p.add_argument("--out", default=None, help="report path (default: stdout)")
    run_p.add_argument("--seed-override", type=int, default=None)
    run_p.add_argument(
        "--probes", type=int, default=None,
        help=f"override probe count (at most {MAX_SAMPLE_COUNT})",
    )
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list builtin scenarios")
    list_p.set_defaults(func=_cmd_list)

    norm_p = sub.add_parser("norm", help="Luxemburg norm one-shot")
    norm_p.add_argument("modular", help="norm | power:P | orlicz:PHI")
    norm_p.add_argument("vector", help="JSON array; entries are numbers or [re, im]")
    norm_p.add_argument(
        "--tol", type=float, default=1e-12,
        help="bisection tolerance; only orlicz:exp_minus_one and orlicz:dead_zone are "
        "bisected, the homogeneous modulars take a closed form",
    )
    norm_p.set_defaults(func=_cmd_norm)

    dec_p = sub.add_parser("decompose", help="three-unimodular decomposition one-shot")
    dec_p.add_argument("re", type=float)
    dec_p.add_argument("im", type=float)
    dec_p.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModstabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
