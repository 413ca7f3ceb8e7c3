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
import json
import sys

import numpy as np

from .algebra import three_unimodular_decomposition
from .errors import ConfigError, ModstabError
from .modular import ModularSpec, luxemburg_norm
from .report import write_report
from .scenarios import MAX_SAMPLE_COUNT, list_builtin_scenarios, run_scenario


def _parse_modular(text):
    parts = text.split(":")
    kind = parts[0]
    if kind == "norm":
        return ModularSpec(kind="norm")
    if kind == "power":
        p = float(parts[1]) if len(parts) > 1 else 2.0
        return ModularSpec(kind="power", p=p)
    if kind == "orlicz":
        phi = parts[1] if len(parts) > 1 else "square"
        return ModularSpec(kind="orlicz", phi=phi)
    raise ConfigError(f"cannot parse modular {text!r}; use norm | power:P | orlicz:PHI")


def _parse_vector(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"vector must be a JSON array: {e}")
    if not isinstance(data, list) or not data:
        raise ConfigError("vector must be a nonempty JSON array")
    out = []
    for entry in data:
        if isinstance(entry, (int, float)):
            out.append(complex(entry))
        elif isinstance(entry, list) and len(entry) == 2:
            out.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError("vector entries must be numbers or [re, im] pairs")
    return np.array(out, dtype=np.complex128)


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
        n_fail = sum(1 for r in result.records if not r.advisory and not r.passed)
        print(
            f"# {args.config}: exit={result.exit_code} records={len(result.records)} "
            f"failures={n_fail} elapsed={result.elapsed:.2f}s",
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
    print(f"{luxemburg_norm(m, vec, tol=args.tol):.12g}")
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
    norm_p.add_argument("--tol", type=float, default=1e-12)
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
