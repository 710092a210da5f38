"""Command-line front end.

Subcommands:

  dual-report   evaluate the full value chain and emit a report
  kkt-verify    certify a candidate primal-dual pair
  gap-analyze   run the zero-gap analyses and emit the bridged report
  conjugate     print one conjugate value

Exit codes: 0 success (kkt-verify: pair optimal), 1 input error, 2 chain
violation detected by dual-report, 3 kkt-verify conditions failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import catalog as _catalog
from .core import BoxDomain
from .conjugation import left_conjugate, phi_conjugate
from .duality import ProblemInstance, duality_chain_report
from .functions import Elementary
from .gap import DEFAULT_ALPHA_OFFSETS, DEFAULT_EPS_LIST, theorem_bridge_report
from .kkt import verify_kkt
from .serialize import (
    InstanceFormatError,
    dumps_canonical,
    dumps_csv,
    instance_summary,
    jsonify,
    load_instance,
    round_sig,
)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors, not argparse's 2
        raise CliError(message)


def _floats(text: str, kind=float) -> list:
    what = "integers" if kind is int else "finite numbers"
    try:
        values = [kind(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise CliError(f"expected comma-separated {what}, got {text!r}") from exc
    if not all(math.isfinite(x) for x in values):
        raise CliError(f"expected comma-separated {what}, got {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--catalog", help="built-in instance name")
    src.add_argument("--instance", help="path to an instance JSON file")
    p.add_argument("--box", help="box as lo,hi (1D) or lo1,hi1,lo2,hi2 (2D)")
    p.add_argument("--grid", help="samples per axis, comma-separated")
    p.add_argument("--a-max", type=float, dest="a_max")
    p.add_argument("--v-max", type=float, dest="v_max")
    p.add_argument("--eps-list", dest="eps_list")
    p.add_argument("--alpha-list", dest="alpha_list")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default: stdout)")


@dataclass
class RunConfig:
    box: Optional[BoxDomain]
    samples: Optional[tuple[int, ...]]
    a_max: Optional[float]
    v_max: Optional[float]
    eps_list: Optional[list[float]]
    alpha_list: Optional[list[float]]
    tol: float
    fmt: str
    out: Optional[str]

    def resolve_box(self, base: BoxDomain) -> BoxDomain:
        box = self.box or base
        if self.samples:
            samples = self.samples
            if len(samples) == 1 and box.dim == 2:
                samples = samples * 2
            box = BoxDomain(box.lower, box.upper, samples)
        return box


def _config(args) -> RunConfig:
    box = None
    if args.box:
        coords = _floats(args.box)
        if len(coords) not in (2, 4):
            raise CliError("--box needs 2 (1D) or 4 (2D) numbers")
        dim = len(coords) // 2
        lower = tuple(coords[2 * i] for i in range(dim))
        upper = tuple(coords[2 * i + 1] for i in range(dim))
        try:
            box = BoxDomain(lower, upper, (2001,) if dim == 1 else (201, 201))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if not 0.0 < args.tol < math.inf:
        raise CliError("--tol must be finite and positive")
    return RunConfig(
        box=box,
        samples=tuple(_floats(args.grid, int)) if args.grid else None,
        a_max=args.a_max,
        v_max=args.v_max,
        eps_list=_floats(args.eps_list) if args.eps_list is not None else None,
        alpha_list=_floats(args.alpha_list) if args.alpha_list is not None else None,
        tol=args.tol,
        fmt=args.format,
        out=args.out,
    )


def _load(args, cfg: RunConfig) -> tuple[ProblemInstance, Optional[_catalog.CatalogEntry]]:
    if args.catalog:
        try:
            entry = _catalog.get_entry(args.catalog)
        except KeyError as exc:
            raise CliError(str(exc)) from exc
        try:
            box = cfg.resolve_box(entry.default_box)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        inst = _catalog.with_overrides(
            entry, box=box, a_max=cfg.a_max, v_max=cfg.v_max
        )
        return inst, entry
    if args.instance:
        inst = load_instance(args.instance)
        if any(o is not None for o in (cfg.box, cfg.samples, cfg.a_max, cfg.v_max)):
            phi = inst.phi
            if cfg.a_max is not None or cfg.v_max is not None:
                phi = replace(
                    phi,
                    a_max=cfg.a_max if cfg.a_max is not None else phi.a_max,
                    v_max=cfg.v_max if cfg.v_max is not None else phi.v_max,
                )
            try:
                box = cfg.resolve_box(inst.box)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
            inst = ProblemInstance(inst.f, inst.g, box, phi)
        return inst, None
    raise CliError("one of --catalog or --instance is required")


def _emit(cfg: RunConfig, doc: dict, csv_rows: Optional[list[dict]] = None):
    if cfg.fmt == "csv" and csv_rows is not None:
        _write(cfg, dumps_csv(csv_rows))
    else:
        _write(cfg, dumps_canonical(doc))


def _write(cfg: RunConfig, text: str):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dual_report(args) -> int:
    cfg = _config(args)
    inst, _ = _load(args, cfg)
    report = duality_chain_report(inst, tol=cfg.tol)
    doc = report.as_dict()
    doc["instance"] = instance_summary(inst)
    _emit(cfg, doc, report.csv_rows())
    return 0 if report.chain_ok else 2


def cmd_kkt_verify(args) -> int:
    cfg = _config(args)
    inst, _ = _load(args, cfg)
    if args.x is None:
        raise CliError("--x is required")
    x = tuple(_floats(args.x))
    w = tuple(_floats(args.w)) if args.w is not None else (0.0,) * inst.box.dim
    a = args.a if args.a is not None else 0.0
    try:
        phi_star = Elementary(a, w, 0.0)
        cert = verify_kkt(inst, x, phi_star, tol=cfg.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    doc = cert.as_dict()
    doc["instance"] = instance_summary(inst)
    _emit(cfg, doc)
    return 0 if cert.optimal else 3


def cmd_gap_analyze(args) -> int:
    cfg = _config(args)
    inst, entry = _load(args, cfg)
    pairs = None
    if entry is not None:
        pin = entry.expected.get("intersection", {}).get("pair")
        if pin:
            pairs = [
                (
                    Elementary(pin[0][0], (pin[0][1],), 0.0),
                    Elementary(pin[1][0], (pin[1][1],), 0.0),
                )
            ]
    bridge = theorem_bridge_report(
        inst,
        eps_list=DEFAULT_EPS_LIST if cfg.eps_list is None else cfg.eps_list,
        alphas=cfg.alpha_list,
        alpha_offsets=DEFAULT_ALPHA_OFFSETS,
        pairs=pairs,
    )
    report = duality_chain_report(inst, tol=cfg.tol)
    report.gap_analysis = bridge.as_dict()
    doc = report.as_dict()
    doc["instance"] = instance_summary(inst)
    rows = report.csv_rows()
    for cert in bridge.intersection:
        rows.append(
            {
                "name": f"intersection(alpha={cert.alpha:.12g})",
                "value": "found" if cert.found else "inconclusive",
                "attainer": "",
                "method": "lemma-form",
                "truncation": "",
            }
        )
    rows.append(
        {
            "name": "sum_condition",
            "value": bridge.condition_sum,
            "attainer": "",
            "method": "zero-sum pair search",
            "truncation": "",
        }
    )
    _emit(cfg, doc, rows)
    return 0


def cmd_conjugate(args) -> int:
    cfg = _config(args)
    inst, _ = _load(args, cfg)
    func = inst.f if args.which == "f" else inst.g
    b = tuple(_floats(args.b)) if args.b is not None else (0.0,) * inst.box.dim
    try:
        phi = Elementary(args.a if args.a is not None else 0.0, b, args.c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    conj = left_conjugate if args.left else phi_conjugate
    value = conj(func, phi, inst.box).value
    text = jsonify(round_sig(value))
    _write(cfg, (text if isinstance(text, str) else f"{text:.12g}") + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="phidual", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual-report", help="evaluate the dual value chain")
    _add_common(p)
    p.set_defaults(func=cmd_dual_report)

    p = sub.add_parser("kkt-verify", help="certify a primal-dual pair")
    _add_common(p)
    p.add_argument("--x", help="candidate minimizer coordinates")
    p.add_argument("--a", type=float, help="quadratic coefficient of phi*")
    p.add_argument("--w", help="linear coefficients of phi*")
    p.set_defaults(func=cmd_kkt_verify)

    p = sub.add_parser("gap-analyze", help="run the zero-duality-gap analyses")
    _add_common(p)
    p.set_defaults(func=cmd_gap_analyze)

    p = sub.add_parser("conjugate", help="print one conjugate value")
    _add_common(p)
    p.add_argument("--which", choices=("f", "g"), required=True)
    p.add_argument("--a", type=float, help="quadratic coefficient of phi")
    p.add_argument("--b", help="linear coefficients of phi")
    p.add_argument("--c", type=float, default=0.0, help="constant of phi")
    p.add_argument("--left", action="store_true", help="left conjugate sup(-f-phi)")
    p.set_defaults(func=cmd_conjugate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
