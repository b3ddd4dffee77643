"""Command-line front end.

Exit codes: 0 success, 1 computation failure (non-convergence, a flow
that leaves its orbit, table mismatch), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .algebra import (
    StructureTensor,
    annihilator,
    derivation_algebra,
    dump_tensor,
    has_unit,
    is_associative,
    is_jordan,
    jordan_defect,
    load_tensor,
    power_dims,
    radical,
)
from .catalog import builtin, names, reproduce_tables
from .flow import FlowOptions, run_flow
from .moment import SolitonType, derivation_pairing, sl_residual, soliton_check, soliton_type
from .snap import RationalSnapError, format_fraction
from .stratify import beta_mu, stratum_of
from .weights import support_face, support_weights

USAGE_ERROR = 2
COMPUTE_ERROR = 1


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_input(args) -> StructureTensor:
    if getattr(args, "catalog", None):
        return builtin(args.catalog).tensor
    if getattr(args, "file", None):
        try:
            with open(args.file) as handle:
                return load_tensor(handle.read())
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc}") from exc
    raise ValueError("no input tensor: pass a JSON file or --catalog NAME")


def _print_header(args) -> None:
    if not getattr(args, "json", False):
        print(f"# jordan-flow {__version__}")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_header(args)
        for line in text_lines:
            print(line)


def _check_tol(args) -> None:
    if not args.tol > 0:
        raise ValueError(f"--tol must be positive, got {args.tol}")


def _beta(label: SolitonType) -> tuple[str, dict]:
    """beta as text, (b_1, ..., b_n), and as {"beta", "energy"} JSON."""
    beta = [format_fraction(b) for b in label.beta]
    return "(" + ", ".join(beta) + ")", {"beta": beta, "energy": format_fraction(label.energy)}


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    lines = [f"{name} ="]
    for row in m:
        cells = []
        for z in row:
            cells.append(_fmt(float(z.real)) if abs(z.imag) < 1e-12 else f"{z:.12g}")
        lines.append("  [" + ", ".join(cells) + "]")
    return lines


def cmd_validate(args) -> int:
    _check_tol(args)
    with open(args.file) as handle:
        mu = load_tensor(handle.read())
    defect = jordan_defect(mu)
    jordan = is_jordan(mu, args.tol)
    payload = {
        "dim": mu.dim,
        "norm_sq": mu.norm_sq,
        "jordan_defect": defect,
        "is_jordan": jordan,
    }
    _emit(args, payload, [
        f"dim           {mu.dim}",
        f"norm^2        {_fmt(mu.norm_sq)}",
        f"jordan defect {_fmt(defect)}",
        f"is_jordan     {jordan}",
    ])
    return 0


def cmd_invariants(args) -> int:
    mu = _load_input(args)
    rad = radical(mu)
    der_dim, _, _ = derivation_algebra(mu)
    ann = annihilator(mu)
    dims = power_dims(mu)
    payload = {
        "dim": mu.dim,
        "norm_sq": mu.norm_sq,
        "jordan_defect": jordan_defect(mu),
        "radical_dim": rad.dim,
        "derivation_dim": der_dim,
        "annihilator_dim": ann.dim,
        "power_dims": dims,
        "is_nilpotent": dims[-1] == 0,
        "is_semisimple": rad.dim == 0,
        "is_associative": is_associative(mu),
        "has_unit": has_unit(mu),
    }
    _emit(args, payload, [f"{key:16s} {value}" for key, value in payload.items()])
    return 0


def cmd_moment(args) -> int:
    _check_tol(args)
    mu = _load_input(args)
    report = soliton_check(mu, tol=args.tol)
    sl = sl_residual(mu)
    lines = _matrix_lines("M", report.M)
    lines += [
        f"energy           {_fmt(report.energy)}",
        f"c                {_fmt(report.c)}",
        f"soliton residual {_fmt(report.soliton_residual)}",
        f"is_soliton       {report.is_soliton}",
        f"sl residual      {_fmt(sl)}",
    ]
    payload = report.to_json_dict()
    payload["sl_residual"] = sl
    payload["derivation_pairing_max"] = derivation_pairing(mu)
    if report.is_soliton:
        try:
            stype = soliton_type(mu, args.tol)
            lines.append(f"type             {stype}")
            lines.append(f"beta             {_beta(stype)[0]}")
            payload["soliton_type"] = stype.to_json_dict()
        except RationalSnapError as exc:
            lines.append(f"type             unsnapped ({exc})")
            payload["soliton_type"] = None
    _emit(args, payload, lines)
    return 0


def cmd_flow(args) -> int:
    mu = _load_input(args)
    opts = FlowOptions(max_steps=args.max_steps, grad_tol=args.tol)
    trace = run_flow(mu, opts)
    if args.trace:
        trace.write_csv(args.trace)
    payload = {
        "steps": trace.steps_taken,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "terminal_energy": trace.terminal_energy,
        "lower_bound": trace.lower_bound,
        "terminal_residual": trace.terminal_report.soliton_residual,
        "terminal_type": trace.terminal_type.to_json_dict() if trace.terminal_type else None,
    }
    lines = [
        f"steps            {trace.steps_taken}",
        f"converged        {trace.converged} ({trace.stop_reason})",
        f"terminal energy  {_fmt(trace.terminal_energy)}",
        f"lower bound      {_fmt(trace.lower_bound)}",
        f"terminal type    {trace.terminal_type if trace.terminal_type else 'unsnapped'}",
    ]
    _emit(args, payload, lines)
    return 0 if trace.converged else COMPUTE_ERROR


def cmd_stratify(args) -> int:
    mu = _load_input(args)
    text, beta = _beta(beta_mu(mu))
    gap = support_face(mu.table).result.certificate_gap
    payload = {
        **beta,
        "support": [list(t) for w in support_weights(mu) for t in w.triples],
        "certificate_gap": gap,
    }
    lines = [
        f"beta_mu          {text}",
        f"||beta||^2       {payload['energy']}",
        f"support triples  {payload['support']}",
        f"certificate gap  {_fmt(gap)}",
    ]
    if args.flow:
        opts = FlowOptions(max_steps=args.max_steps, grad_tol=args.tol)
        text, payload["stratum"] = _beta(stratum_of(mu, opts))
        lines.append(f"stratum (flow)   {text}")
    _emit(args, payload, lines)
    return 0


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        rows = [builtin(n) for n in names(args.dim)]
        payload = {"entries": [
            {"name": e.name, "dim": e.dim,
             "energy": format_fraction(e.expected_energy),
             "beta": [format_fraction(b) for b in e.expected_beta],
             "distinguished": e.distinguished}
            for e in rows
        ]}
        lines = [f"{e.name:8s} dim {e.dim}  E = {format_fraction(e.expected_energy):6s}"
                 f"  beta = ({', '.join(format_fraction(b) for b in e.expected_beta)})"
                 + ("" if e.distinguished else "  [not distinguished]")
                 for e in rows]
        _emit(args, payload, lines)
        return 0
    if args.catalog_cmd == "export":
        entry = builtin(args.name)
        text = dump_tensor(entry.tensor)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return 0
    raise ValueError("catalog needs a subcommand: list | export")


def cmd_reproduce(args) -> int:
    dims = (args.dim,) if args.dim else (1, 2, 3, 4)
    report = reproduce_tables(dims=dims)
    if args.json:
        payload = {
            "rows": [{"name": r.name, "dim": r.dim, "ok": r.ok, "type": r.type_str,
                      "residual": r.residual, "note": r.note} for r in report.rows],
            "strata_by_dim": report.strata_by_dim,
            "ok": report.ok,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_header(args)
        print(report.to_markdown() if args.format == "md" else report.to_csv(), end="")
        if args.format != "md":
            strata = ", ".join(f"dim {d}: {c}" for d, c in sorted(report.strata_by_dim.items()))
            print(f"# strata counts: {strata}")
        print(f"# {len(report.rows)} rows, {len(report.failures)} failures")
    return 0 if report.ok else COMPUTE_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordan-flow",
        description="moment matrices, energy flow and strata of complex Jordan algebras",
    )
    parser.add_argument("--version", action="version", version=f"jordan-flow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, file_input=True):
        if file_input:
            p.add_argument("file", nargs="?", help="tensor JSON file")
            p.add_argument("--catalog", metavar="NAME", help="use a built-in catalog entry")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="check a tensor JSON file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative Jordan tolerance: is_jordan when the defect is at most tol * ||mu||^3")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="classical invariants of an algebra")
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("moment", help="moment matrix, energy and soliton check")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-8, help="soliton residual tolerance")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("flow", help="run the negative-gradient energy flow")
    add_common(p)
    p.add_argument("--tol", type=float, default=FlowOptions.grad_tol, help="gradient norm tolerance")
    p.add_argument("--max-steps", type=int, default=FlowOptions.max_steps)
    p.add_argument("--trace", metavar="CSV", help="write step,energy,grad_norm rows; a witness stop "
                   "adds a last row at the same step for its limit")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("stratify", help="support weights and the min-norm point beta_mu")
    add_common(p)
    p.add_argument("--flow", action="store_true", help="also label the stratum via the flow")
    p.add_argument("--tol", type=float, default=FlowOptions.grad_tol)
    p.add_argument("--max-steps", type=int, default=FlowOptions.max_steps)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("catalog", help="built-in classification tables")
    catalog_sub = p.add_subparsers(dest="catalog_cmd", required=True)
    pl = catalog_sub.add_parser("list")
    pl.add_argument("--dim", type=int)
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_catalog)
    pe = catalog_sub.add_parser("export")
    pe.add_argument("--name", required=True)
    pe.add_argument("--out", metavar="FILE")
    pe.set_defaults(func=cmd_catalog)

    p = sub.add_parser("reproduce", help="recompute the classification tables and diff")
    p.add_argument("--dim", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _warn_line(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning as one line, without the source line Python prints."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn_line
            return args.func(args)
    except (RuntimeError, RationalSnapError) as exc:   # an uncertified label is a computation failure
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
