"""Command-line front end.

Exit codes are a stable contract: 0 success, 2 invalid input, 3 inadmissible
state (StateError), 4 non-convergence or an indefinite Jacobian.  Verbosity
comes from the environment variable HEXFLOW_LOG: any standard level name
(DEBUG, INFO, WARNING, ERROR, CRITICAL) in any case; unset or unknown means
INFO.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .errors import (FormatError, HexflowError, NoDescentError, StateError,
                     StepCollapseError)
from .curvature import curvature
from .flows import FlowConfig, FlowKind, Status, integrate
from .mesh import (euler_characteristic, load_mesh, load_state_vector,
                   validate_state)
from .solver import newton_solve

logger = logging.getLogger("hexflow")

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_INADMISSIBLE_STATE = 3
EXIT_NO_CONVERGENCE = 4


def log_level(name: str | None) -> int:
    """Numeric level of a standard level name in any case; INFO otherwise."""
    level = logging.getLevelName((name or "INFO").upper())
    return level if isinstance(level, int) else logging.INFO


def _setup_logging() -> None:
    logging.basicConfig(level=log_level(os.environ.get("HEXFLOW_LOG")),
                        format="%(levelname)s %(message)s")


def _load_target(path) -> np.ndarray:
    """Target curvature file: {"kbar": [...]} or {"K": [...]} (one of the two),
    so `hexflow curvature` output can be reused directly."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"target JSON syntax error at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError("target document must be a JSON object")
    keys = [k for k in ("kbar", "K") if k in doc]
    if len(keys) != 1:
        raise FormatError('target document must contain exactly one of "kbar" or "K"')
    values = doc[keys[0]]
    if not (isinstance(values, list)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in values)):
        raise FormatError(f"target key {keys[0]!r} must be a list of numbers")
    kbar = np.array(values, dtype=float)
    if not np.all((kbar > 0) & np.isfinite(kbar)):
        raise FormatError("every target entry must be positive and finite")
    return kbar


def _write_state(path, u: np.ndarray, k: np.ndarray | None = None) -> None:
    doc: dict = {"u": [float(v) for v in u]}
    if k is not None:
        doc["K"] = [float(v) for v in k]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def cmd_check(args) -> int:
    try:
        m = load_mesh(args.mesh)
    except (OSError, FormatError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    phis = [e.phi for e in m.edges]
    print(f"N={m.n_boundary} E={len(m.edges)} F={len(m.faces)} "
          f"chi={euler_characteristic(m)}")
    print(f"phi: min={min(phis):g} max={max(phis):g} "
          f"mean={sum(phis) / len(phis):g}")
    return EXIT_OK


def _load_mesh_and_state(args):
    m = load_mesh(args.mesh)
    u = load_state_vector(args.state)
    return m, validate_state(m, u)


def cmd_curvature(args) -> int:
    m, state = _load_mesh_and_state(args)
    k = curvature(m, state)
    print(json.dumps({"K": [float(f"{v:.15g}") for v in k]}))
    return EXIT_OK


def cmd_flow(args) -> int:
    m, state = _load_mesh_and_state(args)
    kbar = _load_target(args.target)
    if args.kind == "ricci":
        kind = FlowKind.ricci()
    elif args.kind == "calabi":
        kind = FlowKind.calabi()
    else:
        kind = FlowKind.fractional(args.s)
    cfg = FlowConfig(kind=kind, kbar=kbar, tol=args.tol,
                     max_steps=args.max_steps, trace_every=args.trace_every)
    try:
        final, trace, status = integrate(m, state, cfg)
    except StepCollapseError as exc:
        logger.error("step collapse: %s", exc)
        return EXIT_NO_CONVERGENCE
    if args.out:
        _write_state(args.out, final.u)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            trace.write_csv(fh)
    last = trace.rows[-1]
    logger.info("%s after %d steps, t=%g, residual_inf=%.3e",
                status.value, last.step, last.t, last.residual_inf)
    return EXIT_OK if status is Status.CONVERGED else EXIT_NO_CONVERGENCE


def cmd_solve(args) -> int:
    m = load_mesh(args.mesh)
    kbar = _load_target(args.target)
    s0 = None
    if args.state:
        s0 = validate_state(m, load_state_vector(args.state))
    try:
        result = newton_solve(m, s0, kbar, tol=args.tol, max_iter=args.max_iter)
    except NoDescentError as exc:
        logger.error("no descent: %s; consider a Ricci-flow warm start "
                     "(hexflow flow --kind ricci) and pass its output via --state",
                     exc)
        return EXIT_NO_CONVERGENCE
    k = curvature(m, result.u_star)
    if args.out:
        _write_state(args.out, result.u_star.u, k)
    logger.info("%s after %d iterations, residual_inf=%.3e",
                "converged" if result.converged else "not converged",
                result.iterations, result.residual_inf)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexflow",
        description="Generalized circle-packing metrics and curvature flows "
                    "on ideally triangulated surfaces with boundary.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a mesh file")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("curvature", help="evaluate boundary lengths K")
    p.add_argument("mesh")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("flow", help="integrate a curvature flow")
    p.add_argument("mesh")
    p.add_argument("--state", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", required=True, choices=["ricci", "calabi", "frac"])
    p.add_argument("--s", type=float, default=None,
                   help="fractional order (required with --kind frac)")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-steps", type=int, default=200_000, dest="max_steps")
    p.add_argument("--trace-every", type=int, default=10, dest="trace_every")
    p.add_argument("--trace", default=None, help="CSV trace output path")
    p.add_argument("--out", default=None, help="final state JSON output path")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("solve", help="Newton solve for prescribed boundary lengths")
    p.add_argument("mesh")
    p.add_argument("--target", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50, dest="max_iter")
    p.add_argument("--out", default=None, help="solution JSON output path")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "flow" and args.kind == "frac" and args.s is None:
        parser.error("--kind frac requires --s")
    try:
        return args.func(args)
    except (OSError, FormatError) as exc:
        logger.error("%s", exc)
        return EXIT_INVALID_INPUT
    except StateError as exc:
        logger.error("inadmissible state: %s", exc)
        return EXIT_INADMISSIBLE_STATE
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_INVALID_INPUT
    except HexflowError as exc:
        logger.error("%s", exc)
        return EXIT_NO_CONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
