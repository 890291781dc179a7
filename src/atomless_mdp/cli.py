"""Command-line interface: model and policy file I/O, evaluation, paths,
mixing, derandomization and the vector-measure subcommands.

All numeric artifacts are written with 17 significant digits so files
round-trip doubles losslessly, and every command is deterministic given its
inputs (randomness only enters builtin random models through --seed).

Exit codes: 0 success, 2 invalid input, 3 certified failure, 4 I/O,
5 internal error (a bug: the exception type goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from atomless_mdp_cli import THREAD_VARIABLES

from .errors import (
    AtomlessMDPError,
    CertifiedFailure,
    ModelFormatError,
    NotCertifiedError,
)
from .measure import MERGE_TOL, PieceMeasure, StatePartition, locate_breakpoints
from .model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    builtin,
    cell_action_weights,
    discounted_to_absorbing,
    model_from_bytes,
    save_model_file,
    weighted_transform,
)
from .occupancy import evaluate_weights, occupancy, occupancy_total_variation
from .derandomize import derandomize, make_context, mix_pair, path_policy, tv_modulus
from .lyapunov import _PROBABILITY_TOL, IntervalSet, VectorMeasure, find_set, range_hull


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _positive(text: str) -> float:
    x = float(text)
    if not (np.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return x


def _finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return x


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text}")
        return n
    return count


def _fraction(text: str) -> float:
    x = float(text)
    if not 0.0 <= x <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text}")
    return x


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


def blas_setting() -> str:
    """The BLAS library NumPy was built with and the thread variables' values."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):     # NumPy before 1.25 prints its configuration
        name = "unknown"
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARIABLES)
    return f"{name}, {threads}"


@dataclass
class RunReport:
    command: list
    blas: str = ""
    inputs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_clock: float = 0.0

    def add_input(self, path) -> bytes:
        """Record the input's digest and return its content."""
        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[str(path)] = hashlib.sha256(data).hexdigest()[:16]
        return data

    def render(self) -> str:
        lines = [f"command: {' '.join(self.command)}", f"blas: {self.blas}"]
        for path, digest in self.inputs.items():
            lines.append(f"input: {path} sha256:{digest}")
        for key, value in self.tolerances.items():
            lines.append(f"{key}: {fmt(value)}")
        for key, value in self.certificates.items():
            if isinstance(value, float):
                value = fmt(value)
            lines.append(f"{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for path in self.outputs:
            lines.append(f"output: {path}")
        lines.append(f"wall-clock: {self.wall_clock:.3f}s")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _readable(tokens) -> bool:
    """True when float reads every one of ``tokens``."""
    try:
        list(map(float, tokens))
    except ValueError:
        return False
    return True


def _tiling(path, data: bytes, min_cols, max_cols=None):
    """The rows ``lo hi v_1 .. v_k`` of ``data``, the content of the text file
    ``path``, sorted by start: their partition of [0, 1], their (rows x k)
    values and their line numbers.

    ``#`` starts a comment, and lines end as in a file opened in text mode:
    at \\n, \\r\\n or \\r.  Every row holds the same number of finite
    numbers, between ``min_cols`` and ``max_cols``.  Sorted by start, each
    row starts within 1e-9 of where the row before ends (the first at 0),
    and the last ends within 1e-9 of 1.  The breakpoints are 0, the starts
    of rows 2 to n, and 1; a row, or a cell between two breakpoints,
    narrower than MERGE_TOL is an error.  Errors name ``path:line``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ModelFormatError(path, "not a UTF-8 text file") from None
    lines, rows = [], []
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            lines.append(lineno)
            rows.append(tokens)
    if not rows:
        raise ModelFormatError(path, "empty file")
    # report the first bad line, and on it the first of these faults: a
    # column count unlike the first line's or out of range, a token float
    # cannot read, a non-finite number
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    cols = int(widths[0])
    bad = np.flatnonzero((widths != cols) | (widths < min_cols)
                         | (max_cols is not None and widths > max_cols))
    first = int(bad[0]) if bad.size else len(rows)
    if first < len(rows):
        width = int(widths[first])
        expected = f"at least {min_cols}" if max_cols is None else max_cols
        fault = (f"{width} columns, but line {lines[0]} has {cols}" if width != cols
                 else f"expected {expected} columns, got {width}")
    try:
        values = np.fromiter(map(float, chain.from_iterable(rows[:first])), float, first * cols)
    except ValueError:
        first = next(k for k, tokens in enumerate(rows) if not _readable(tokens))
        fault = "non-numeric entry"
        values = np.fromiter(map(float, chain.from_iterable(rows[:first])), float, first * cols)
    table = values.reshape(first, cols)
    non_finite = ~np.isfinite(table).all(axis=1)
    if non_finite.any():
        raise ModelFormatError(f"{path}:{lines[int(np.argmax(non_finite))]}", "non-finite entry")
    if first < len(rows):
        raise ModelFormatError(f"{path}:{lines[first]}", fault)
    order = np.argsort(table[:, 0], kind="stable")
    lines, table = [lines[r] for r in order], table[order]
    lo, hi = table[:, 0], table[:, 1]
    ends = np.concatenate(([0.0], hi))          # where each row should start, then 1
    off = np.abs(np.append(lo, 1.0) - ends) > 1e-9
    if off.any():
        k = int(np.argmax(off))
        if k == lo.size:
            raise ModelFormatError(path, f"intervals tile only up to {ends[k]}, not 1")
        raise ModelFormatError(f"{path}:{lines[k]}",
                               f"interval starts at {lo[k]}, expected {ends[k]}")
    points = np.concatenate(([0.0], lo[1:], [1.0]))
    narrow = np.minimum(hi - lo, np.diff(points)) <= MERGE_TOL
    if narrow.any():
        raise ModelFormatError(f"{path}:{lines[int(np.argmax(narrow))]}",
                               f"interval narrower than {MERGE_TOL}")
    return StatePartition(points), table[:, 2:], lines


def load_policy_file(path, model: AtomlessMDP, data: bytes):
    """Rows `t_lo t_hi action` (deterministic) or `t_lo t_hi p_0 .. p_{A-1}`,
    parsed from ``data``, the content of the file at ``path``."""
    part, values, _ = _tiling(path, data, 3)
    acts = values[:, 0]
    deterministic = values.shape[1] == 1 and bool(
        np.all((acts % 1 == 0) & (0 <= acts) & (acts < model.action_count)))
    if not deterministic and values.shape[1] != model.action_count:
        raise ModelFormatError(path, f"expected {model.action_count} probabilities per row")
    try:
        if deterministic:
            return DeterministicPolicy(part, acts)
        return StationaryPolicy(part, values)
    except ValueError as exc:
        raise ModelFormatError(path, str(exc)) from None


def save_policy_file(policy, path) -> None:
    pts = policy.partition.points
    with open(path, "w") as fh:
        for k in range(policy.partition.cell_count):
            if isinstance(policy, DeterministicPolicy):
                fh.write(f"{fmt(pts[k])} {fmt(pts[k + 1])} {int(policy.actions[k])}\n")
            else:
                probs = " ".join(fmt(p) for p in policy.probs[k])
                fh.write(f"{fmt(pts[k])} {fmt(pts[k + 1])} {probs}\n")


def load_densities_file(path, data: bytes) -> VectorMeasure:
    """Rows `t_lo t_hi mu_mass d_1 .. d_N` tiling [0,1], parsed from
    ``data``, the content of the file at ``path``."""
    part, values, _ = _tiling(path, data, 4)
    try:
        base = PieceMeasure(part, values[:, 0])
        total = base.total
        if abs(total - 1.0) > _PROBABILITY_TOL:
            base = PieceMeasure(part, base.masses / total)
        return VectorMeasure(base, values[:, 1:])
    except ValueError as exc:
        raise ModelFormatError(path, str(exc)) from None


def save_set_file(sets: IntervalSet, path) -> None:
    with open(path, "w") as fh:
        for lo, hi in sets.intervals:
            fh.write(f"{fmt(lo)} {fmt(hi)}\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _load_any_model(path, report):
    """Read the file once; the same bytes give the digest and the model."""
    return model_from_bytes(report.add_input(path), path)


def _load_interval_model(path, report) -> AtomlessMDP:
    model = _load_any_model(path, report)
    if not isinstance(model, AtomlessMDP):
        raise ModelFormatError(path, "a discrete chain supports only validate and certify")
    return model


def _absorbing(model: AtomlessMDP) -> AtomlessMDP:
    """The model, or its discount-to-absorbing transform if it is discounted."""
    return discounted_to_absorbing(model) if model.kind == "discounted" else model


def _save_certified_policy(prefix, phi, cert, report):
    """Write ``<prefix>.policy.txt`` and ``<prefix>.cert.json`` (the summary
    and the trace), and report them with the certified error."""
    report.certificates["error"] = cert.error
    out_policy, out_cert = f"{prefix}.policy.txt", f"{prefix}.cert.json"
    save_policy_file(phi, out_policy)
    with open(out_cert, "w") as fh:
        json.dump(cert.summary() | {"trace": cert.trace}, fh, indent=1)
        fh.write("\n")
    report.outputs.extend([out_policy, out_cert])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args, report):
    model = _load_any_model(args.model, report)
    if isinstance(model, AtomlessMDP):
        report.certificates.update({
            "kind": model.kind,
            "cells": model.cell_count,
            "actions": model.action_count,
            "criteria": model.criteria,
        })
        report.notes.append("model valid")
    else:
        report.notes.append("discrete chain valid (diagnostics model)")
    return 0


def cmd_certify(args, report):
    model = _load_any_model(args.model, report)
    if isinstance(model, AtomlessMDP):
        cert = _absorbing(model).certificate(args.tol)
        report.certificates.update(cert.summary())
        if model.kind == "discounted":
            report.notes.append("certified after the discount-to-absorbing transform")
    else:
        L = model.sup_expected_time()
        surv = model.max_survival(32)
        report.certificates.update({
            "L": L,
            "survival_horizon": 32,
            "tail_at_horizon": float(L * surv[-1]),
        })
        report.notes.append(
            "absorbing; uniform-absorption certificate holds for the truncation only"
        )
        report.notes.append(model.note)
    return 0


def cmd_evaluate(args, report):
    model = _load_interval_model(args.model, report)
    policy = load_policy_file(args.policy, model, report.add_input(args.policy))
    work = _absorbing(model)
    marginal, err, v = evaluate_weights(work, cell_action_weights(work, policy), args.tol)
    report.tolerances["tol"] = args.tol
    report.certificates["total_mass"] = float(marginal.sum())
    report.certificates["truncation_error"] = err
    if args.out:
        _write_csv(args.out, [f"v_{i + 1}" for i in range(v.size)], [list(map(float, v))])
        report.outputs.append(args.out)
    report.notes.append("v = " + " ".join(fmt(x) for x in v))
    return 0


def cmd_path(args, report):
    model = _load_interval_model(args.model, report)
    phi0 = load_policy_file(args.phi0, model, report.add_input(args.phi0))
    phi1 = load_policy_file(args.phi1, model, report.add_input(args.phi1))
    if not isinstance(phi0, DeterministicPolicy) or not isinstance(phi1, DeterministicPolicy):
        raise ModelFormatError("policy", "path endpoints must be deterministic")
    work = _absorbing(model)
    ctx = make_context(work, phi0, phi1)
    alphas = np.linspace(0.0, 1.0, args.grid)
    rows, previous = [], None
    for alpha in alphas:
        phi = path_policy(ctx, float(alpha))
        q = occupancy(work, phi, tol=args.tol)
        v = q.performance()
        d_tv = 0.0 if previous is None else occupancy_total_variation(q, previous)
        rows.append([float(alpha), *map(float, v), float(d_tv)])
        previous = q
    header = ["alpha"] + [f"v_{i + 1}" for i in range(work.criteria)] + ["d_tv_prev"]
    report.tolerances["tol"] = args.tol
    report.certificates["tv_modulus_step"] = tv_modulus(ctx, 1.0 / (args.grid - 1))
    if args.out:
        _write_csv(args.out, header, rows)
        report.outputs.append(args.out)
    return 0


def cmd_mix(args, report):
    model = _load_interval_model(args.model, report)
    phi0 = load_policy_file(args.phi0, model, report.add_input(args.phi0))
    phi1 = load_policy_file(args.phi1, model, report.add_input(args.phi1))
    phi, cert = mix_pair(_absorbing(model), phi0, phi1, args.lam, tol=args.tol)
    report.tolerances["tol"] = args.tol
    _save_certified_policy(args.out, phi, cert, report)
    return 0


def cmd_derandomize(args, report):
    model = _load_interval_model(args.model, report)
    policy = load_policy_file(args.policy, model, report.add_input(args.policy))
    phi, cert = derandomize(_absorbing(model), policy, tol=args.tol)
    report.tolerances["tol"] = args.tol
    _save_certified_policy(args.out, phi.canonical(), cert, report)
    return 0


def cmd_lyapunov(args, report):
    vm = load_densities_file(args.densities, report.add_input(args.densities))
    if args.subcommand == "hull":
        hull = range_hull(vm, direction_count=args.grid)
        report.certificates["gap"] = hull.gap
        report.certificates["vertices"] = len(hull.vertices)
        if args.out:
            n = vm.criteria
            header = [f"b_{i + 1}" for i in range(n)] + ["support"] + [f"vertex_{i + 1}" for i in range(n)]
            rows = [
                [*map(float, b), float(h), *map(float, v)]
                for b, h, v in zip(hull.directions, hull.support_values, hull.direction_vertices)
            ]
            _write_csv(args.out, header, rows)
            report.outputs.append(args.out)
        return 0
    target = np.array(args.target)
    if target.size != vm.criteria:
        raise ModelFormatError("target", f"expected {vm.criteria} values, got {target.size}")
    sets = find_set(vm, target, tol=args.tol)
    achieved = vm.integrate(sets)
    report.tolerances["tol"] = args.tol
    report.certificates["residual"] = float(np.linalg.norm(achieved - target))
    report.notes.append("achieved = " + " ".join(fmt(x) for x in achieved))
    if args.out:
        save_set_file(sets, args.out)
        report.outputs.append(args.out)
    return 0


def cmd_transform(args, report):
    model = _load_interval_model(args.model, report)
    if args.subcommand == "discount":
        out_model = discounted_to_absorbing(model)
    else:
        rows, weights, lines = _tiling(args.weights, report.add_input(args.weights), 3, 3)
        # the weight must be constant on each grid cell: no row starts inside one
        _, on_grid = locate_breakpoints(model.grid.points, rows.points)
        if not on_grid.all():
            k = int(np.argmin(on_grid))
            x = float(rows.points[k])
            i = int(np.searchsorted(model.grid.points, x)) - 1
            raise ModelFormatError(f"{args.weights}:{lines[k]}",
                                   f"row starts at {x!r}, inside grid cell {i}")
        w = weights[model.grid.index_map_from(rows), 0]
        out_model = weighted_transform(model, w)
    save_model_file(out_model, args.out)
    report.outputs.append(args.out)
    report.certificates["kind"] = out_model.kind
    if out_model.beta is not None:
        report.certificates["beta"] = out_model.beta
    return 0


def cmd_builtin(args, report):
    obj = builtin(args.name, seed=args.seed)
    if isinstance(obj, AtomlessMDP):
        save_model_file(obj, args.out)
    else:
        depth = int(args.name.partition(":")[2] or 10)
        with open(args.out, "w") as fh:
            json.dump({"kind": "discrete-chain", "chain": "doubling-corridor",
                       "depth": depth}, fh, indent=1)
            fh.write("\n")
    report.outputs.append(args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomless-mdp",
        description="exact evaluation and derandomization of interval MDP policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a model file")
    p.add_argument("model")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("certify", help="compute the uniform-absorption certificate")
    p.add_argument("model")
    p.add_argument("--tol", type=_positive, default=1e-12)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("evaluate", help="performance vector of a policy")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("path", help="threshold path between two deterministic policies")
    p.add_argument("model")
    p.add_argument("phi0")
    p.add_argument("phi1")
    p.add_argument("--grid", type=_at_least(2), default=11,
                   help="points on the path, both ends included")
    p.add_argument("--tol", type=_positive, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("mix", help="deterministic policy matching a convex combination")
    p.add_argument("model")
    p.add_argument("phi0")
    p.add_argument("phi1")
    p.add_argument("lam", type=_fraction)
    p.add_argument("--tol", type=_positive, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("derandomize", help="deterministic policy matching a stationary one")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--tol", type=_positive, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_derandomize)

    p = sub.add_parser("lyapunov", help="vector-measure range operations")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    ph = lsub.add_parser("hull", help="inner/outer range sandwich")
    ph.add_argument("densities")
    ph.add_argument("--grid", type=_at_least(1), default=64,
                    help="at most this many support queries")
    ph.add_argument("--out")
    ph.set_defaults(fn=cmd_lyapunov)
    pf = lsub.add_parser("find", help="interval set hitting a target integral")
    pf.add_argument("densities")
    pf.add_argument("target", nargs="+", type=_finite)
    pf.add_argument("--tol", type=_positive, default=1e-6)
    pf.add_argument("--out")
    pf.set_defaults(fn=cmd_lyapunov)

    p = sub.add_parser("transform", help="model transforms")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    td = tsub.add_parser("discount", help="fold the discount factor into absorption")
    td.add_argument("model")
    td.add_argument("--out", required=True)
    td.set_defaults(fn=cmd_transform)
    tw = tsub.add_parser("weight", help="similarity transform by a cellwise weight")
    tw.add_argument("model")
    tw.add_argument("weights")
    tw.add_argument("--out", required=True)
    tw.set_defaults(fn=cmd_transform)

    p = sub.add_parser("builtin", help="write a named builtin model")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_builtin)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    report = RunReport(command=["atomless-mdp", *argv], blas=blas_setting())
    start = time.perf_counter()
    try:
        code = args.fn(args, report)
    except (CertifiedFailure, NotCertifiedError) as exc:
        report.notes.append(f"certified failure: {exc}")
        report.wall_clock = time.perf_counter() - start
        print(report.render())
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except AtomlessMDPError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not a statement about the input: report the bug as such
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 5
    report.wall_clock = time.perf_counter() - start
    print(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
