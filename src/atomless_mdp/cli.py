"""Command-line interface: model and policy file I/O, evaluation, paths,
mixing, derandomization and the vector-measure subcommands.

All numeric artifacts are written with 17 significant digits so files
round-trip doubles losslessly, and every command is deterministic given its
inputs (randomness only enters builtin random models through --seed).

Exit codes: 0 success, 2 validation failure, 3 certified failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomlessMDPError,
    CertifiedFailure,
    ModelFormatError,
    NotCertifiedError,
)
from .measure import PieceMeasure, StatePartition, merge_breakpoints
from .model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    builtin,
    discounted_to_absorbing,
    doubling_corridor,
    load_model,
    save_model_file,
    weighted_transform,
)
from .occupancy import occupancy, occupancy_total_variation
from .derandomize import derandomize, make_context, mix_pair, path_policy, tv_modulus
from .lyapunov import IntervalSet, VectorMeasure, find_set, range_hull


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    command: list
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
        lines = [f"command: {' '.join(self.command)}"]
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


def _data_rows(path):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            rows.append((lineno, body.split()))
    return rows


def _check_tiling(entries, path):
    cursor = 0.0
    for lineno, lo, hi in entries:
        if abs(lo - cursor) > 1e-9:
            raise ModelFormatError(f"{path}:{lineno}", f"interval starts at {lo}, expected {cursor}")
        if hi <= lo:
            raise ModelFormatError(f"{path}:{lineno}", "empty interval")
        cursor = hi
    if abs(cursor - 1.0) > 1e-9:
        raise ModelFormatError(path, f"intervals tile only up to {cursor}, not 1")


def load_policy_file(path, model: AtomlessMDP):
    """Rows `t_lo t_hi action` (deterministic) or `t_lo t_hi p_0 .. p_{A-1}`."""
    rows = _data_rows(path)
    if not rows:
        raise ModelFormatError(path, "empty policy file")
    widths = {len(tokens) for _, tokens in rows}
    if len(widths) != 1:
        raise ModelFormatError(path, "inconsistent column counts")
    ncols = widths.pop()
    entries = []
    for lineno, tokens in rows:
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ModelFormatError(f"{path}:{lineno}", "non-numeric entry") from None
        if not np.all(np.isfinite(values)):
            raise ModelFormatError(f"{path}:{lineno}", "non-finite entry")
        entries.append((lineno, values[0], values[1], values[2:]))
    entries.sort(key=lambda e: e[1])
    _check_tiling([(ln, lo, hi) for ln, lo, hi, _ in entries], path)
    points = StatePartition(
        merge_breakpoints(np.array([0.0, 1.0]), np.array([e[1] for e in entries] + [1.0]))
    )
    deterministic = ncols == 3 and all(
        float(v[0]).is_integer() and 0 <= v[0] < model.action_count for _, _, _, v in entries
    )
    if deterministic:
        return DeterministicPolicy(points, [int(v[0]) for _, _, _, v in entries])
    if ncols - 2 != model.action_count:
        raise ModelFormatError(path, f"expected {model.action_count} probabilities per row")
    return StationaryPolicy(points, [v for _, _, _, v in entries])


def save_policy_file(policy, path) -> None:
    pts = policy.partition.points
    with open(path, "w") as fh:
        for k in range(policy.partition.cell_count):
            if isinstance(policy, DeterministicPolicy):
                fh.write(f"{fmt(pts[k])} {fmt(pts[k + 1])} {int(policy.actions[k])}\n")
            else:
                probs = " ".join(fmt(p) for p in policy.probs[k])
                fh.write(f"{fmt(pts[k])} {fmt(pts[k + 1])} {probs}\n")


def load_densities_file(path) -> VectorMeasure:
    """Rows `t_lo t_hi mu_mass d_1 .. d_N` tiling [0,1]."""
    rows = _data_rows(path)
    if not rows:
        raise ModelFormatError(path, "empty densities file")
    entries = []
    for lineno, tokens in rows:
        if len(tokens) < 4:
            raise ModelFormatError(f"{path}:{lineno}", "need t_lo t_hi mass densities...")
        values = [float(t) for t in tokens]
        entries.append((lineno, values[0], values[1], values[2], values[3:]))
    entries.sort(key=lambda e: e[1])
    _check_tiling([(ln, lo, hi) for ln, lo, hi, _, _ in entries], path)
    points = [entries[0][1]] + [e[2] for e in entries]
    part = StatePartition(points)
    base = PieceMeasure(part, [e[3] for e in entries])
    total = base.total
    if abs(total - 1.0) > 1e-9:
        base = PieceMeasure(part, base.masses / total)
    return VectorMeasure(base, [e[4] for e in entries])


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
    """Read the file once; the same bytes give the digest and the document."""
    data = report.add_input(path)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(path, f"invalid JSON: {exc}") from None
    if isinstance(doc, dict) and doc.get("kind") == "discrete-chain":
        return doubling_corridor(int(doc.get("depth", 10)))
    return load_model(doc)


def _save_certificate(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


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
        work = discounted_to_absorbing(model) if model.kind == "discounted" else model
        cert = work.certificate(args.tol)
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
    model = _load_any_model(args.model, report)
    policy = load_policy_file(args.policy, model)
    report.add_input(args.policy)
    work = discounted_to_absorbing(model) if model.kind == "discounted" else model
    q = occupancy(work, policy, tol=args.tol)
    v = q.performance()
    report.tolerances["tol"] = args.tol
    report.certificates["total_mass"] = q.total
    report.certificates["truncation_error"] = q.truncation_error
    if args.out:
        _write_csv(args.out, [f"v_{i + 1}" for i in range(v.size)], [list(map(float, v))])
        report.outputs.append(args.out)
    report.notes.append("v = " + " ".join(fmt(x) for x in v))
    return 0


def cmd_path(args, report):
    model = _load_any_model(args.model, report)
    phi0 = load_policy_file(args.phi0, model)
    phi1 = load_policy_file(args.phi1, model)
    report.add_input(args.phi0)
    report.add_input(args.phi1)
    if not isinstance(phi0, DeterministicPolicy) or not isinstance(phi1, DeterministicPolicy):
        raise ModelFormatError("policy", "path endpoints must be deterministic")
    work = discounted_to_absorbing(model) if model.kind == "discounted" else model
    ctx = make_context(work, phi0, phi1)
    grid = max(2, args.grid)
    alphas = np.linspace(0.0, 1.0, grid)
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
    report.certificates["tv_modulus_step"] = tv_modulus(ctx, 1.0 / (grid - 1))
    if args.out:
        _write_csv(args.out, header, rows)
        report.outputs.append(args.out)
    return 0


def cmd_mix(args, report):
    model = _load_any_model(args.model, report)
    phi0 = load_policy_file(args.phi0, model)
    phi1 = load_policy_file(args.phi1, model)
    report.add_input(args.phi0)
    report.add_input(args.phi1)
    work = discounted_to_absorbing(model) if model.kind == "discounted" else model
    phi, cert = mix_pair(work, phi0, phi1, args.lam, tol=args.tol)
    report.tolerances["tol"] = args.tol
    report.certificates["error"] = cert.error
    out_policy = f"{args.out}.policy.txt"
    out_cert = f"{args.out}.cert.json"
    save_policy_file(phi, out_policy)
    _save_certificate(out_cert, cert.summary() | {"trace": cert.trace})
    report.outputs.extend([out_policy, out_cert])
    return 0


def cmd_derandomize(args, report):
    model = _load_any_model(args.model, report)
    policy = load_policy_file(args.policy, model)
    report.add_input(args.policy)
    work = discounted_to_absorbing(model) if model.kind == "discounted" else model
    phi, cert = derandomize(work, policy, tol=args.tol)
    report.tolerances["tol"] = args.tol
    report.certificates["error"] = cert.error
    out_policy = f"{args.out}.policy.txt"
    out_cert = f"{args.out}.cert.json"
    save_policy_file(phi.canonical(), out_policy)
    _save_certificate(out_cert, cert.summary() | {"trace": cert.trace})
    report.outputs.extend([out_policy, out_cert])
    return 0


def cmd_lyapunov(args, report):
    vm = load_densities_file(args.densities)
    report.add_input(args.densities)
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
    target = np.array([float(t) for t in args.target])
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
    model = _load_any_model(args.model, report)
    if not isinstance(model, AtomlessMDP):
        raise ModelFormatError("model", "transforms require an interval model")
    if args.subcommand == "discount":
        out_model = discounted_to_absorbing(model)
    else:
        weights_rows = _data_rows(args.weights)
        report.add_input(args.weights)
        entries = sorted(
            (float(t[0]), float(t[1]), float(t[2])) for _, t in weights_rows
        )
        _check_tiling([(0, lo, hi) for lo, hi, _ in entries], args.weights)
        w = np.empty(model.cell_count)
        pts = model.grid.points
        for i in range(model.cell_count):
            mid = 0.5 * (pts[i] + pts[i + 1])
            match = [wv for lo, hi, wv in entries if lo - 1e-12 <= mid <= hi + 1e-12]
            if not match:
                raise ModelFormatError(args.weights, f"no weight covers cell {i}")
            w[i] = match[0]
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
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("evaluate", help="performance vector of a policy")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("path", help="threshold path between two deterministic policies")
    p.add_argument("model")
    p.add_argument("phi0")
    p.add_argument("phi1")
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("mix", help="deterministic policy matching a convex combination")
    p.add_argument("model")
    p.add_argument("phi0")
    p.add_argument("phi1")
    p.add_argument("lam", type=float)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("derandomize", help="deterministic policy matching a stationary one")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_derandomize)

    p = sub.add_parser("lyapunov", help="vector-measure range operations")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    ph = lsub.add_parser("hull", help="inner/outer range sandwich")
    ph.add_argument("densities")
    ph.add_argument("--grid", type=int, default=64)
    ph.add_argument("--out")
    ph.set_defaults(fn=cmd_lyapunov)
    pf = lsub.add_parser("find", help="interval set hitting a target integral")
    pf.add_argument("densities")
    pf.add_argument("target", nargs="+")
    pf.add_argument("--tol", type=float, default=1e-6)
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(command=["atomless-mdp", *argv])
    start = time.perf_counter()
    try:
        code = args.fn(args, report)
    except (CertifiedFailure, NotCertifiedError) as exc:
        report.notes.append(f"certified failure: {exc}")
        report.wall_clock = time.perf_counter() - start
        print(report.render())
        return 3
    except FileNotFoundError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except (ModelFormatError, AtomlessMDPError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    report.wall_clock = time.perf_counter() - start
    print(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
