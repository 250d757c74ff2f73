"""Command-line interface.

Subcommands: profile, minorant, bound, compare, verify, certify-q71,
certify-q72.  Output is deterministic; --output json puts a single JSON
document on stdout with diagnostics on stderr.  Exit codes: 0 success,
1 verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

from .allocation import theorem_bound
from .certify import (
    SlabsOptimalError,
    q71_witness,
    q72_certificate,
    verify_theorem,
)
from .closed_forms import (
    BoundReport,
    bl_bound,
    connected_regular_bound,
    grid_bound,
    hamming_bound,
    regular_product_bound,
    regular_power_bound,
    torus_bound,
)
from .graphs import (
    CapExceededError,
    Graph,
    ParseError,
    ProductSpec,
    cartesian_product,
    parse_product_spec,
)
from .minorants import build_minorant, build_minorants, regular_summary
from .profiles import IsoProfile, resolve_profiles

GRAMMAR = (
    "SPEC := TERM (x TERM)*; TERM := ATOM | ATOM^K;"
    " ATOM := complete:M | path:M | cycle:M | file:PATH"
)

_LOG_EXPR = re.compile(
    r"^\s*(?:(?P<coef>[0-9]+(?:\.[0-9]+)?)\s*\*\s*)?log\(\s*(?P<arg>[0-9]+(?:\.[0-9]+)?)\s*\)\s*$"
)


def parse_log_size(text: str) -> float:
    """A float literal, log(M), or K*log(M)."""
    m = _LOG_EXPR.match(text)
    if m:
        coef = float(m["coef"]) if m["coef"] else 1.0
        arg = float(m["arg"])
        if arg <= 0:
            raise ParseError(f"log argument must be positive in {text!r}")
        return coef * math.log(arg)
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad log-size {text!r}; use a number or K*log(M)") from None


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_csv(header: list[str], rows) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))


def _target_graph_and_profile(args, exhaustive: bool = False) -> tuple[Graph, IsoProfile]:
    """The requested graph and its profile; a single factor is used as is (no
    vertex cap), so family atoms of any size take their closed form."""
    spec = parse_product_spec(args.spec)
    g = spec.factors[0] if len(spec.factors) == 1 else cartesian_product(spec)
    (prof,) = resolve_profiles([g], exhaustive)
    return g, prof


def _cmd_profile(args) -> int:
    g, prof = _target_graph_and_profile(args, args.exhaustive)
    if args.output == "csv":
        sys.stdout.write(prof.to_csv())
    elif args.output == "json":
        _emit_json(
            {
                "graph": g.label,
                "vertex_count": prof.graph_size,
                "profile": [
                    {
                        "k": e.k,
                        "min_boundary": e.min_boundary,
                        "i_k_num": e.ratio.numerator,
                        "i_k_den": e.ratio.denominator,
                        "witness": e.witness.to_hex(),
                    }
                    for e in prof.entries
                ],
            }
        )
    else:
        print(f"profile of {g.label} ({prof.graph_size} vertices)")
        for e in prof.entries:
            print(
                f"  k={e.k} min_boundary={e.min_boundary}"
                f" i_k={e.ratio.numerator}/{e.ratio.denominator}"
                f" witness={{{','.join(map(str, e.witness.members()))}}}"
            )
    return 0


def _cmd_minorant(args) -> int:
    g, prof = _target_graph_and_profile(args, args.exhaustive)
    psi = build_minorant(prof)
    summary = None
    if g.vertex_count >= 2 and g.is_regular() and g.is_connected():
        summary = regular_summary(g, prof)
    doc = psi.to_json_dict()
    doc["graph"] = g.label
    doc["regular_summary"] = None if summary is None else asdict(summary)
    if args.output == "json":
        _emit_json(doc)
    elif args.output == "csv":
        _emit_csv(["k", "x", "y"], [(b.k, b.x, b.y) for b in psi.breakpoints])
    else:
        print(f"convex minorant of {g.label}: domain [0, {_fmt(psi.domain_end)}]")
        for b in psi.breakpoints:
            print(f"  k={b.k} x={_fmt(b.x)} y={_fmt(b.y)}")
        if summary is not None:
            print(
                f"regular summary: degree={summary.degree} k_star={summary.k_star}"
                f" y_intercept={_fmt(summary.y_intercept)}"
                f" chord_slope={_fmt(summary.chord_slope)}"
            )
    return 0


def _closed_form_reports(spec: ProductSpec, factor_profiles, log_size, size) -> list[BoundReport]:
    factors = spec.factors
    n = len(factors)
    fams = [f.family for f in factors]
    same_family = fams[0] if all(fams) and len(set(fams)) == 1 else None
    # The whole product has no boundary.  The formulas reach 0 there only up
    # to rounding, which size * v would turn into a huge unsound total.
    whole = size is not None and size == math.prod(f.vertex_count for f in factors)
    reports: list[BoundReport] = []

    def add(family, params, v, bl=None):
        v = 0.0 if whole else v
        total = None if size is None else size * v
        ratio = None if bl is None or v <= 0 else bl / v
        comparison = None if bl is None else {"bl_per_vertex": bl, "ratio": ratio}
        reports.append(BoundReport(family, params, v, total, comparison))

    if same_family is not None:
        fam, m = same_family
        if fam == "complete" and m >= 2:
            add("hamming", {"n": n, "m": m}, hamming_bound(n, m, log_size))
        elif fam in ("path", "cycle") and m >= 3:
            torus = fam == "cycle"
            v = torus_bound(n, m, log_size) if torus else grid_bound(n, m, log_size)
            bl = bl_bound(n, m, log_size, torus=torus)
            add("torus" if torus else "grid", {"n": n, "m": m}, v, bl)
    if all(f.is_regular() and f.degrees[0] >= 1 for f in factors):
        degrees = [f.degrees[0] for f in factors]
        sizes = [f.vertex_count for f in factors]
        v = regular_product_bound(degrees, sizes, log_size)
        add("regular_product", {"degrees": degrees, "sizes": sizes}, v)
        if all(f == factors[0] for f in factors) and factors[0].is_connected() and sizes[0] >= 2:
            m = factors[0].vertex_count
            summary = regular_summary(factors[0], factor_profiles[0])
            v = regular_power_bound(summary, m, n, log_size)
            params = {"n": n, "m": m, "k_star": summary.k_star, "y_intercept": summary.y_intercept}
            add("regular_power", params, v)
    if all(f.is_connected() and f.vertex_count >= 2 for f in factors):
        sizes = [f.vertex_count for f in factors]
        add("connected_regular", {"sizes": sizes}, connected_regular_bound(sizes, log_size))
    return reports


def _cmd_bound(args) -> int:
    if (args.size is None) == (args.log_size is None):
        print("error: pass exactly one of --size or --log-size", file=sys.stderr)
        return 2
    spec = parse_product_spec(args.spec)
    size = args.size
    if size is not None and size < 1:
        print(f"error: --size must be positive, got {size}", file=sys.stderr)
        return 2
    log_size = math.log(size) if size is not None else parse_log_size(args.log_size)
    factor_profiles = resolve_profiles(spec.factors)
    minorants = build_minorants(factor_profiles)
    result = theorem_bound(minorants, log_size if size is None else None, size=size)
    reports = _closed_form_reports(spec, factor_profiles, log_size, size)
    if args.output == "json":
        _emit_json(
            {
                "spec": args.spec,
                "size": size,
                "log_size": log_size,
                "theorem": result.to_json_dict(),
                "closed_forms": [r.to_json_dict() for r in reports],
            }
        )
    elif args.output == "csv":
        rows = [("theorem", result.bound_per_vertex, result.bound_total)]
        rows += [(r.family, r.bound_per_vertex, r.bound_total) for r in reports]
        _emit_csv(["name", "bound_per_vertex", "bound_total"], rows)
    else:
        print(f"bound for {spec.label()} at log size {_fmt(log_size)}")
        line = f"theorem: {_fmt(result.bound_per_vertex)} per vertex"
        if result.bound_total is not None:
            line += f", {_fmt(result.bound_total)} total"
        print(line)
        print(f"  allocation: ({', '.join(_fmt(h) for h in result.allocation)})")
        for r in reports:
            line = f"{r.family}: {_fmt(r.bound_per_vertex)} per vertex"
            if r.bound_total is not None:
                line += f", {_fmt(r.bound_total)} total"
            print(line)
            if r.comparison is not None:
                ratio = r.comparison["ratio"]
                print(
                    f"  power-of-r benchmark: {_fmt(r.comparison['bl_per_vertex'])}"
                    f" (ratio {'n/a' if ratio is None else _fmt(ratio)})"
                )
    return 0


def _cmd_compare(args) -> int:
    spec = parse_product_spec(args.spec)
    fams = [f.family for f in spec.factors]
    if not all(fams) or len(set(fams)) != 1 or fams[0][0] not in ("path", "cycle"):
        print("error: compare needs a homogeneous path:M^N or cycle:M^N spec", file=sys.stderr)
        return 2
    fam, m = fams[0]
    if m < 3:
        print(f"error: compare needs m >= 3, got {m}", file=sys.stderr)
        return 2
    n = len(spec.factors)
    if args.samples < 1:
        print(f"error: --samples must be positive, got {args.samples}", file=sys.stderr)
        return 2
    torus = fam == "cycle"
    ours_fn = torus_bound if torus else grid_bound
    hi = n * math.log(m) - math.log(2)  # sets up to half the product
    rows = []
    for j in range(1, args.samples + 1):
        x = j * hi / args.samples
        ours = ours_fn(n, m, x)
        bl = bl_bound(n, m, x, torus=torus)
        rows.append((x, ours, bl, bl / ours))
    if args.output == "json":
        _emit_json(
            {
                "spec": args.spec,
                "rows": [
                    {"log_size": x, "ours": o, "bl": b, "ratio": r} for x, o, b, r in rows
                ],
            }
        )
    elif args.output == "csv":
        _emit_csv(["log_size", "ours", "bl", "ratio"], rows)
    else:  # human output shows the csv table, aligned
        print(f"{'log_size':>14} {'ours':>14} {'bl':>14} {'ratio':>10}")
        for x, o, b, r in rows:
            print(f"{x:14.6f} {o:14.6f} {b:14.6f} {r:10.6f}")
    return 0


def _cmd_verify(args) -> int:
    spec = parse_product_spec(args.spec)
    ks = None
    if args.sizes is not None:
        try:
            ks = [int(part) for part in args.sizes.split(",") if part]
        except ValueError:
            print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
            return 2
    report = verify_theorem(spec, ks)
    if args.output == "json":
        _emit_json(report.to_json_dict())
    elif args.output == "csv":
        _emit_csv(
            ["k", "true_min_boundary", "bound_total", "gap", "tight"],
            [
                (e.k, e.true_min_boundary, e.bound_total, e.gap, e.tight)
                for e in report.entries
            ],
        )
    else:
        print(f"verification of {report.description}")
        for e in report.entries:
            mark = "tight" if e.tight else ""
            print(
                f"  k={e.k} truth={e.true_min_boundary}"
                f" bound={_fmt(e.bound_total)} gap={_fmt(e.gap)} {mark}".rstrip()
            )
        print("OK" if report.ok else "FAIL: bound exceeded the true minimum")
    return 0 if report.ok else 1


def _cmd_certify_q71(args) -> int:
    g, prof = _target_graph_and_profile(args)
    psi = build_minorant(prof)
    witness = q71_witness(g, prof, psi, args.power)
    if args.output == "json":
        _emit_json(witness.to_json_dict())
    elif args.output == "csv":
        doc = witness.to_json_dict()
        _emit_csv(["key", "value"], sorted(doc.items()))
    else:
        print(f"nonlinearity witness for {g.label}^{witness.power}")
        for k, a, e in zip(witness.ks, witness.sizes, witness.exact_per_vertex):
            print(f"  size {a} (= {k}^{witness.power}): exact {_fmt(e)} per vertex")
        print(
            f"  affine interpolation at the middle size gives"
            f" {_fmt(witness.interpolated_mid)}; residual {_fmt(witness.residual)}"
        )
    return 0


def _cmd_certify_q72(args) -> int:
    spec = parse_product_spec(args.spec)
    if len(spec.factors) != 1:
        print("error: certify-q72 takes a single base graph", file=sys.stderr)
        return 2
    g = spec.factors[0]
    (prof,) = resolve_profiles([g])
    summary = regular_summary(g, prof)
    try:
        cert = q72_certificate(g, summary, args.eps_start)
    except SlabsOptimalError as exc:
        if args.output == "json":
            _emit_json(
                {
                    "slabs_optimal": True,
                    "degree": summary.degree,
                    "y_intercept": summary.y_intercept,
                    "message": str(exc),
                }
            )
        else:
            print(f"{exc}")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        doc = cert.to_json_dict()
        doc["slabs_optimal"] = False
        _emit_json(doc)
    elif args.output == "csv":
        _emit_csv(["key", "value"], sorted(cert.to_json_dict().items()))
    else:
        print(f"slab counterexample certificate for {g.label}")
        print(
            f"  k_star={cert.k_star} y_intercept={_fmt(cert.y_intercept)}"
            f" < degree={cert.degree}"
        )
        print(
            f"  eps={_fmt(cert.epsilon)} s={cert.s} t={cert.t}"
            f" approx_error={_fmt(cert.approx_error)}"
        )
        print(f"  lhs={_fmt(cert.lhs)} < rhs={_fmt(cert.rhs)} (normalized per m^t)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isobound",
        description="Edge-isoperimetric profiles and product lower bounds."
        f"  Graph {GRAMMAR}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("spec", help="graph spec, e.g. 'cycle:5' or 'path:3 x complete:2^2'")
        p.add_argument(
            "--output", choices=("human", "json", "csv"), default="human", help="output format"
        )
        p.set_defaults(handler=handler)
        return p

    p = add("profile", _cmd_profile, help="exact isoperimetric profile")
    p.add_argument("--exhaustive", action="store_true", help="force brute force over closed forms")

    p = add("minorant", _cmd_minorant, help="convex minorant breakpoints")
    p.add_argument("--exhaustive", action="store_true", help="force brute force over closed forms")

    p = add("bound", _cmd_bound, help="product lower bound at one size")
    p.add_argument("--size", type=int, help="exact set size |A|")
    p.add_argument("--log-size", help="log |A|: a float, log(M), or K*log(M)")

    p = add("compare", _cmd_compare, help="closed form vs power-of-r benchmark")
    p.add_argument("--samples", type=int, default=100, help="number of log-size samples")

    p = add("verify", _cmd_verify, help="exhaustive truth vs bound on a product")
    p.add_argument("--sizes", help="comma-separated sizes (default: all sizes)")

    p = add("certify-q71", _cmd_certify_q71, help="nonlinearity witness for a power")
    p.add_argument("--power", type=int, required=True, help="the power n of the base graph")

    p = add("certify-q72", _cmd_certify_q72, help="slab counterexample certificate")
    p.add_argument("--eps-start", type=float, default=0.1, help="initial eps for the search")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"spec grammar: {GRAMMAR}", file=sys.stderr)
        return 2
    except (CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
