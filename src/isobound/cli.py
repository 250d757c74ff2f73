"""Command-line interface.

Subcommands: profile, minorant, bound, compare, verify, certify-q71,
certify-q72.  Output is deterministic; --output json puts a single JSON
document on stdout with diagnostics on stderr.  Exit codes: 0 success,
1 verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import fields

from .graphs import (
    SEARCH_BUDGET,
    CapExceededError,
    Graph,
    ParseError,
    ProductSpec,
    cartesian_product,
    parse_product_spec,
)
from .profiles import resolve_profile

GRAMMAR = (
    "SPEC := TERM (x TERM)*; TERM := ATOM | ATOM^K;"
    " ATOM := complete:M | path:M | cycle:M | file:PATH"
)

SAMPLE_UNITS = 200  # budget units per compare sample: 11 us each as JSON, 2-core Xeon, CPython 3.11

_LOG_EXPR = re.compile(
    r"^\s*(?:(?P<coef>[0-9]+(?:\.[0-9]+)?)\s*\*\s*)?log\(\s*(?P<arg>[0-9]+(?:\.[0-9]+)?)\s*\)\s*$"
)


def parse_log_size(text: str) -> float:
    """A float literal, log(M), or K*log(M), finite; a ValueError, not ParseError, if not."""
    m = _LOG_EXPR.match(text)
    if m:
        coef = float(m["coef"]) if m["coef"] else 1.0
        arg = float(m["arg"])
        if arg <= 0:
            raise ValueError(f"log argument must be positive in {text!r}")
        value = coef * math.log(arg)
    else:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad log-size {text!r}; use a finite number or K*log(M)")
    return value


def _positive_finite(text: str) -> float:
    """argparse type for --eps-start: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _record(x):
    """A dataclass as a dict of its fields in declaration order, recursively;
    tuples become lists.  Every JSON and CSV output is built from these."""
    if isinstance(x, tuple):
        return list(map(_record, x))
    if hasattr(x, "__dataclass_fields__"):  # is_dataclass, without its cost on each scalar
        return {f.name: _record(getattr(x, f.name)) for f in fields(x)}
    return x


def _csv_field(c) -> str:
    """c as one CSV field, quoted if it holds a comma, quote or line break (RFC 4180)."""
    text = repr(c) if isinstance(c, float) else str(c)
    return '"' + text.replace('"', '""') + '"' if any(ch in text for ch in ',"\r\n') else text


def _emit_csv(records) -> None:
    """One row per record, under the first record's keys."""
    print(",".join(map(_csv_field, records[0])))
    for r in records:
        print(",".join(map(_csv_field, r.values())))


def _pairs(doc: dict) -> list[dict]:
    """A flat document as sorted key/value records, for CSV."""
    return [{"key": k, "value": v} for k, v in sorted(doc.items())]


def _target_graph(args) -> Graph:
    """The requested graph; a single factor is used as is, never refused as a
    product, so family atoms of any size take their closed form."""
    spec = parse_product_spec(args.spec)
    return spec.factors[0] if len(spec.factors) == 1 else cartesian_product(spec)


def _cmd_profile(args) -> int:
    g = _target_graph(args)
    prof = resolve_profile(g, args.exhaustive)
    rows = [
        {
            "k": e.k,
            "min_boundary": e.min_boundary,
            "i_k_num": e.ratio.numerator,
            "i_k_den": e.ratio.denominator,
            "witness": e.witness.to_hex(),
        }
        for e in prof.entries
    ]
    if args.output == "csv":
        _emit_csv(rows)
    elif args.output == "json":
        _emit_json({"graph": g.label, "vertex_count": prof.graph_size, "profile": rows})
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
    from .minorants import regular_summary, resolve_minorants

    g = _target_graph(args)
    (psi,) = resolve_minorants([g], args.exhaustive)
    summary = None
    if g.vertex_count >= 2 and g.is_regular() and g.is_connected():
        summary = regular_summary(g, psi)
    doc = _record(psi)
    if args.output == "json":
        _emit_json({**doc, "graph": g.label, "regular_summary": _record(summary)})
    elif args.output == "csv":
        _emit_csv(doc["breakpoints"])
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


def _closed_form_reports(spec: ProductSpec, minorants, log_size, size) -> list:
    """A BoundReport for each closed form that applies to the product."""
    from .closed_forms import (
        BoundReport,
        bl_bound,
        connected_regular_bound,
        grid_bound,
        hamming_bound,
        regular_power_bound,
        regular_product_bound,
        torus_bound,
    )
    from .minorants import regular_summary

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
            summary = regular_summary(factors[0], minorants[0])
            v = regular_power_bound(summary, m, n, log_size)
            params = {"n": n, "m": m, "k_star": summary.k_star, "y_intercept": summary.y_intercept}
            add("regular_power", params, v)
    if all(f.is_connected() and f.vertex_count >= 2 for f in factors):
        sizes = [f.vertex_count for f in factors]
        add("connected_regular", {"sizes": sizes}, connected_regular_bound(sizes, log_size))
    return reports


def _cmd_bound(args) -> int:
    from .allocation import theorem_bound
    from .minorants import resolve_minorants

    if (args.size is None) == (args.log_size is None):
        print("error: pass exactly one of --size or --log-size", file=sys.stderr)
        return 2
    spec = parse_product_spec(args.spec)
    size = args.size
    if size is not None and size < 1:
        print(f"error: --size must be positive, got {size}", file=sys.stderr)
        return 2
    log_size = math.log(size) if size is not None else parse_log_size(args.log_size)
    minorants = resolve_minorants(spec.factors)
    result = theorem_bound(minorants, log_size if size is None else None, size=size)
    reports = _closed_form_reports(spec, minorants, log_size, size)
    theorem, closed = _record(result), [_record(r) for r in reports]
    if args.output == "json":
        doc = {"spec": args.spec, "size": size, "log_size": log_size}
        _emit_json({**doc, "theorem": theorem, "closed_forms": closed})
    elif args.output == "csv":
        named = [("theorem", theorem)] + [(r["family"], r) for r in closed]
        keys = ("bound_per_vertex", "bound_total")
        _emit_csv([{"name": name, **{k: r[k] for k in keys}} for name, r in named])
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
    if (units := args.samples * SAMPLE_UNITS) > SEARCH_BUDGET:
        raise CapExceededError(
            f"comparison of {args.samples} samples charges {units} units of work"
            f" ({SAMPLE_UNITS} per sample), over the budget of {SEARCH_BUDGET}"
        )
    from .closed_forms import bl_bound, grid_bound, torus_bound

    torus = fam == "cycle"
    ours_fn = torus_bound if torus else grid_bound
    hi = n * math.log(m) - math.log(2)  # sets up to half the product
    rows = []
    for j in range(1, args.samples + 1):
        x = j * hi / args.samples
        ours = ours_fn(n, m, x)
        bl = bl_bound(n, m, x, torus=torus)
        rows.append({"log_size": x, "ours": ours, "bl": bl, "ratio": bl / ours})
    if args.output == "json":
        _emit_json({"spec": args.spec, "rows": rows})
    elif args.output == "csv":
        _emit_csv(rows)
    else:  # human output shows the csv table, aligned
        print(f"{'log_size':>14} {'ours':>14} {'bl':>14} {'ratio':>10}")
        for r in rows:
            print(f"{r['log_size']:14.6f} {r['ours']:14.6f} {r['bl']:14.6f} {r['ratio']:10.6f}")
    return 0


def _cmd_verify(args) -> int:
    from .certify import verify_theorem

    spec = parse_product_spec(args.spec)
    ks = None
    if args.sizes is not None:
        try:
            ks = [int(part) for part in args.sizes.split(",") if part]
        except ValueError:
            print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
            return 2
    report = verify_theorem(spec, ks)
    doc = _record(report)
    if args.output == "json":
        _emit_json({**doc, "ok": report.ok})
    elif args.output == "csv":
        _emit_csv(doc["entries"])
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
    from .certify import q71_witness
    from .minorants import resolve_minorants

    g = _target_graph(args)
    (psi,) = resolve_minorants([g])
    witness = q71_witness(g, psi, args.power)
    doc = {**_record(witness), "sizes": [str(a) for a in witness.sizes]}  # may exceed double range
    if args.output == "json":
        _emit_json(doc)
    elif args.output == "csv":
        _emit_csv(_pairs(doc))
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
    from .certify import SlabsOptimalError, q72_certificate
    from .minorants import regular_summary, resolve_minorants

    spec = parse_product_spec(args.spec)
    if len(spec.factors) != 1:
        print("error: certify-q72 takes a single base graph", file=sys.stderr)
        return 2
    g = spec.factors[0]
    (psi,) = resolve_minorants([g])
    summary = regular_summary(g, psi)
    try:
        cert = q72_certificate(g, summary, args.eps_start)
    except SlabsOptimalError as exc:
        doc = {"slabs_optimal": True, "degree": summary.degree, "y_intercept": summary.y_intercept,
               "message": str(exc)}
        if args.output == "json":
            _emit_json(doc)
        elif args.output == "csv":
            _emit_csv(_pairs(doc))
        else:
            print(f"{exc}")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = _record(cert)
    if args.output == "json":
        _emit_json({**doc, "slabs_optimal": False})
    elif args.output == "csv":
        _emit_csv(_pairs(doc))
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


@functools.cache  # built on first use; parse_args keeps no state on it
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

    p = add("verify", _cmd_verify, help="true minimum (exact from factors, else searched) vs bound")
    p.add_argument("--sizes", help="comma-separated sizes (default: all sizes)")

    p = add("certify-q71", _cmd_certify_q71, help="nonlinearity witness for a power")
    p.add_argument("--power", type=int, required=True, help="the power n of the base graph")

    p = add("certify-q72", _cmd_certify_q72, help="slab counterexample certificate")
    p.add_argument(
        "--eps-start", type=_positive_finite, default=0.1, help="initial eps for the search"
    )

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
