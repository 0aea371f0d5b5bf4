"""Batch front-end: evaluate theta expressions, run identity suites, audit
transformation laws, and emit machine-readable JSON reports.

Exit codes: 0 all-pass, 1 identity failure, 2 I/O error, 3 usage or parse
error, 4 invalid mathematical input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateBasePointError,
    DomainError,
    ExpressionParseError,
    NumericalDegeneracyError,
)
from .forms import (
    A_form,
    MultiplierSpec,
    W_of_N,
    audit_transformation,
    eval_product,
    parse_theta_expression,
    partial_bracket,
    second_order_product,
)
from .identities import conditioned_words, reports_to_json, run_suite
from .multilinear import star_product
from .symplectic import (
    Characteristic,
    SiegelPoint,
    load_siegel_point,
    odd_characteristics,
    sample_siegel_point,
)
from .theta import TruncationPolicy

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_MATH = 4


def _policy_from_args(args) -> TruncationPolicy:
    return TruncationPolicy(
        radius=args.radius,
        target_tol=args.series_tol,
        adaptive=not args.no_adaptive,
    )


def _add_common(parser):
    parser.add_argument("--g", type=int, default=2, help="genus (1..4)")
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="pass threshold override (default: per-identity tolerances)",
    )
    parser.add_argument("--radius", type=int, default=1, help="minimum box radius")
    parser.add_argument(
        "--series-tol", type=float, default=1e-12, help="series tail tolerance"
    )
    parser.add_argument(
        "--no-adaptive", action="store_true", help="skip the refinement re-run"
    )
    parser.add_argument("--out", type=str, default=None, help="report output path")


def _write_or_print(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _complex_json(value: complex):
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def cmd_verify(args) -> int:
    if not 1 <= args.g <= 4:
        print(f"error: genus {args.g} outside 1..4", file=sys.stderr)
        return EXIT_USAGE
    try:
        policy = _policy_from_args(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = run_suite(
        [args.g],
        seed=args.seed,
        policy=policy,
        name_filter=args.filter,
        tolerance=args.tol,
    )
    config = {
        "command": "verify",
        "genus": args.g,
        "seed": args.seed,
        "tolerance": args.tol,
        "filter": args.filter,
        "truncation": {
            "radius": args.radius,
            "target_tol": args.series_tol,
            "adaptive": not args.no_adaptive,
        },
    }
    text = reports_to_json(reports, config=config, embed_timings=args.timings)
    code = _write_or_print(text, args.out)
    if code != EXIT_OK:
        return code
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"[{status}] {r.identity_name} g={r.genus} residual={r.residual:.3e}"
            f" tol={r.tolerance:.1e}",
            file=sys.stderr,
        )
    return EXIT_OK if not failed else EXIT_FAIL


def _load_point(args) -> SiegelPoint:
    if args.tau is not None:
        return load_siegel_point(args.tau)
    rng = np.random.default_rng(args.seed)
    return sample_siegel_point(args.g, rng)


def cmd_eval(args) -> int:
    try:
        product = parse_theta_expression(args.expr)
    except ExpressionParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"  {args.expr}", file=sys.stderr)
        print(f"  {' ' * exc.position}^", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    try:
        point = _load_point(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, ValueError, KeyError) as exc:
        print(f"error: invalid tau input: {exc}", file=sys.stderr)
        return EXIT_MATH
    if point.g != product.g:
        print(
            f"error: expression genus {product.g} != tau genus {point.g}",
            file=sys.stderr,
        )
        return EXIT_MATH
    try:
        policy = _policy_from_args(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        value = eval_product(product, point, policy)
        payload = {
            "expr": args.expr,
            "genus": product.g,
            "tau": point.to_json(),
            "value": _complex_json(value),
        }
        if args.deriv:
            deriv = partial_bracket(product, 1, point, policy).entries
            payload["deriv"] = [[_complex_json(x) for x in row] for row in deriv]
    except (ConvergenceError, DegenerateBasePointError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def _parse_char_token(token: str, g: int) -> Characteristic:
    token = token.strip()
    if token.startswith("n") and token[1:].isdigit():
        odds = odd_characteristics(g)
        idx = int(token[1:]) - 1
        if not 0 <= idx < len(odds):
            raise DomainError(f"{token}: only {len(odds)} odd characteristics at genus {g}")
        return odds[idx]
    if "|" not in token:
        raise DomainError(f"characteristic {token!r} needs the form bits|bits or n<j>")
    left, right = token.split("|", 1)
    return Characteristic(
        tuple(int(b) for b in left.strip()), tuple(int(b) for b in right.strip())
    )


def _parse_bitstring(token: str, g: int) -> tuple[int, ...]:
    token = token.strip()
    bits = tuple(int(b) for b in token)
    if len(bits) != g or any(b not in (0, 1) for b in bits):
        raise DomainError(f"label {token!r} is not a {g}-bit string")
    return bits


def cmd_audit(args) -> int:
    if not 1 <= args.g <= 4:
        print(f"error: genus {args.g} outside 1..4", file=sys.stderr)
        return EXIT_USAGE
    groups = {"gamma2": "Gamma(2)", "gamma24": "Gamma(2,4)", "gamma48": "Gamma(4,8)"}
    if args.group not in groups:
        print(f"error: group must be one of {sorted(groups)}", file=sys.stderr)
        return EXIT_USAGE
    group = groups[args.group]
    try:
        policy = _policy_from_args(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.tol is None:
        args.tol = 1e-7
    g = args.g
    try:
        kind, _, spec = args.form.partition(":")
        if kind == "W":
            chars = [_parse_char_token(tok, g) for tok in spec.split(",") if tok]
            k = len(chars)
            multiplier = MultiplierSpec(kappa_power=2 * k, phi_chars=tuple(chars))

            def value_fn(pt):
                return W_of_N(chars, pt, policy).matrix

        elif kind == "A":
            pairs = []
            for chunk in spec.split(";"):
                if not chunk:
                    continue
                eps_s, _, delta_s = chunk.partition(",")
                pairs.append((_parse_bitstring(eps_s, g), _parse_bitstring(delta_s, g)))
            k = len(pairs)
            multiplier = MultiplierSpec(kappa_power=2 * k)

            def value_fn(pt):
                mats = [
                    A_form(
                        second_order_product(g, e), second_order_product(g, d), pt, policy
                    ).matrix
                    for (e, d) in pairs
                ]
                return star_product(*mats)

        else:
            print("error: form spec must start with 'W:' or 'A:'", file=sys.stderr)
            return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH

    rng = np.random.default_rng(args.seed)
    base = sample_siegel_point(g, rng)
    results = []
    ok = True
    try:
        words = (
            conditioned_words(group, g, [base], args.words, args.seed + 5000)
            if args.words
            else []
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    for i, gamma in enumerate(words):
        try:
            rep = audit_transformation(value_fn, gamma, k, multiplier, base, policy)
        except (ConvergenceError, DegenerateBasePointError, DomainError) as exc:
            print(f"error: word {i}: {exc}", file=sys.stderr)
            return EXIT_MATH
        passed = rep.residual < args.tol
        ok = ok and passed
        results.append(
            {
                "word": i,
                "residual": rep.residual,
                "passed": passed,
                "multiplier": _complex_json(rep.multiplier),
                "gamma": gamma.to_json(),
            }
        )
    payload = {
        "schema": "theta-forge/audit/1",
        "form": args.form,
        "group": args.group,
        "genus": g,
        "tolerance": args.tol,
        "words": len(results),
        "results": results,
        "all_passed": ok,
    }
    code = _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-forge",
        description="evaluate theta expressions and verify modular-form identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    _add_common(p_verify)
    p_verify.add_argument("--filter", type=str, default=None, help="identity name glob")
    p_verify.add_argument(
        "--timings",
        action="store_true",
        help="embed wall-clock timings (breaks byte-reproducibility)",
    )
    p_verify.set_defaults(fn=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a theta expression")
    _add_common(p_eval)
    p_eval.add_argument("expr", type=str, help="expression, e.g. 'T[0,1|1,0]*S[1,1]'")
    p_eval.add_argument("--tau", type=str, default=None, help="SiegelPoint JSON file")
    p_eval.add_argument(
        "--deriv", action="store_true", help="also print the derivative matrix"
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_audit = sub.add_parser("audit", help="audit a transformation law")
    _add_common(p_audit)
    p_audit.add_argument(
        "--form",
        type=str,
        required=True,
        help="'W:n1,n2' or 'W:10|11,01|11' or 'A:eps,delta;eps,delta' (bitstrings)",
    )
    p_audit.add_argument("--group", type=str, required=True, help="gamma2|gamma24|gamma48")
    p_audit.add_argument("--words", type=int, default=10, help="number of group words")
    p_audit.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
