"""Batch front-end: evaluate theta expressions, run identity suites, audit
transformation laws, and emit machine-readable JSON reports.

Exit codes: 0 all-pass, 1 identity failure, 2 I/O error, 3 usage or parse
error, 4 invalid mathematical input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateBasePointError,
    DomainError,
    ExpressionParseError,
    NumericalDegeneracyError,
)
from .forms import (
    A_star,
    W_of_N,
    audit_transformation,
    eval_product,
    law_group,
    parse_theta_expression,
    partial_bracket,
)
from .identities import conditioned_words, reports_to_json, run_suite
from .symplectic import (
    Characteristic,
    SiegelPoint,
    _generator_pool,
    load_siegel_point,
    membership,
    odd_characteristics,
    sample_siegel_point,
)
from .theta import TruncationPolicy

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_MATH = 4


def _check_common(args) -> None:
    """Attach the truncation policy to ``args``; ``DomainError`` for a genus
    outside 1..4, a negative seed, a ``--tol`` (verify and audit only) not
    finite and > 0, or a ``--series-tol`` that ``TruncationPolicy`` refuses."""
    if not 1 <= args.g <= 4:
        raise DomainError(f"genus {args.g} outside 1..4")
    if args.seed < 0:
        raise DomainError(f"seed must be >= 0, got {args.seed}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < float("inf"):
        raise DomainError(f"--tol must be finite and > 0, got {tol}")
    args.policy = TruncationPolicy(target_tol=args.series_tol)


def _fail(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_common(parser):
    parser.add_argument("--g", type=int, default=2, help="genus (1..4)")
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    parser.add_argument(
        "--series-tol", type=float, default=1e-12, help="series tail tolerance"
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
        return _fail(f"cannot write {path}: {exc}", EXIT_IO)
    return EXIT_OK


def _complex_json(value: complex):
    return {"re": float(np.real(value)), "im": float(np.imag(value))}


def cmd_verify(args) -> int:
    reports = run_suite(
        [args.g],
        seed=args.seed,
        policy=args.policy,
        name_filter=args.filter,
        tolerance=args.tol,
    )
    if args.filter and not reports:
        return _fail(f"--filter {args.filter!r} matches no identity at genus {args.g}",
                     EXIT_USAGE)
    config = {
        "command": "verify",
        "genus": args.g,
        "seed": args.seed,
        "tolerance": args.tol,
        "filter": args.filter,
        "truncation": {"target_tol": args.series_tol},
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
    if args.tau is None:
        return sample_siegel_point(args.g, np.random.default_rng(args.seed))
    point = load_siegel_point(args.tau)
    if not 1 <= point.g <= 4:
        raise DomainError(f"genus {point.g} outside 1..4")
    return point


def cmd_eval(args) -> int:
    try:
        product = parse_theta_expression(args.expr)
    except ExpressionParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"  {args.expr}", file=sys.stderr)
        print(f"  {' ' * exc.position}^", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        return _fail(exc, EXIT_MATH)
    try:
        point = _load_point(args)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except DomainError as exc:
        return _fail(f"invalid tau input: {exc}", EXIT_MATH)
    if point.g != product.g:
        return _fail(f"expression genus {product.g} != tau genus {point.g}", EXIT_MATH)
    try:
        value = eval_product(product, point, args.policy)
        payload = {
            "expr": args.expr,
            "genus": product.g,
            "tau": point.to_json(),
            "value": _complex_json(value),
        }
        if args.deriv:
            deriv = partial_bracket(product, 1, point, args.policy).entries
            payload["deriv"] = [[_complex_json(x) for x in row] for row in deriv]
    except (ConvergenceError, DegenerateBasePointError, NumericalDegeneracyError) as exc:
        return _fail(exc, EXIT_MATH)
    return _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def _parse_bits(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text.strip("01"):
        raise ExpressionParseError(f"{text!r} is not a bit string")
    return tuple(int(b) for b in text)


def _parse_char_token(token: str, g: int) -> Characteristic:
    token = token.strip()
    if token.startswith("n") and token[1:].isdecimal():
        odds = odd_characteristics(g)
        idx = int(token[1:]) - 1
        if not 0 <= idx < len(odds):
            raise DomainError(f"{token}: only {len(odds)} odd characteristics at genus {g}")
        return odds[idx]
    left, bar, right = token.partition("|")
    if not bar:
        raise ExpressionParseError(f"characteristic {token!r} needs the form bits|bits or n<j>")
    return Characteristic(_parse_bits(left), _parse_bits(right))


def _parse_pair(chunk: str, g: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    eps, comma, delta = chunk.partition(",")
    if not comma:
        raise ExpressionParseError(f"pair {chunk.strip()!r} needs the form eps,delta")
    pair = _parse_bits(eps), _parse_bits(delta)
    if any(len(bits) != g for bits in pair):
        raise DomainError(f"pair {chunk.strip()!r} is not two {g}-bit strings")
    return pair


def _parse_form(text: str, g: int, policy):
    """The phase characters and value function of an audit form spec.

    ``ExpressionParseError`` for a spec that does not parse, ``DomainError``
    for one that parses but names no form at genus ``g``.
    """
    kind, _, spec = text.partition(":")
    if kind == "W":
        factors = tuple(_parse_char_token(tok, g) for tok in spec.split(",") if tok.strip())
        phi_chars = factors  # each odd characteristic adds its squared phase
        value_fn = partial(W_of_N, factors, policy=policy)
    elif kind == "A":
        factors = tuple(_parse_pair(chunk, g) for chunk in spec.split(";") if chunk.strip())
        phi_chars = ()
        value_fn = partial(A_star, factors, policy=policy)
    else:
        raise ExpressionParseError("form spec must start with 'W:' or 'A:'")
    if not factors:
        raise ExpressionParseError(f"form spec {text!r} names no factor")
    return phi_chars, value_fn


def cmd_audit(args) -> int:
    groups = {"gamma2": "Gamma(2)", "gamma24": "Gamma(2,4)", "gamma48": "Gamma(4,8)"}
    if args.group not in groups:
        return _fail(f"group must be one of {sorted(groups)}", EXIT_USAGE)
    if args.words < 0:
        return _fail(f"--words must be >= 0, got {args.words}", EXIT_USAGE)
    group = groups[args.group]
    policy = args.policy
    g = args.g
    try:
        phi_chars, value_fn = _parse_form(args.form, g, policy)
    except ExpressionParseError as exc:
        return _fail(exc, EXIT_USAGE)
    except DomainError as exc:
        return _fail(exc, EXIT_MATH)
    needed = law_group(phi_chars)
    # words are products of the group's generators: all of them must obey the law
    if not all(membership(x, needed) for x in _generator_pool(group, g)):
        return _fail(f"form {args.form!r} transforms only under {needed},"
                     f" which does not contain {group}", EXIT_USAGE)

    rng = np.random.default_rng(args.seed)
    base = sample_siegel_point(g, rng)
    try:
        # a spec that parses but names no form fails here, whatever --words says
        value_fn(base)
    except (ConvergenceError, DegenerateBasePointError, DomainError) as exc:
        return _fail(exc, EXIT_MATH)
    results = []
    ok = True
    try:
        words = (
            conditioned_words(group, base, args.words, args.seed + 5000)
            if args.words
            else []
        )
    except DomainError as exc:
        return _fail(exc, EXIT_MATH)
    for i, gamma in enumerate(words):
        try:
            rep = audit_transformation(value_fn, gamma, phi_chars, base, policy)
        except (ConvergenceError, DegenerateBasePointError, DomainError) as exc:
            return _fail(f"word {i}: {exc}", EXIT_MATH)
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
    p_verify.add_argument("--tol", type=float, default=None,
                          help="pass threshold override (default: per-identity tolerances)")
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
    p_audit.add_argument("--tol", type=float, default=1e-7, help="pass threshold of each word")
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
    try:
        _check_common(args)
    except DomainError as exc:
        return _fail(exc, EXIT_USAGE)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
