"""Command line front end.

Exit codes: 0 on success/pass, 1 on a mathematical failure (for instance
a duality check that comes out false), 2 on input errors, 141 when the
reader closes stdout before the report is written.  Text reports
start with the convention block so results are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import GradedCYError, ParseError
from .quiver import arrow_multiplicities, load_presentation

CONVENTIONS = (
    "# conventions: paths compose left-to-right (p*q = first p then q); "
    "monomial order length-lex by declaration order; dual-complex signs "
    "fixed by the two-variable worked example"
)

# the subcommands, and the dimer actions, that print a graph for --format dot
DOT_RENDERERS = ("build-abc", "qhat", "corpi", "knit", "dimer qp")


def _fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(args, text_lines, data, dot=None):
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    elif args.format == "dot":
        print(dot)
    else:
        print(CONVENTIONS)
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dims(args):
    from .rewriting import dimension_table

    pres = load_presentation(args.file)
    degrees = list(range(0, -args.max_degree - 1, -1))
    cap = args.max_degree + 4 if args.cap is None else args.cap
    table = dimension_table(pres, degrees, cap)
    lines = [f"graded dimensions of {args.file}"]
    data = {}
    for w in degrees:
        per_pair = table[w]
        total = sum(per_pair.values())
        data[str(w)] = {f"{s}->{t}": d for (s, t), d in per_pair.items()}
        data[str(w)]["total"] = total
        pairs = ", ".join(f"{s}->{t}: {d}" for (s, t), d in per_pair.items())
        lines.append(f"  degree {w}: total {total}" +
                     (f"  ({pairs})" if len(per_pair) > 1 else ""))
    _emit(args, lines, data)
    return 0


def cmd_build_abc(args):
    from .findim import gabriel_quiver
    from .slice_algebras import build_AUB

    pres = load_presentation(args.file)
    A, U, B = build_AUB(pres, args.a, cap=args.cap)
    qa = gabriel_quiver(A)
    qb = gabriel_quiver(B)
    data = {
        "dim_A": A.dim, "dim_U": U.dim, "dim_B": B.dim,
        "quiver_A": _multiplicities(qa),
        "quiver_B": _multiplicities(qb),
    }
    lines = [f"slice algebras of {args.file} at a = {args.a}",
             f"  dim A = {A.dim}, dim U = {U.dim}, dim B = {B.dim}",
             f"  Gabriel quiver of A: {data['quiver_A']}",
             f"  Gabriel quiver of B: {data['quiver_B']}"]
    _emit(args, lines, data, dot=qb.to_dot("B"))
    return 0


def cmd_tilde(args):
    from .slice_algebras import build_AUB, build_tilde

    pres = load_presentation(args.file)
    A, U, _ = build_AUB(pres, args.a, cap=args.cap)
    At, Ut, Bt = build_tilde(A, U, args.n)
    data = {"dim_tilde_A": At.dim, "dim_tilde_U": Ut.dim,
            "dim_tilde_B": Bt.dim, "n": args.n}
    _emit(args, [f"block algebras at n = {args.n}: "
                 f"dim A~ = {At.dim}, dim U~ = {Ut.dim}, dim B~ = {Bt.dim}"],
          data)
    return 0


def cmd_qhat(args):
    from .preprojective import layered_presentation
    from .rewriting import length_table

    pres = load_presentation(args.file)
    lq = layered_presentation(pres.quiver, args.n)
    cap = 6 if args.cap is None else args.cap
    lt = length_table(lq, cap)
    total = sum(sum(v) for v in lt.values())
    data = {"vertices": len(lq.quiver.vertices),
            "arrows": len(lq.quiver.arrows),
            "relations": len(lq.relations),
            "dim_up_to_length": total}
    lines = [f"layered presentation of {args.file} at n = {args.n}:",
             f"  {data['vertices']} vertices, {data['arrows']} arrows, "
             f"{data['relations']} relations",
             f"  total dimension (paths up to length {cap}): "
             f"{total}"]
    _emit(args, lines, data, dot=lq.quiver.to_dot("Qhat"))
    return 0


def cmd_corpi(args):
    from .findim import gabriel_quiver
    from .preprojective import block_trivial_extension

    pres = load_presentation(args.file)
    B = block_trivial_extension(pres.quiver, args.n)
    gq = gabriel_quiver(B)
    data = {"dim_B": B.dim,
            "quiver_B": _multiplicities(gq)}
    _emit(args, [f"block trivial extension at n = {args.n}: dim {B.dim}",
                 f"  Gabriel quiver: {data['quiver_B']}"], data,
          dot=gq.to_dot("B"))
    return 0


def cmd_dimer(args):
    from .dimer import (consistency_check, degree_function_json, dual_qp,
                        grading_from_matchings, jacobian_presentation,
                        load_dimer, perfect_matchings, rcharge_json,
                        write_matchings_json)

    sub = args.action
    if sub != "jacobian" and (args.matchings or args.coeffs):
        return _fail("--matchings and --coeffs belong to dimer jacobian; "
                     f"dimer {sub} takes neither")
    dimer = load_dimer(args.file)
    if sub == "validate":
        faces, report = dimer.validate()
        _emit(args, [f"valid dimer on the torus: {report}"], report)
        return 0
    if sub == "qp":
        qp = dual_qp(dimer)
        mult = _multiplicities(qp.quiver)
        data = {"vertices": list(qp.quiver.vertices),
                "arrow_multiplicities": mult,
                "potential": [{"sign": s, "cycle": list(c), "at": str(v)}
                              for s, c, v in qp.potential]}
        _emit(args, [f"dual quiver: {data['vertices']}, arrows {mult}"],
              data, dot=qp.quiver.to_dot("Q"))
        return 0
    if sub == "consistency":
        res = consistency_check(dimer)
        print(rcharge_json(res))
        return 0 if res.feasible else 1
    if sub == "matchings":
        ms, truncated = perfect_matchings(dimer)
        write_matchings_json(sys.stdout, ms, truncated)
        return 0
    ms, _ = perfect_matchings(dimer)
    if args.matchings:
        try:
            picks = [int(i) for i in args.matchings.split(",")]
            coeffs = [int(c) for c in args.coeffs.split(",")] \
                if args.coeffs else [-1] * len(picks)
        except ValueError:
            return _fail("--matchings and --coeffs take comma "
                         "separated integers")
        for i in picks:
            if not 0 <= i < len(ms):
                return _fail(f"--matchings index {i} is out of range: "
                             f"{args.file} has {len(ms)} perfect "
                             f"matchings, numbered from 0")
        if len(coeffs) != len(picks):
            return _fail(f"--coeffs needs one coefficient per index "
                         f"in --matchings: got {len(coeffs)} for "
                         f"{len(picks)} ({args.file} has {len(ms)} "
                         f"perfect matchings)")
        chosen = [ms[i] for i in picks]
    elif args.coeffs:
        return _fail("--coeffs needs --matchings: give the indices of "
                     "the matchings the coefficients belong to")
    else:
        chosen = ms
        coeffs = [-1] * len(ms)
    deg = grading_from_matchings(dimer, chosen, coeffs)
    qp = dual_qp(dimer)
    pres = jacobian_presentation(qp, deg)
    data = {"a_invariant": deg.a_invariant,
            "relations": len(pres.relations),
            "degrees": dict(sorted(deg.degrees.items()))}
    _emit(args, [f"graded quotient by the potential derivatives; "
                 f"a-invariant {deg.a_invariant}, "
                 f"{len(pres.relations)} relations",
                 degree_function_json(deg)], data)
    return 0


def cmd_cy_check(args):
    from .complexes import parse_complex
    from .duality import (TwistSpec, builtin_resolution, check_twisted_cy,
                          identity_twist, sign_twist)

    pres = load_presentation(args.file)
    if pres.cy is None:
        return _fail("presentation lacks a [cy] section")
    if args.twist == "file" and pres.twist is None:
        return _fail("presentation has no [twist] section")
    if args.resolution:
        with open(args.resolution, "r", encoding="utf-8") as fh:
            cplx = parse_complex(fh.read(), pres, filename=args.resolution)
    else:
        cplx = builtin_resolution(pres)
    shift = args.shift if args.shift is not None else \
        pres.cy.dimension + pres.cy.a_invariant
    if args.twist == "sigma":
        twist = sign_twist(pres, shift)
    elif args.twist == "file":
        twist = TwistSpec(dict(pres.twist), shift)
    else:
        twist = identity_twist(shift)
    window = None
    if args.window is not None:
        lo, hi = sorted(args.window)
        window = (hi, lo)
    verdict = check_twisted_cy(pres, cplx, twist, window=window,
                               cap=args.cap)
    _emit(args, [verdict.summary()], {
        "passed": verdict.passed,
        "shift": verdict.shift,
        "rows": [{"degree": v, "expected": e, "computed": g,
                  "method": m} for v, e, g, m in verdict.dim_rows],
        "action_ok": verdict.action_ok,
    })
    return 0 if verdict.passed else 1


def cmd_ig_check(args):
    from .findim import is_iwanaga_gorenstein
    from .slice_algebras import build_AUB

    pres = load_presentation(args.file)
    A, U, B = build_AUB(pres, args.a, cap=args.cap)
    rep = is_iwanaga_gorenstein(B, args.d, args.d + 2)
    data = {"holds": rep.holds, "inj_dim_left": rep.inj_dim_left,
            "inj_dim_right": rep.inj_dim_right, "d": rep.d}
    _emit(args, [f"Iwanaga-Gorenstein check at d = {args.d}: "
                 f"{'holds' if rep.holds else 'fails'} "
                 f"(inj dims {rep.inj_dim_left}/{rep.inj_dim_right})"], data)
    return 0 if rep.holds else 1


def cmd_knit(args):
    from .arshadow import knit_component, mesh_additive

    pres = load_presentation(args.file)
    comp = knit_component(pres.quiver, args.steps)
    lines = [f"knitted component, {args.steps} steps"
             + (" (closed up: finite type)" if comp.closed else "")]
    for key in sorted(comp.nodes, key=str):
        node = comp.nodes[key]
        lines.append(f"  {node.label}: {node.dimvec}")
    lines.append(f"  mesh additivity: {mesh_additive(comp)}")
    data = {f"{k}:{v}": list(comp.nodes[(k, v)].dimvec)
            for (k, v) in comp.nodes}
    _emit(args, lines, data, dot=comp.to_dot())
    return 0


def cmd_verify_root(args):
    from .arshadow import OrbitLabel, verify_root

    pres = load_presentation(args.file)
    report = verify_root(pres, args.a, args.steps, cap=args.cap)
    orbit = report.orbit
    table = {str(OrbitLabel(i, 0)): list(orbit.dimvec(OrbitLabel(i, 0)))
             for i in range(min(args.steps, 8))}
    data = {"passed": report.passed, "steps": report.steps,
            "label_level": report.label_ok,
            "dimension_vectors": report.dimvec_ok,
            "orbit": table,
            "failures": report.failures}
    _emit(args, [f"translation-root check over {args.steps} steps: "
                 f"{'PASS' if report.passed else 'FAIL'}"], data)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def _window(text):
    lo, hi = text.split("..")
    return (int(lo), int(hi))


def _at_least(low):
    """The argparse type of an integer flag that must be >= low."""
    def check(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, not {text!r}")
        return value
    return check


def _multiplicities(quiver):
    """quiver.arrow_multiplicities with "s->t" keys."""
    return {f"{s}->{t}": m
            for (s, t), m in arrow_multiplicities(quiver).items()}


def _glue_window(argv):
    """argparse takes a value such as -9..0 or -1,-2 for an option of its
    own, so `--window -9..0` becomes `--window=-9..0` and `--coeffs -1,-2`
    becomes `--coeffs=-1,-2` before parsing."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--window", "--coeffs"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="gradedcy",
        description="exact computations around negatively graded "
                    "quotient path algebras")
    p.add_argument("--format", choices=("text", "json", "dot"),
                   default="text")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("dims", help="graded dimension table")
    s.add_argument("file")
    s.add_argument("--max-degree", type=_at_least(0), default=4)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_dims)

    s = sub.add_parser("build-abc", help="slice algebras A, U, B")
    s.add_argument("file")
    s.add_argument("--a", type=_at_least(1), required=True)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_build_abc)

    s = sub.add_parser("tilde", help="n-fold block algebras")
    s.add_argument("file")
    s.add_argument("--a", type=_at_least(1), required=True)
    s.add_argument("--n", type=_at_least(1), required=True)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_tilde)

    s = sub.add_parser("qhat", help="layered presentation of a quiver")
    s.add_argument("file")
    s.add_argument("--n", type=_at_least(1), required=True)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_qhat)

    s = sub.add_parser("corpi", help="block trivial extension of a quiver")
    s.add_argument("file")
    s.add_argument("--n", type=_at_least(1), required=True)
    s.set_defaults(func=cmd_corpi)

    s = sub.add_parser("dimer", help="dimer model computations")
    s.add_argument("action", choices=("validate", "qp", "consistency",
                                      "matchings", "jacobian"))
    s.add_argument("file")
    s.add_argument("--matchings", help="comma separated matching indices")
    s.add_argument("--coeffs", help="comma separated coefficients")
    s.set_defaults(func=cmd_dimer)

    s = sub.add_parser("cy-check", help="twisted duality check")
    s.add_argument("file")
    s.add_argument("--twist", choices=("id", "sigma", "file"),
                   default="id")
    s.add_argument("--shift", type=int)
    s.add_argument("--window", type=_window,
                   help="internal degree range LO..HI; default 0 down to "
                        "-(a+4)")
    s.add_argument("--cap", type=_at_least(0))
    s.add_argument("--resolution", help="complex file overriding the "
                                        "built-in resolution")
    s.set_defaults(func=cmd_cy_check)

    s = sub.add_parser("ig-check", help="Iwanaga-Gorenstein check on B")
    s.add_argument("file")
    s.add_argument("--a", type=_at_least(1), required=True)
    s.add_argument("--d", type=_at_least(0), required=True)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_ig_check)

    s = sub.add_parser("knit", help="knit the translation component")
    s.add_argument("file")
    s.add_argument("--steps", type=_at_least(0), default=6)
    s.set_defaults(func=cmd_knit)

    s = sub.add_parser("verify-root", help="degree shift as a root of the "
                                           "translation")
    s.add_argument("file")
    s.add_argument("--a", type=_at_least(1), required=True)
    s.add_argument("--steps", type=_at_least(0), default=20)
    s.add_argument("--cap", type=_at_least(0))
    s.set_defaults(func=cmd_verify_root)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _glue_window(sys.argv[1:] if argv is None else argv))
    name = args.command if args.command != "dimer" else f"dimer {args.action}"
    if args.format == "dot" and name not in DOT_RENDERERS:
        return _fail(f"{name} draws no graph: use --format text or json")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone (`| head`); the flush at exit writes to
        # devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, FileNotFoundError) as e:
        return _fail(str(e))
    except GradedCYError as e:
        return _fail(f"{type(e).__name__}: {e}", 1)


if __name__ == "__main__":
    sys.exit(main())
