"""Batch command-line front end.

Exit codes: 0 success, 1 a verify suite found violations, 2 argument errors
(including requests too large for memory), 3 an internal error.
JSON output follows the spinrest-v1 schema: every payload carries a "schema"
key, and verify violations stream as JSON.
"""

import argparse
import functools
import json
import sys

from . import labels as lb
from .classify import PrimitiveCase, RestrictionQuery, TableIICase
from .classify import classify as classify_query
from . import regularization as rg
from . import residues as rs
from .partitions import (
    a_0,
    a_p,
    check_odd_prime,
    format_partition,
    is_p_regular,
    is_p_strict,
    is_restricted_p_strict,
    is_strict,
    parse_partition,
    part_counts,
    size,
)
from .specht import (
    SubgroupSpec,
    alt_young,
    invariant_dims,
    parse_spec,
    young,
)
from .suites import SUITES, run_suite

SCHEMA = "spinrest-v1"


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in text_lines:
            print(line)


def parse_subgroup(text: str, n: int) -> object:
    """Parse a subgroup: prim:NAME, tab2:N (also read as tab2:rowN), the
    aliases Sn (or full) and An for S(n) and A(n), or the spelling str(spec)
    of a SubgroupSpec, such as S(n-k,k), A(n-1,1), W(a,b), WA(a,b) or I2(v,b)."""
    s = text.strip()
    if s.startswith("prim:"):
        return PrimitiveCase(s[5:], n)
    if s.startswith("tab2:"):
        row = s[5:].removeprefix("row")
        if not row.isdecimal():
            raise ValueError(f"cannot parse subgroup {s!r}: expected tab2:N")
        return TableIICase(int(row))
    if s in ("Sn", "full", "An"):  # S_0 is S()
        return (alt_young if s == "An" else young)(n, (n,) if n else ())
    return parse_spec(s, n)


def cmd_partition(args) -> int:
    lam = parse_partition(args.lam)
    p = check_odd_prime(args.p)
    h, h_p, h_pp = part_counts(lam, p)
    info = {
        "lambda": format_partition(lam),
        "p": p,
        "n": size(lam),
        "strict": is_strict(lam),
        "p_strict": is_p_strict(lam, p),
        "restricted_p_strict": is_restricted_p_strict(lam, p),
        "p_regular": is_p_regular(lam, p),
        "h": h,
        "h_p": h_p,
        "h_p_prime": h_pp,
        "a_p": a_p(lam, p),
    }
    if is_strict(lam):
        info["a_0"] = a_0(lam)
    _emit(info, args.format, [f"{k}: {v}" for k, v in info.items()])
    return 0


def cmd_residues(args) -> int:
    lam = parse_partition(args.lam)
    profile = rs.build_profile(lam, args.p)
    payload = profile.to_json()
    lines = [f"lambda = {format_partition(lam)}, p = {args.p}"]
    for d in profile.data:
        lines.append(
            f"  i={d.i}: eps={d.epsilon} phi={d.phi} good={d.good} cogood={d.cogood} "
            f"signature={''.join(e.sign for e in d.signature)}"
        )
    _emit(payload, args.format, lines)
    return 0


def cmd_branch(args) -> int:
    lam = parse_partition(args.lam)
    p = check_odd_prime(args.p)
    payload = {"lambda": format_partition(lam), "p": p, "up": args.up}
    lines = [f"lambda = {format_partition(lam)}, p = {p}"]
    op = rs.tilde_f if args.up else rs.tilde_e
    moved = {}
    for i in range((p - 1) // 2 + 1):
        res = op(lam, p, i)
        moved[i] = format_partition(res) if res else None
        lines.append(f"  tilde_{'f' if args.up else 'e'}_{i}: {moved[i]}")
    payload["tilde"] = moved
    if is_strict(lam) and (lam or args.up):
        counter = rs.char0_branching_up(lam) if args.up else rs.char0_branching_down(lam)
        payload["char0"] = {format_partition(mu): m for mu, m in sorted(counter.items())}
        lines.append("  char-0 " + ("induction: " if args.up else "restriction: ") + str(payload["char0"]))
    _emit(payload, args.format, lines)
    return 0


def cmd_reg(args) -> int:
    lam = parse_partition(args.lam)
    p = args.p
    reg = rg.regularize(lam, p)
    payload = {"lambda": format_partition(lam), "p": p, "regularization": format_partition(reg)}
    lines = [f"{format_partition(lam)}^Reg = {format_partition(reg)} (p={p})"]
    if is_strict(lam) and lam:
        coeff = rg.leading_coefficient(lam, p)
        payload["leading_coefficient"] = coeff
        lines.append(f"leading coefficient: {coeff}")
    _emit(payload, args.format, lines)
    return 0


def cmd_trp(args) -> int:
    tr = lb.trp_set(args.n, args.p)
    payload = {
        "n": args.n,
        "p": args.p,
        "m_n": lb.m_n(args.n, args.p),
        "labels": [format_partition(x) for x in tr],
    }
    _emit(payload, args.format, [f"TR_{args.p}({args.n}) = " + ", ".join(payload["labels"])])
    return 0


def cmd_dims(args) -> int:
    n, p, which = args.n, args.p, args.which
    table = lb.basic_table(n, p) if which == "basic" else lb.second_basic_table(n, p)
    lam = lb.alpha_n(n, p) if which == "basic" else lb.beta_n(n, p)
    payload = {
        "n": n,
        "p": p,
        "which": which,
        "label": format_partition(lam),
        "supermodule_dim": table[0],
        "type": table[1],
        "module_dim_sym": lb.intro_dims(n, p, "S", which),
        "module_dim_alt": lb.intro_dims(n, p, "A", which),
    }
    _emit(
        payload,
        args.format,
        [
            f"{which} label {payload['label']}: supermodule dim {table[0]} type {table[1]}, "
            f"module dims {payload['module_dim_sym']} (sym) / {payload['module_dim_alt']} (alt)"
        ],
    )
    return 0


def cmd_classify(args) -> int:
    label = lb.parse_label(args.label, args.p)
    if label.group != {"S": "S", "A": "A"}[args.group]:
        raise ValueError("label letter does not match --group")
    sub = parse_subgroup(args.subgroup, args.n)
    query = RestrictionQuery(args.group, args.n, args.p, label, sub, sixfold_cover=args.sixfold)
    verdict = classify_query(query)
    payload = {
        "query": {"group": args.group, "n": args.n, "p": args.p, "label": str(label), "subgroup": str(sub)},
        **verdict.to_json(),
    }
    _emit(payload, args.format, [f"{verdict.outcome.value}" + (f"  [{verdict.clause}]" if verdict.clause else "")])
    return 0


def cmd_invariants(args) -> int:
    shape = parse_partition(args.shape)
    sub = parse_subgroup(args.subgroup, size(shape))
    if not isinstance(sub, SubgroupSpec):
        raise ValueError("invariants needs a concrete subgroup spec")
    dims = invariant_dims(shape, args.p, sub)
    payload = {"shape": format_partition(shape), "subgroup": str(sub), "p": args.p, **dims}
    _emit(payload, args.format, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_verify(args) -> int:
    result = run_suite(args.suite, wide=args.grid == "wide")
    ok = not result["violations"]
    payload = {**result, "ok": ok}
    if args.format == "json":
        _emit(payload, "json", [])
    else:
        print(f"suite {result['suite']}: {result['checks']} checks, {len(result['violations'])} violations")
        for v in result["violations"]:
            print(json.dumps(v, default=str))
    return 0 if ok else 1


@functools.cache  # main runs many queries in one process; parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinrest", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition predicates and invariants")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    p_info = part_sub.add_parser("info")
    p_info.add_argument("--lambda", dest="lam", required=True)
    p_info.add_argument("--p", type=int, required=True)
    p_info.set_defaults(func=cmd_partition)

    p_res = sub.add_parser("residues", help="full residue profile")
    p_res.add_argument("--lambda", dest="lam", required=True)
    p_res.add_argument("--p", type=int, required=True)
    p_res.set_defaults(func=cmd_residues)

    p_br = sub.add_parser("branch", help="crystal operators and char-0 branching")
    p_br.add_argument("--lambda", dest="lam", required=True)
    p_br.add_argument("--p", type=int, required=True)
    p_br.add_argument("--up", action="store_true")
    p_br.set_defaults(func=cmd_branch)

    p_reg = sub.add_parser("reg", help="regularization and leading coefficient")
    p_reg.add_argument("--lambda", dest="lam", required=True)
    p_reg.add_argument("--p", type=int, required=True)
    p_reg.set_defaults(func=cmd_reg)

    p_trp = sub.add_parser("trp", help="two-row composition-factor labels")
    p_trp.add_argument("--n", type=int, required=True)
    p_trp.add_argument("--p", type=int, required=True)
    p_trp.set_defaults(func=cmd_trp)

    p_dims = sub.add_parser("dims", help="basic / second basic dimensions")
    p_dims.add_argument("--n", type=int, required=True)
    p_dims.add_argument("--p", type=int, required=True)
    p_dims.add_argument("--which", choices=("basic", "second"), default="basic")
    p_dims.set_defaults(func=cmd_dims)

    p_cls = sub.add_parser("classify", help="irreducible-restriction verdict")
    p_cls.add_argument("--group", choices=("S", "A"), required=True)
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--p", type=int, required=True)
    p_cls.add_argument("--label", required=True)
    p_cls.add_argument("--subgroup", required=True)
    p_cls.add_argument("--sixfold", action="store_true")
    p_cls.set_defaults(func=cmd_classify)

    p_inv = sub.add_parser("invariants", help="fixed-space dimensions on permutation modules")
    p_inv.add_argument("--shape", required=True)
    p_inv.add_argument("--p", type=int, required=True)
    p_inv.add_argument("--subgroup", required=True)
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--grid", choices=("default", "wide"), default="default")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
