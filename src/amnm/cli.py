"""Command-line interface.

Documents are JSON objects with a ``table`` (the multiplication table as a
list of index rows), and optionally ``labels``, ``weights`` (numbers or
``"p/q"`` strings) and ``map`` (``{"codomain": ..., "values": ...}``).  Map
entries may be integers or ``"p/q"`` strings (kept exact, enabling rational
certificates), floats, or complex pairs ``[re, im]``.  Pass ``-`` to read
from stdin.

Exit codes: 0 success; 1 internal certification failure or unexpected
error; 2 structural violation (bad table, bad weights, wrong shape);
3 malformed input or bad usage; 4 defect or margin precondition not met;
5 no index of the supplied chain is eligible for the requested family.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .correction import correct_m2, correct_scalar, correct_t2, correct_weighted
from .counterexamples import (
    _psi_carrier,
    _psi_reports,
    geometric_weight,
    psi_n_family,
    spiked_weight,
    theta_m2_chain,
    theta_m2_chain_nonuniform,
    theta_m_t2,
)
from .defects import (
    _carrier,
    _json_number,
    _positive_finite,
    defect,
    map_from_json,
    round_to_binary,
)
from .errors import (
    AxiomViolation,
    ClassificationFailure,
    DefectTooLarge,
    NoEligibleIndex,
    ParseError,
    PreconditionGap,
    StructureMismatch,
)
from .filters import enumerate_filters
from .oracle import nearest_mult_m2, nearest_mult_scalar, nearest_mult_t2
from .reporting import canonical_json, render_table
from .sampling import (
    random_binary_weighted_instance,
    random_m2_instance,
    random_scalar_instance,
    random_t2_instance,
)
from .semilattice import (
    Semilattice,
    breadth,
    height,
    random_semilattice,
    semilattice_from_json,
    width,
)
from .weights import (
    WeightedSemilattice,
    random_submultiplicative_weight,
    weighted,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 3
        self.exit(3, f"{self.prog}: error: {message}\n")


def _load_document(path: str) -> dict:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc


def _weighted(doc: dict, S: Semilattice) -> WeightedSemilattice | None:
    if "weights" not in doc:
        return None
    w = doc["weights"]
    if not isinstance(w, list) or len(w) != S.n:
        raise ParseError('"weights" must be a list with one entry per element')
    return weighted(S, [_json_number(x) for x in w])


def _map_document(path: str):
    """The semilattice of the document at ``path``, its weight (None without a
    ``weights`` field) and its map."""
    doc = _load_document(path)
    S = semilattice_from_json(doc)
    WS = _weighted(doc, S)
    if "map" not in doc:
        raise ParseError('this command needs a "map" field in the document')
    return S, WS, map_from_json(doc["map"])


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


# ---------------------------------------------------------------------------
# Command handlers: each returns (jsonable object, text).
# ---------------------------------------------------------------------------


def cmd_validate(args):
    doc = _load_document(args.input)
    S = semilattice_from_json(doc)
    out = {"valid": True, "n": S.n}
    lines = [f"valid semilattice on {S.n} elements"]
    WS = _weighted(doc, S)
    if WS is not None:
        out["weights_valid"] = True
        out["exact_weights"] = WS.is_exact
        lines.append(
            "weights are positive and submultiplicative"
            + (" (exact)" if WS.is_exact else "")
        )
    if "map" in doc:
        m = map_from_json(doc["map"])
        _carrier(S, None, m)
        out["map_codomain"] = m.codomain
        lines.append(f"map with codomain {m.codomain} and {m.n} values")
    return out, "\n".join(lines)


def cmd_invariants(args):
    doc = _load_document(args.input)
    S = semilattice_from_json(doc)
    rng = np.random.default_rng(args.seed)
    b = breadth(S, method=args.breadth_method, samples=args.samples, rng=rng)
    out = {
        "n": S.n,
        "breadth": b,
        "breadth_method": args.breadth_method,
        "width": width(S),
        "height": height(S),
        "filters": len(enumerate_filters(S)),
    }
    text = render_table(
        ["invariant", "value"],
        [[k, v] for k, v in out.items() if k != "n"],
    )
    return out, f"n = {S.n}\n{text}"


def cmd_filters(args):
    doc = _load_document(args.input)
    S = semilattice_from_json(doc)
    rows = []
    items = []
    for f in enumerate_filters(S):
        items.append({"principal": f.principal, "members": sorted(f.members)})
        rows.append(
            [f.principal, S.label(f.principal), " ".join(str(x) for x in sorted(f.members))]
        )
    out = {"n": S.n, "filters": items}
    return out, render_table(["principal", "label", "members"], rows)


def cmd_defect(args):
    S, WS, m = _map_document(args.input)
    rep = defect(WS if WS is not None else S, m, args.norm)
    out = {  # a float view past the float range is null, beside the exact value
        "defect": rep.defect_float if rep.defect_float < math.inf else None,
        "witness": list(rep.witness),
        "norm": rep.norm,
        "exact": rep.exact_value,
    }
    if rep.defect_sq is not None:
        out["defect_sq"] = rep.defect_sq
    text = (
        f"defect {_fmt(rep.defect if rep.exact_value else rep.defect_float)} "
        f"at pair {rep.witness} in norm {rep.norm!r}"
    )
    return out, text


def _certificate_text(cert) -> str:
    lines = [
        f"corrected to an exactly multiplicative {cert.target} map",
        f"input defect:      {_fmt(cert.input_defect)}  (norm {cert.norm!r})",
        f"claimed bound:     {_fmt(cert.claimed_bound)}",
        f"achieved distance: {_fmt(cert.achieved_distance)}",
        f"corrected defect:  {_fmt(cert.corrected_defect)}",
    ]
    for key in ("S1", "filter", "p0", "F1", "F2"):
        if key in cert.details and cert.details[key] is not None:
            lines.append(f"{key}: {cert.details[key]}")
    return "\n".join(lines)


def cmd_correct(args):
    S, WS, m = _map_document(args.input)
    if args.target == "weighted":
        if WS is None:
            raise ParseError('--target weighted needs a "weights" field')
        if args.epsilon is None:
            raise ParseError("--target weighted needs --epsilon")
        if args.round:
            m = round_to_binary(WS, m)
        cert = correct_weighted(WS, m, args.epsilon)
    else:
        if WS is not None:
            raise ParseError(
                f"--target {args.target} is an unweighted correction; remove the "
                '"weights" field or use --target weighted'
            )
        if args.target == "scalar":
            cert = correct_scalar(S, m)
        elif args.target == "t2":
            cert = correct_t2(S, m)
        else:
            cert = correct_m2(S, m, delta=args.delta)
    return cert, _certificate_text(cert)


def _nearest(target, theta, norm, starts, seed, polish=True):
    if theta.codomain == "scalar":
        return nearest_mult_scalar(target, theta)
    if theta.codomain == "t2":
        return nearest_mult_t2(target, theta)
    return nearest_mult_m2(target, theta, norm=norm, starts=starts, seed=seed, polish=polish)


def _corroborate(WS, report, norm, starts, seed):
    near = _nearest(WS, report.theta, norm, starts, seed)
    # the search's value is attained by a multiplicative map, and the floor is
    # proved for every one: a value below the floor is a contradiction
    if near.value < report.distance_lower_bound:
        raise ClassificationFailure(
            f"search found a multiplicative map at {near.value!r}, inside the "
            f"certified lower bound {report.distance_lower_bound!r}"
        )
    return near


def cmd_counterexample(args):
    if args.family == "psi-blocks":
        base = _json_number(args.base)
        sizes = tuple(int(s) for s in args.sizes.split(","))
        reports = _psi_reports(ws := _psi_carrier(base, sizes), base, sizes)
    else:
        if args.family != "t2-chain":
            if args.delta is None:
                raise ParseError(f"{args.family} needs --delta")
            delta = _positive_finite("delta", args.delta)
        if args.input is not None:
            doc = _load_document(args.input)
            S = semilattice_from_json(doc)
            ws = _weighted(doc, S)
            if ws is None:
                raise ParseError("chain families need weights (or use --length)")
        elif args.family == "m2-chain-nonuniform":
            spike = 6.0 / delta
            if spike == math.inf:
                raise ValueError(f"delta {delta!r} is too small: 6/delta is past the float range")
            ws = spiked_weight(args.length, args.length // 2, max(2, math.ceil(spike)))
        else:
            ws = geometric_weight(args.length, _json_number(args.base))
        if args.family == "t2-chain":
            if args.m_range is not None:
                lo, hi = (int(x) for x in args.m_range.split(":"))
                indices = range(lo, hi)
            elif args.m is not None:
                indices = [args.m]
            else:
                raise ParseError("t2-chain needs --m or --m-range")
            reports = [theta_m_t2(ws, m) for m in indices]
        elif args.family == "m2-chain":
            reports = [theta_m2_chain(ws, delta)]
        else:
            reports = [theta_m2_chain_nonuniform(ws, delta)]

    corroborations = []
    if args.corroborate:
        corroborations = [
            _corroborate(ws, rep, args.norm, args.starts, args.seed) for rep in reports
        ]

    rows = []
    for k, rep in enumerate(reports):
        row = [
            rep.family,
            _fmt(rep.defect.defect if rep.defect.exact_value else rep.defect.defect_float),
            _fmt(rep.distance_exact if rep.distance_exact is not None else rep.distance_lower_bound),
            rep.method,
        ]
        if corroborations:
            row.append(_fmt(corroborations[k].value))
        rows.append(row)
    headers = ["family", "defect", "distance >=", "method"]
    if corroborations:
        headers.append("search found")
    out = {"reports": reports}
    if corroborations:
        out["corroborations"] = corroborations
    return out, render_table(headers, rows)


def cmd_oracle(args):
    S, WS, m = _map_document(args.input)
    target = WS if WS is not None else S
    rep = _nearest(target, m, args.norm, args.starts, args.seed, polish=not args.no_polish)
    text = (
        f"nearest multiplicative map at distance "
        f"{_fmt(rep.value_exact if rep.value_exact is not None else rep.value)} "
        f"(method {rep.method}, norm {rep.norm!r}, witness element {rep.witness})"
    )
    return dataclasses.replace(rep, value=rep.value if rep.value < math.inf else None), text


# ---------------------------------------------------------------------------
# The demonstration suite.
# ---------------------------------------------------------------------------


def _scalar_case(rng, i):
    S = random_semilattice(rng, max_n=8)
    correct_scalar(S, random_scalar_instance(rng, S))
    return True


def _t2_case(rng, i):
    S = random_semilattice(rng, max_n=8)
    correct_t2(S, random_t2_instance(rng, S))
    return True


def _weighted_case(rng, i):
    S = random_semilattice(rng, max_n=8)
    WS = random_submultiplicative_weight(rng, S)
    epsilon = float(rng.choice([0.5, 1.0, 2.0]))
    correct_weighted(WS, random_binary_weighted_instance(rng, WS, epsilon), epsilon)
    return True


def _m2_case(rng, i):
    S = random_semilattice(rng, max_n=6)
    theta = random_m2_instance(rng, S)
    cert = correct_m2(S, theta)
    return nearest_mult_m2(S, theta, starts=2, seed=i).value <= cert.achieved_distance + 1e-6


# (section name, stream k, instances with --fast and without, check of
# instance i drawn from default_rng((seed, k, i))): a Certificate raises past
# its bound, so only the matrix check, against the search, can return False
_SUITE_SECTIONS = (
    ("scalar corrections", 1, (40, 200), _scalar_case),
    ("upper-triangular corrections", 2, (40, 200), _t2_case),
    ("weighted binary corrections", 3, (25, 60), _weighted_case),
    ("matrix corrections + search", 4, (8, 30), _m2_case),
)


def _suite_families():
    # each constructor raises unless its family's defect and distance are as stated
    ws = geometric_weight(10)
    reports = [
        *psi_n_family(2, (2, 3, 4)),
        *(theta_m_t2(ws, m) for m in range(1, 6)),
        theta_m2_chain(ws, 0.05),
        theta_m2_chain_nonuniform(spiked_weight(9, 4, 200), 0.05),
    ]
    return ["counterexample families", len(reports), len(reports), True]


def cmd_suite(args):
    rows = []
    for name, k, counts, case in _SUITE_SECTIONS:
        count = counts[0] if args.fast else counts[1]
        results = [case(np.random.default_rng((args.seed, k, i)), i) for i in range(count)]
        rows.append([name, count, sum(results), all(results)])
    rows.append(_suite_families())
    all_ok = all(r[3] for r in rows)
    out = {
        "seed": args.seed,
        "sections": [
            {"name": r[0], "instances": r[1], "passed": r[2], "ok": r[3]} for r in rows
        ],
        "ok": all_ok,
    }
    table = render_table(
        ["section", "instances", "passed", "ok"],
        [[r[0], r[1], r[2], "yes" if r[3] else "NO"] for r in rows],
    )
    if not all_ok:
        raise ClassificationFailure(f"suite failed:\n{table}")
    return out, table + "\nall sections passed"


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _add_subparser(sub, name: str, help_text: str):
    # accept --json after the subcommand too; SUPPRESS keeps a value parsed
    # before the subcommand from being overwritten by the subparser default
    p = sub.add_parser(name, help=help_text)
    p.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="emit canonical JSON"
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="amnm", description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subparser(sub, "validate", "check a document's table, weights and map")
    p.add_argument("input", help="JSON document path, or - for stdin")
    p.set_defaults(func=cmd_validate)

    p = _add_subparser(sub, "invariants", "breadth, width, height, filter count")
    p.add_argument("input")
    p.add_argument(
        "--breadth-method", choices=("exhaustive", "sample"), default="exhaustive"
    )
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_invariants)

    p = _add_subparser(sub, "filters", "list all filters")
    p.add_argument("input")
    p.set_defaults(func=cmd_filters)

    p = _add_subparser(sub, "defect", "weighted multiplicativity defect of the map")
    p.add_argument("input")
    p.add_argument("--norm", choices=("abs", "t2", "hs", "op"), default=None)
    p.set_defaults(func=cmd_defect)

    p = _add_subparser(sub, "correct", "correct the map to a multiplicative one")
    p.add_argument("input")
    p.add_argument("--target", choices=("scalar", "weighted", "t2", "m2"), required=True)
    p.add_argument("--epsilon", type=float, help="distance budget (weighted target)")
    p.add_argument("--delta", type=float, help="defect level to certify against (m2)")
    p.add_argument(
        "--round",
        action="store_true",
        help="round a non-binary map to {0,1} first (weighted target)",
    )
    p.set_defaults(func=cmd_correct)

    p = _add_subparser(sub, "counterexample", "build a certified counterexample family")
    p.add_argument("input", nargs="?", help="optional weighted chain document")
    p.add_argument(
        "--family",
        choices=("psi-blocks", "t2-chain", "m2-chain", "m2-chain-nonuniform"),
        required=True,
    )
    p.add_argument("--base", default="2", help="weight base (rational, default 2)")
    p.add_argument("--sizes", default="2,3,4,5", help="free block sizes (psi-blocks)")
    p.add_argument("--length", type=int, default=12, help="chain length when no input")
    p.add_argument("--m", type=int, help="element index (t2-chain)")
    p.add_argument("--m-range", help="index range lo:hi (t2-chain)")
    p.add_argument("--delta", type=float, help="defect budget (m2 families)")
    p.add_argument("--corroborate", action="store_true", help="also run the search")
    p.add_argument("--norm", choices=("hs", "op"), default="op")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_counterexample)

    p = _add_subparser(sub, "oracle", "nearest multiplicative map to the document's map")
    p.add_argument("input")
    p.add_argument("--norm", choices=("hs", "op"), default="hs")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-polish", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = _add_subparser(sub, "suite", "run the randomized demonstration battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_suite)

    return parser


# main's parser, built on its first call and reused: parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out, text = args.func(args)
        print(canonical_json(out) if args.json else text)
        return 0
    except (AxiomViolation, StructureMismatch) as exc:
        print(f"amnm: structural error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"amnm: input error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"amnm: bad parameter: {exc}", file=sys.stderr)
        return 3
    except (DefectTooLarge, PreconditionGap) as exc:
        print(f"amnm: precondition not met: {exc}", file=sys.stderr)
        return 4
    except NoEligibleIndex as exc:
        print(f"amnm: {exc}", file=sys.stderr)
        return 5
    except ClassificationFailure as exc:
        print(f"amnm: internal certification failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net
        print(f"amnm: unexpected error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
