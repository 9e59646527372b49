"""Command-line front end.

``whakit validate|analyze|generate|dualize|crossprod`` — run ``whakit
<command> --help`` for per-command options.

Exit codes: 0 success, 2 axiom failure, 3 stage/schema failure, 64 usage
error, 66 missing input file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import whafile
from .actions import (
    arrow_action,
    crossed_product,
    dual_regular_action,
    galois_map,
    is_regular,
    smash_product,
    trivial_action,
    validate_action,
)
from .algebra import FinDimAlgebra, watatani_index
from .config import Tolerance, get_tol
from .errors import EmptyQuotient, NotSemisimple, SchemaError, ValidationError, WhakitError
from .fixtures import (
    cyclic_group,
    cyclic_wha,
    function_wha,
    m2_m3,
    pair_groupoid,
    pair_groupoid_wha,
    sweedler_h4,
    symmetric_wha,
)
from .integrals import haar_criterion, haar_expectations, maschke_check
from .report import AxiomReport
from .reptheory import markov_index
from .wha import dual_wha, hypercentral_components, is_weak_kac, validate_wha

EX_OK = 0
EX_AXIOM = 2
EX_STAGE = 3
EX_USAGE = 64
EX_NOFILE = 66

REPORT_VERSION = 1

__all__ = ["main", "analyze_wha", "EX_OK", "EX_AXIOM", "EX_STAGE", "EX_USAGE", "EX_NOFILE"]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str, tol: Tolerance, validate: bool):
    try:
        return whafile.load(path, validate=validate, tol=tol)
    except (FileNotFoundError, IsADirectoryError):
        raise _CliError(EX_NOFILE, f"no such file: {path}") from None
    except SchemaError as exc:
        raise _CliError(EX_STAGE, f"{path}: {exc}") from None
    except ValidationError as exc:
        raise _CliError(EX_AXIOM, f"{path}: {exc}") from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cvec(v: np.ndarray) -> list:
    return [[float(np.real(x)), float(np.imag(x))] for x in np.asarray(v).ravel()]


def _check_rows(rep: AxiomReport) -> list[dict]:
    return rep.as_dict()["checks"]


def _render_checks(rows: list[dict]) -> list[str]:
    width = max((len(r["name"]) for r in rows), default=0)
    return [
        f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']:<{width}s}  "
        f"residual {'not finite' if r['residual'] is None else format(r['residual'], '.3e')}  "
        f"(tol {r['threshold']:.3e})"
        for r in rows
    ]


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    tol = Tolerance(args.tol, args.tol)
    w = _load(args.path, tol, validate=False)
    rows = _check_rows(validate_wha(w, tol))
    ok = all(r["passed"] for r in rows)
    if args.format == "json":
        doc = {
            "report_version": REPORT_VERSION,
            "file": args.path,
            "name": w.name,
            "dim": w.dim,
            "ok": ok,
            "checks": rows,
        }
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [f"{w.name}: dim {w.dim}"]
        lines += _render_checks(rows)
        lines.append("OK" if ok else "FAILED: " + ", ".join(r["name"] for r in rows if not r["passed"]))
        _emit(args, "\n".join(lines))
    return EX_OK if ok else EX_AXIOM


# ---------------------------------------------------------------------------
# analyze


def analyze_wha(w, tol: Tolerance | None = None) -> dict:
    """Run the full pipeline on an in-memory algebra and return the report dict.

    Stages that cannot run report a typed absence (``{"absent": kind}``);
    unexpected failures are embedded as ``{"error": ...}`` and flagged.
    """
    tol = get_tol(tol)
    out: dict = {
        "report_version": REPORT_VERSION,
        "name": w.name,
        "dim": w.dim,
        "stages": {},
        "timing": {},
        "ok": True,
        "failed": False,
    }

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            val = fn()
            out["stages"][name] = val
            return val
        except WhakitError as exc:
            out["stages"][name] = {"absent": type(exc).__name__, "reason": str(exc)}
            return None
        except Exception as exc:  # embedded, never crashes the report
            out["stages"][name] = {"error": type(exc).__name__, "reason": str(exc)}
            out["failed"] = True
            return None
        finally:
            out["timing"][name] = round(time.perf_counter() - t0, 6)

    rows = _check_rows(validate_wha(w, tol))
    axioms_ok = all(r["passed"] for r in rows)
    out["stages"]["axioms"] = {"ok": axioms_ok, "checks": rows}
    out["ok"] = axioms_ok
    if not axioms_ok:
        out["stages"]["skipped"] = "axioms failed; structural stages not run"
        return out

    derived = w.derived(tol)

    def _structure():
        sub = derived.counital_subalgebras
        dual_sub = w.dual.derived(tol).counital_subalgebras
        return {
            "dims": {
                "A": w.dim,
                "A_L": sub.left.dim,
                "A_R": sub.right.dim,
                "Z_L": sub.center_left.dim,
                "Z_R": sub.center_right.dim,
                "hypercenter": sub.hypercenter.dim,
            },
            "flags": {
                "pure": bool(sub.pure),
                "biconnected": bool(sub.pure and dual_sub.pure),
                "indecomposable": bool(sub.indecomposable),
                "weak_kac": bool(is_weak_kac(w, tol)),
                "semisimple": bool(w.algebra.is_semisimple(tol)),
            },
        }

    stage("structure", _structure)

    def _haar():
        h = derived.haar
        if h is None:
            return {"absent": "NoHaar", "reason": "no normalized two-sided integral"}
        res = {
            "idempotent": float(np.linalg.norm(w.mul(h, h) - h)),
            "s_invariant": float(np.linalg.norm(w.s(h) - h)),
        }
        if w.algebra.involution is not None:
            res["self_adjoint"] = float(np.linalg.norm(w.algebra.star(h) - h))
        state = derived.haar_state
        return {
            "element": _cvec(h),
            "residuals": res,
            "criterion": bool(haar_criterion(w, tol)),
            "maschke": bool(maschke_check(w, tol)),
            "state_faithful": bool(state is not None and state.faithful),
        }

    haar = stage("haar", _haar)
    have_haar = bool(haar) and "absent" not in haar

    def _grouplike():
        cg = derived.grouplike
        if cg is None:
            return {"absent": "NoHaar", "reason": "canonical grouplike needs a faithful Haar state"}
        return {
            "g": _cvec(cg.g),
            "distance_to_unit": float(np.linalg.norm(cg.g - w.unit)),
            "checks": _check_rows(cg.report),
        }

    stage("grouplike", _grouplike)

    def _sectors():
        table = derived.sectors
        return {
            "vacua": int(table.vacua.count),
            "sectors": [
                {
                    "q": s.index,
                    "n_q": int(s.size),
                    "d_q": float(s.d),
                    "vacuum_left": int(s.vacuum_left),
                    "vacuum_right": int(s.vacuum_right),
                }
                for s in table.sectors
            ],
            "d_vector": [float(s.d) for s in table.sectors],
            "d_matrix": [[float(x) for x in row] for row in table.d_matrix],
            "delta": float(table.delta),
        }

    if have_haar:
        stage("sectors", _sectors)
    else:
        out["stages"]["sectors"] = {"absent": "NoHaar", "reason": "sector pipeline skipped without Haar integral"}

    def _one_index(comp) -> dict:
        entry = {"markov_index": float(markov_index(comp, tol))}
        exps = haar_expectations(comp, tol)
        if exps is None:
            entry["haar_index"] = None
        else:
            wat = watatani_index(comp.algebra, exps[0], tol)
            entry["haar_index"] = float(np.real(wat.scalar)) if wat.is_scalar else None
        return entry

    def _index():
        if derived.counital_subalgebras.hypercenter.dim == 1:
            return _one_index(w)
        rows = []
        for comp in hypercentral_components(w, tol):
            entry: dict = {"name": comp.name, "dim": comp.dim}
            try:
                entry["delta"] = float(comp.derived(tol).sectors.delta)
                entry.update(_one_index(comp))
            except WhakitError as exc:
                entry["absent"] = type(exc).__name__
                entry["reason"] = str(exc)
            rows.append(entry)
        return {"components": rows}

    if have_haar:
        stage("index", _index)
    else:
        out["stages"]["index"] = {"absent": "NoHaar", "reason": "index skipped without Haar integral"}

    out["timing"]["total"] = round(sum(t for t in out["timing"].values()), 6)
    return out


def _render_analysis(doc: dict) -> str:
    lines = [f"{doc['name']}: dim {doc['dim']}"]

    def header(title):
        lines.append("")
        lines.append(f"== {title} ==")

    ax = doc["stages"]["axioms"]
    header("axioms")
    lines += _render_checks(ax["checks"])
    if not ax["ok"]:
        lines.append("axioms FAILED; remaining stages skipped")
        return "\n".join(lines)

    def absent(block) -> bool:
        if isinstance(block, dict) and ("absent" in block or "error" in block):
            kind = block.get("absent", block.get("error"))
            lines.append(f"absent ({kind}): {block.get('reason', '')}")
            return True
        return False

    st = doc["stages"]["structure"]
    header("structure")
    if not absent(st):
        d = st["dims"]
        lines.append(
            f"dim A = {d['A']}   A^L = {d['A_L']}   A^R = {d['A_R']}   "
            f"Z^L = {d['Z_L']}   Z^R = {d['Z_R']}   hypercenter = {d['hypercenter']}"
        )
        flags = [k.replace("_", "-") for k, v in st["flags"].items() if v]
        lines.append("flags: " + (" ".join(flags) if flags else "none"))

    hr = doc["stages"]["haar"]
    header("haar")
    if not absent(hr):
        res = "  ".join(f"|{k}| = {v:.3e}" for k, v in hr["residuals"].items())
        lines.append(res)
        lines.append(
            f"criterion {hr['criterion']}   maschke {hr['maschke']}   state faithful {hr['state_faithful']}"
        )

    gl = doc["stages"]["grouplike"]
    header("grouplike")
    if not absent(gl):
        lines.append(f"distance to unit {gl['distance_to_unit']:.3e}")
        lines += _render_checks(gl["checks"])

    sec = doc["stages"]["sectors"]
    header("sectors")
    if not absent(sec):
        lines.append(f"{'q':>3s} {'n_q':>4s} {'d_q':>12s} {'q^L':>4s} {'q^R':>4s}")
        for s in sec["sectors"]:
            lines.append(
                f"{s['q']:>3d} {s['n_q']:>4d} {s['d_q']:>12.7f} {s['vacuum_left']:>4d} {s['vacuum_right']:>4d}"
            )
        lines.append("d_A = [" + ", ".join(f"{x:.7f}" for x in sec["d_vector"]) + "]")
        lines.append(f"delta = {sec['delta']:.7f}")

    idx = doc["stages"]["index"]
    header("index")

    def one_line(entry, prefix=""):
        haar = f"{entry['haar_index']:.7f}" if entry.get("haar_index") is not None else "non-scalar"
        lines.append(f"{prefix}delta = {entry['markov_index']:.7f} (Markov)   I = {haar} (Haar)")

    if not absent(idx):
        if "markov_index" in idx:
            one_line(idx)
        else:
            for comp in idx["components"]:
                if "markov_index" in comp:
                    one_line(comp, prefix=f"{comp['name']} (dim {comp['dim']}): ")
                else:
                    lines.append(f"{comp['name']}: dim {comp['dim']}  absent ({comp['absent']})")

    lines.append("")
    lines.append(f"elapsed {doc['timing'].get('total', 0.0):.3f}s")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    tol = Tolerance(args.tol, args.tol)
    w = _load(args.path, tol, validate=False)
    doc = analyze_wha(w, tol)
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    else:
        _emit(args, _render_analysis(doc))
    if not doc["ok"]:
        return EX_AXIOM
    return EX_STAGE if doc["failed"] else EX_OK


# ---------------------------------------------------------------------------
# generate / dualize


_GENERATORS = {
    "cyclic": (cyclic_wha, True),
    "symmetric": (symmetric_wha, True),
    "pair-groupoid": (pair_groupoid_wha, True),
    "function-cyclic": (lambda n: function_wha(cyclic_group(n)), True),
    "function-pair-groupoid": (lambda n: function_wha(pair_groupoid(n)), True),
    "sweedler-h4": (sweedler_h4, False),
    "m2-m3": (m2_m3, False),
}


def cmd_generate(args) -> int:
    maker, needs_n = _GENERATORS[args.kind]
    if needs_n and args.n is None:
        raise _CliError(EX_USAGE, f"generate {args.kind} requires a size argument")
    if not needs_n and args.n is not None:
        raise _CliError(EX_USAGE, f"generate {args.kind} takes no size argument")
    w = maker(args.n) if needs_n else maker()
    spec = f"{args.kind} {args.n}" if needs_n else args.kind
    _emit(args, whafile.dumps(w, provenance=f"whakit generate {spec}"))
    return EX_OK


def cmd_dualize(args) -> int:
    tol = Tolerance(args.tol, args.tol)
    w = _load(args.path, tol, validate=True)
    d = dual_wha(w)
    _emit(args, whafile.dumps(d, provenance=f"whakit dualize {args.path}"))
    return EX_OK


# ---------------------------------------------------------------------------
# crossprod


def cmd_crossprod(args) -> int:
    """Build a crossed product and report its structure, regularity and Galois map.

    ``expected_dim`` is dim M (x)_N M over the invariants N, the domain of the
    Galois map; it equals ``crossed_dim`` when the action is Galois.  Without a
    Haar integral there are no invariants N: ``galois_absent`` names that typed
    absence, and ``expected_dim``, ``galois_shape`` and ``galois_bijective`` are null.
    When M (x)_(A^L) A is 0-dimensional, as for the trivial action through a
    counit that is not multiplicative, ``crossed_absent`` names that typed
    absence, every field derived from the crossed product is null, the action's
    failing rows are reported, and the exit code is 2.  ``product_route`` names
    the route of :func:`~whakit.actions.crossed_product` that holds the product:
    "wedderburn" or "dense".
    """
    tol = Tolerance(args.tol, args.tol)
    crossed_absent = None
    if args.kind == "translation":
        try:
            n = int(args.arg)
        except ValueError:
            raise _CliError(EX_USAGE, "translation takes a group order, e.g. `crossprod translation 3`") from None
        action = arrow_action(cyclic_wha(n), tol)
        cp = crossed_product(action, tol)
    elif args.kind == "smash":
        w = _load(args.arg, tol, validate=True)
        cp = smash_product(w, tol)
        action = cp.action
    else:
        w = _load(args.arg, tol, validate=True)
        if args.kind == "dual-regular":
            action = dual_regular_action(w, tol)
        else:  # trivial
            one = FinDimAlgebra(
                np.ones((1, 1, 1)), np.array([1.0]), involution=np.eye(1), name="C"
            )
            action = trivial_action(w, one, tol)
        try:
            cp = crossed_product(action, tol)
        except EmptyQuotient as exc:
            cp, crossed_absent = None, {"absent": type(exc).__name__, "reason": str(exc)}

    checks = _check_rows(validate_action(action, tol))
    action_ok = all(r["passed"] for r in checks)
    sizes = reg = shape = bijective = absent = None
    if cp is not None:
        try:
            sizes = sorted(b.size for b in cp.algebra.block_decomposition(tol))
        except NotSemisimple:
            pass
        reg = is_regular(action, cp, tol)
        try:
            gal_mat, gal_bij = galois_map(action, tol)
            shape, bijective = list(gal_mat.shape), bool(gal_bij)
        except NotSemisimple as exc:
            absent = {"absent": type(exc).__name__, "reason": str(exc)}
    doc = {
        "report_version": REPORT_VERSION,
        "kind": args.kind,
        "module_dim": action.module.dim,
        "algebra_dim": action.wha.dim,
        "crossed_dim": None if cp is None else cp.dim,
        "product_route": None if cp is None else cp.route,
        "expected_dim": None if shape is None else shape[1],
        "semisimple": None if cp is None else sizes is not None,
        "block_sizes": sizes,
        "action_checks": checks,
        "action_ok": action_ok,
        "regular": None if reg is None else bool(reg.regular),
        "failing_clauses": [] if reg is None else reg.failing_clauses(),
        "galois_shape": shape,
        "galois_bijective": bijective,
    }
    if absent is not None:
        doc["galois_absent"] = absent
    if crossed_absent is not None:
        doc["crossed_absent"] = crossed_absent
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [f"{args.kind}: module dim {doc['module_dim']}, algebra dim {doc['algebra_dim']}"]
        if crossed_absent is not None:
            lines.append(f"crossed product absent ({crossed_absent['absent']}): {crossed_absent['reason']}")
        else:
            lines += [
                f"crossed product dim {doc['crossed_dim']} (M ⊗_N M: {'absent' if absent else doc['expected_dim']})",
                f"product route: {doc['product_route']}",
                f"blocks: {sizes if sizes is not None else 'not semisimple'}",
                f"regular: {doc['regular']}"
                + (f"  failing: {', '.join(doc['failing_clauses'])}" if doc["failing_clauses"] else ""),
                f"galois map absent ({absent['absent']}): {absent['reason']}" if absent else
                f"galois map {shape[0]}x{shape[1]}: " + ("bijective" if bijective else "not bijective"),
            ]
        lines += _render_checks(checks)
        _emit(args, "\n".join(lines))
    return EX_OK if action_ok and cp is not None else EX_AXIOM


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="whakit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, fmt=True):
        p.add_argument("--tol", type=float, default=1e-9, help="absolute and relative tolerance (default 1e-9)")
        if fmt:
            p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH instead of stdout")

    p = sub.add_parser("validate", help="check every axiom of a serialized algebra")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full pipeline: axioms, structure, Haar, grouplike, sectors, index")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a built-in example algebra")
    p.add_argument("kind", choices=sorted(_GENERATORS))
    p.add_argument("n", nargs="?", type=int, help="size parameter (for the family kinds)")
    common(p, fmt=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dualize", help="write the dual weak Hopf algebra of a file")
    p.add_argument("path")
    common(p, fmt=False)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("crossprod", help="build a crossed product and report its structure")
    p.add_argument("kind", choices=["translation", "dual-regular", "smash", "trivial"])
    p.add_argument("arg", help="group order for `translation`, otherwise a file path")
    common(p)
    p.set_defaults(func=cmd_crossprod)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"whakit: {exc.message}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        print(f"whakit: {exc}", file=sys.stderr)
        return EX_AXIOM
    except WhakitError as exc:
        print(f"whakit: {exc}", file=sys.stderr)
        return EX_STAGE


if __name__ == "__main__":
    raise SystemExit(main())
