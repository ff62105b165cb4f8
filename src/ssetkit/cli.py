"""Command-line interface.

Exit codes: 0 for success or a passing check, 1 for a well-formed negative
outcome (no lift, failed certificate, unsolved squares, nonempty residual),
2 for unreadable or ill-formed input.  Reports are byte-identical across
runs on identical inputs; every cap and budget in play is echoed.
"""

import argparse
import functools
import sys

from ssetkit import core
from ssetkit.cells import factor_through_stage, j_to_i_presentation
from ssetkit.colimits import pushout
from ssetkit.factorization import factorize, induced_factorization_map
from ssetkit.formats import (
    Document,
    FormatError,
    parse_cellpres,
    parse_document,
    print_cellpres,
    print_document,
    print_soa,
)
from ssetkit.homology import homology_groups, weak_equivalence_certificate
from ssetkit.lifting import Lift, LiftingProblem, check_rlp, solve_lift


class InputError(Exception):
    """Problem with the invocation or its input files; exit code 2."""


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _load_document(path):
    try:
        return parse_document(_read(path))
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_cellpres(path):
    """The presentation, which carries its realization, and its document."""
    try:
        return parse_cellpres(_read(path))
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _get_object(doc, name):
    if name not in doc.objects:
        raise InputError(f"unknown object {name!r}")
    return doc.objects[name]


def _get_map(doc, name):
    if name not in doc.maps:
        raise InputError(f"unknown map {name!r}")
    return doc.maps[name]


def _require_valid(doc, names):
    for name in names:
        report = core.validate(doc.objects[name])
        if not report.ok:
            raise InputError(f"object {name!r} is invalid:\n{report}")


def _require_map(doc, name):
    f = _get_map(doc, name)
    for obj_name, obj in doc.objects.items():
        if obj in (f.source, f.target):
            _require_valid(doc, [obj_name])
    errors = core.map_errors(f)
    if errors:
        raise InputError(f"map {name!r} is not simplicial:\n"
                         + "\n".join(errors))
    return f


def _doc_name(doc, obj):
    for name, candidate in doc.objects.items():
        if candidate == obj:
            return name
    return None


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args):
    doc = _load_document(args.file)
    names = [args.object] if args.object else list(doc.objects)
    if args.object and args.object not in doc.objects:
        raise InputError(f"unknown object {args.object!r}")
    out = []
    bad = 0
    for name in names:
        report = core.validate(doc.objects[name])
        if report.ok:
            out.append(f"object {name}: valid "
                       f"({doc.objects[name].size()} simplices)")
        else:
            bad += 1
            out.append(f"object {name}: INVALID")
            out.extend("  " + line for line in report.issues)
    return (1 if bad else 0), "\n".join(out) + "\n"


def _cmd_hom(args):
    doc = _load_document(args.file)
    a = _get_object(doc, args.source)
    x = _get_object(doc, args.target)
    _require_valid(doc, [args.source, args.target])
    maps = core.enumerate_maps(a, x)
    out = [f"hom {args.source} -> {args.target}: {len(maps)} maps"]
    if not args.count:
        report = Document()
        report.objects[args.source] = a
        report.objects[args.target] = x
        for idx, f in enumerate(maps):
            report.add_map(f"hom{idx}", f, args.source, args.target)
        out.append("")
        out.append(print_document(report).rstrip("\n"))
    return 0, "\n".join(out) + "\n"


def _cmd_pushout(args):
    doc = _load_document(args.file)
    i = _require_map(doc, args.i)
    g = _require_map(doc, args.g)
    if i.source != g.source:
        raise InputError("the two maps must share a source")
    p = pushout(i, g)
    out = [f"pushout: corner has {p.corner.size()} simplices"]
    for name in p.corner.names():
        out.append(f"provenance {name}: {p.origin(name)}")
    report = Document()
    b_name = _doc_name(doc, i.target) or "b"
    c_name = _doc_name(doc, g.target) or "c"
    report.objects[b_name] = i.target
    report.objects[c_name] = g.target
    corner = "corner"
    while corner in report.objects:     # an input object's name
        corner += "_"
    report.objects[corner] = p.corner
    report.add_map("leg_b", p.leg_from_b, b_name, corner)
    report.add_map("leg_c", p.leg_from_c, c_name, corner)
    out.append("")
    out.append(print_document(report).rstrip("\n"))
    return 0, "\n".join(out) + "\n"


def _square_from_args(doc, args):
    left = _require_map(doc, args.left)
    right = _require_map(doc, args.right)
    top = _require_map(doc, args.top)
    bottom = _require_map(doc, args.bottom)
    try:
        return LiftingProblem(left, right, top, bottom)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_lift(args):
    doc = _load_document(args.file)
    problem = _square_from_args(doc, args)
    found = solve_lift(problem)
    if isinstance(found, Lift):
        report = Document()
        b_name = _doc_name(doc, problem.left.target) or "b"
        x_name = _doc_name(doc, problem.right.source) or "x"
        report.objects[b_name] = problem.left.target
        report.objects[x_name] = problem.right.source
        report.add_map("diagonal", found.diagonal, b_name, x_name)
        return 0, ("lift: found\n\n" + print_document(report))
    return 1, f"lift: none refuted={found.refuted}\n"


def _cmd_rlp(args):
    doc = _load_document(args.file)
    f = _require_map(doc, args.map)
    report = check_rlp(f, args.gen, args.cap)
    verdict = "pass" if report.passed else "fail"
    out = [f"rlp map={args.map} gen={args.gen} cap={args.cap}: {verdict}"]
    out.extend(report.lines())
    return (0 if report.passed else 1), "\n".join(out) + "\n"


def _cmd_realize(args):
    pres, _ = _load_cellpres(args.file)
    res = pres.realization
    out = [f"realize: stages={len(pres.stages)} "
           f"cells={pres.attachment_count()} "
           f"final_size={res.final.size()}"]
    for name in res.final.names():
        out.append(f"birth {name}={res.record.birth[name]}")
    report = Document()
    report.objects["final"] = res.final
    out.append("")
    out.append(print_document(report).rstrip("\n"))
    return 0, "\n".join(out) + "\n"


def _cmd_factor_stage(args):
    pres, doc = _load_cellpres(args.file)
    res = pres.realization
    m = _require_map(doc, args.map)
    if m.target != res.final:
        raise InputError(f"map {args.map!r} does not land in the final stage")
    k, factored = factor_through_stage(res, m)
    report = Document()
    src_name = _doc_name(doc, m.source) or "k"
    report.objects[src_name] = m.source
    stage_name = _doc_name(doc, factored.target) or f"stage{k}"
    report.objects[stage_name] = factored.target
    report.add_map("factored", factored, src_name, stage_name)
    return 0, (f"factor-stage: k={k}\n\n" + print_document(report))


def _cmd_j2i(args):
    pres, _ = _load_cellpres(args.file)
    try:
        converted, _iso = j_to_i_presentation(pres)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = [f"j2i: attachments {pres.attachment_count()} -> "
           f"{converted.attachment_count()}, isomorphism verified", ""]
    return 0, "\n".join(out) + print_cellpres(converted)


def _cmd_factorize(args):
    doc = _load_document(args.file)
    f = _require_map(doc, args.map)
    result = factorize(f, args.gen, cap=args.cap, mode=args.mode,
                       budget=args.budget)
    return (0 if not result.residual else 1), print_soa(result)


def _cmd_functorial(args):
    doc = _load_document(args.file)
    f = _require_map(doc, args.map)
    f2 = _require_map(doc, args.map2)
    u = _require_map(doc, args.top)
    v = _require_map(doc, args.bottom)
    if (u.source, u.target, v.source, v.target) != \
            (f.source, f2.source, f.target, f2.target):
        raise InputError("the square (top, bottom) does not fit the two "
                         "maps")
    if core.compose(v, f) != core.compose(f2, u):
        raise InputError("the square (top, bottom) does not commute with the "
                         "two maps")
    r = factorize(f, args.gen, cap=args.cap, mode="faithful",
                  budget=args.budget)
    r2 = factorize(f2, args.gen, cap=args.cap, mode="faithful",
                   budget=args.budget)
    maps = induced_factorization_map(u, v, r, r2)
    out = [f"functorial: gen={args.gen} cap={args.cap} budget={args.budget} "
           f"stages={len(maps) - 1}"]
    report = Document()
    for k, h in enumerate(maps):
        report.objects[f"a{k}"] = h.source
        report.objects[f"b{k}"] = h.target
    for k, h in enumerate(maps):
        report.add_map(f"h{k}", h, f"a{k}", f"b{k}")
    out.append("")
    out.append(print_document(report).rstrip("\n"))
    return 0, "\n".join(out) + "\n"


def _cmd_homology(args):
    doc = _load_document(args.file)
    s = _get_object(doc, args.object)
    _require_valid(doc, [args.object])
    groups = homology_groups(s, args.maxdim)
    out = [f"homology object={args.object} maxdim={args.maxdim}"]
    out.extend(f"H{d} = {g}" for d, g in enumerate(groups))
    return 0, "\n".join(out) + "\n"


def _cmd_we_cert(args):
    doc = _load_document(args.file)
    f = _require_map(doc, args.map)
    cert = weak_equivalence_certificate(f, args.maxdim)
    return (0 if cert.passed else 1), cert.line() + "\n"


# ---------------------------------------------------------------------------

def _count(text):
    """A nonnegative integer flag value; anything else is a usage error,
    exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, and no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="ssetkit",
        description="finite simplicial sets: colimits, lifting, cell "
                    "presentations, factorizations, homology certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="input document")
        p.add_argument("--out", help="write the report to a file instead of "
                                     "standard output")
        return p

    p = add("validate", _cmd_validate, "check simplicial-set invariants")
    p.add_argument("--object", help="check one object only")

    p = add("hom", _cmd_hom, "enumerate all simplicial maps")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--count", action="store_true", help="print the count only")

    p = add("pushout", _cmd_pushout, "pushout of --i along --g")
    p.add_argument("--i", required=True, help="map A -> B")
    p.add_argument("--g", required=True, help="map A -> C")

    p = add("lift", _cmd_lift, "solve a lifting problem")
    for flag in ("--left", "--right", "--top", "--bottom"):
        p.add_argument(flag, required=True)

    p = add("rlp", _cmd_rlp, "right lifting property against a generator "
                             "family")
    p.add_argument("--map", required=True)
    p.add_argument("--gen", required=True, choices=["I", "J"])
    p.add_argument("--cap", type=_count, default=3)

    add("realize", _cmd_realize, "realize a cell presentation")

    p = add("factor-stage", _cmd_factor_stage,
            "factor a map through the earliest stage")
    p.add_argument("--map", required=True)

    add("j2i", _cmd_j2i, "convert a horn presentation to a boundary "
                         "presentation")

    p = add("factorize", _cmd_factorize, "staged factorization of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--gen", required=True, choices=["I", "J"])
    p.add_argument("--cap", type=_count, default=3)
    p.add_argument("--mode", choices=["faithful", "reduced"],
                   default="reduced")
    p.add_argument("--budget", type=_count, default=5)

    p = add("functorial", _cmd_functorial,
            "stagewise maps between two faithful factorizations")
    p.add_argument("--map", required=True)
    p.add_argument("--map2", required=True)
    p.add_argument("--top", required=True, help="map between the sources")
    p.add_argument("--bottom", required=True, help="map between the targets")
    p.add_argument("--gen", required=True, choices=["I", "J"])
    p.add_argument("--cap", type=_count, default=3)
    p.add_argument("--budget", type=_count, default=2)

    p = add("homology", _cmd_homology, "integer homology groups")
    p.add_argument("--object", required=True)
    p.add_argument("--maxdim", type=_count, default=3)

    p = add("we-cert", _cmd_we_cert, "weak-equivalence necessary-condition "
                                     "certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--maxdim", type=_count, default=3)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
