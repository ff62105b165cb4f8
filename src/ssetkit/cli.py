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
from ssetkit.homology import (
    MAXDIM_LIMIT,
    homology_groups,
    weak_equivalence_certificate,
)
from ssetkit.lifting import Lift, LiftingProblem, check_rlp, solve_lift


class InputError(Exception):
    """Problem with the invocation or its input files; exit code 2."""


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc


def _load(path, parse=parse_document):
    """The file read by `parse`: a Document, or for `parse_cellpres` the
    presentation, which carries its realization, and its document."""
    try:
        return parse(_read(path))
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _get(table, kind, name):
    if name not in table:
        raise InputError(f"unknown {kind} {name!r}")
    return table[name]


def _require_valid(doc, names, checked):
    """Validate, in order, the named objects not yet in the set `checked`."""
    for name in names:
        obj = doc.objects[name]
        if obj not in checked:
            checked.add(obj)
            report = core.validate(obj)
            if not report.ok:
                raise InputError(f"object {name!r} is invalid:\n{report}")


def _require_maps(doc, *names):
    """The named maps, in order, each simplicial between valid objects."""
    checked, maps = set(), []
    for name in names:
        f = _get(doc.maps, "map", name)
        endpoints = doc.map_endpoints[name]
        _require_valid(doc, [obj_name for obj_name in doc.objects
                             if obj_name in endpoints], checked)
        errors = core.map_errors(f)
        if errors:
            raise InputError(f"map {name!r} is not simplicial:\n"
                             + "\n".join(errors))
        maps.append(f)
    return maps


def _doc_name(doc, obj):
    """The name of this very object: a parsed map holds the objects its
    declaration names, and objects equal to them may have other names."""
    for name, candidate in doc.objects.items():
        if candidate is obj:
            return name
    return None


def _report(head, objects, maps=()):
    """The head lines, a blank line, then an sset/1 section of `objects`
    (name to object, in order) and `maps`, each (name, map, source name,
    target name)."""
    doc = Document()
    doc.objects.update(objects)
    for entry in maps:
        doc.add_map(*entry)
    return "\n".join(head) + "\n\n" + print_document(doc)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_validate(args):
    doc = _load(args.file)
    names = [args.object] if args.object else list(doc.objects)
    out = []
    bad = 0
    for name in names:
        obj = _get(doc.objects, "object", name)
        report = core.validate(obj)
        if report.ok:
            out.append(f"object {name}: valid ({obj.size()} simplices)")
        else:
            bad += 1
            out.append(f"object {name}: INVALID")
            out.extend("  " + line for line in report.issues)
    return (1 if bad else 0), "\n".join(out) + "\n"


def _cmd_hom(args):
    doc = _load(args.file)
    a = _get(doc.objects, "object", args.source)
    x = _get(doc.objects, "object", args.target)
    _require_valid(doc, [args.source, args.target], set())
    maps = core.enumerate_maps(a, x)
    head = f"hom {args.source} -> {args.target}: {len(maps)} maps"
    if args.count:
        return 0, head + "\n"
    return 0, _report([head], {args.source: a, args.target: x},
                      [(f"hom{idx}", f, args.source, args.target)
                       for idx, f in enumerate(maps)])


def _cmd_pushout(args):
    doc = _load(args.file)
    i, g = _require_maps(doc, args.i, args.g)
    if i.source != g.source:
        raise InputError("the two maps must share a source")
    p = pushout(i, g)
    head = [f"pushout: corner has {p.corner.size()} simplices"]
    for name in p.corner.names():
        head.append(f"provenance {name}: {p.origin(name)}")
    b_name = _doc_name(doc, i.target)
    c_name = _doc_name(doc, g.target)
    objects = {b_name: i.target, c_name: g.target}
    corner = "corner"
    while corner in objects:     # an input object's name
        corner += "_"
    objects[corner] = p.corner
    return 0, _report(head, objects, [("leg_b", p.leg_from_b, b_name, corner),
                                      ("leg_c", p.leg_from_c, c_name, corner)])


def _square_from_args(doc, args):
    maps = _require_maps(doc, args.left, args.right, args.top, args.bottom)
    try:
        return LiftingProblem(*maps)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_lift(args):
    doc = _load(args.file)
    problem = _square_from_args(doc, args)
    found = solve_lift(problem)
    if isinstance(found, Lift):
        b_name = _doc_name(doc, problem.left.target)
        x_name = _doc_name(doc, problem.right.source)
        return 0, _report(["lift: found"], {b_name: problem.left.target,
                                            x_name: problem.right.source},
                          [("diagonal", found.diagonal, b_name, x_name)])
    return 1, f"lift: none refuted={found.refuted}\n"


def _cmd_rlp(args):
    doc = _load(args.file)
    [f] = _require_maps(doc, args.map)
    report = check_rlp(f, args.gen, args.cap)
    verdict = "pass" if report.passed else "fail"
    out = [f"rlp map={args.map} gen={args.gen} cap={args.cap}: {verdict}"]
    out.extend(report.lines())
    return (0 if report.passed else 1), "\n".join(out) + "\n"


def _cmd_realize(args):
    pres, _ = _load(args.file, parse_cellpres)
    res = pres.realization
    head = [f"realize: stages={len(pres.stages)} "
            f"cells={pres.attachment_count()} "
            f"final_size={res.final.size()}"]
    for name in res.final.names():
        head.append(f"birth {name}={res.birth[name]}")
    return 0, _report(head, {"final": res.final})


def _cmd_factor_stage(args):
    pres, doc = _load(args.file, parse_cellpres)
    res = pres.realization
    [m] = _require_maps(doc, args.map)
    if m.target != res.final:
        raise InputError(f"map {args.map!r} does not land in the final stage")
    k, factored = factor_through_stage(res, m)
    src_name = _doc_name(doc, m.source)
    stage_name = _doc_name(doc, factored.target) or f"stage{k}"
    return 0, _report([f"factor-stage: k={k}"],
                      {src_name: m.source, stage_name: factored.target},
                      [("factored", factored, src_name, stage_name)])


def _cmd_j2i(args):
    pres, _ = _load(args.file, parse_cellpres)
    try:
        converted, _iso = j_to_i_presentation(pres)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = [f"j2i: attachments {pres.attachment_count()} -> "
           f"{converted.attachment_count()}, isomorphism verified", ""]
    return 0, "\n".join(out) + print_cellpres(converted)


def _cmd_factorize(args):
    doc = _load(args.file)
    [f] = _require_maps(doc, args.map)
    result = factorize(f, args.gen, cap=args.cap, mode=args.mode,
                       budget=args.budget)
    return (0 if not result.residual else 1), print_soa(result)


def _cmd_functorial(args):
    doc = _load(args.file)
    f, f2, u, v = _require_maps(doc, args.map, args.map2, args.top,
                                args.bottom)
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
    head = [f"functorial: gen={args.gen} cap={args.cap} budget={args.budget} "
            f"stages={len(maps) - 1}"]
    objects = {}
    for k, h in enumerate(maps):
        objects[f"a{k}"] = h.source
        objects[f"b{k}"] = h.target
    return 0, _report(head, objects, [(f"h{k}", h, f"a{k}", f"b{k}")
                                      for k, h in enumerate(maps)])


def _cmd_homology(args):
    doc = _load(args.file)
    s = _get(doc.objects, "object", args.object)
    _require_valid(doc, [args.object], set())
    groups = homology_groups(s, args.maxdim)
    out = [f"homology object={args.object} maxdim={args.maxdim}"]
    out.extend(f"H{d} = {g}" for d, g in enumerate(groups))
    return 0, "\n".join(out) + "\n"


def _cmd_we_cert(args):
    doc = _load(args.file)
    [f] = _require_maps(doc, args.map)
    cert = weak_equivalence_certificate(f, args.maxdim)
    return (0 if cert.passed else 1), cert.line() + "\n"


# ---------------------------------------------------------------------------

def _count(text, limit=None):
    """A nonnegative integer flag value, at most `limit` when one is given;
    anything else is a usage error, exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    if limit is not None and value > limit:
        raise argparse.ArgumentTypeError(
            f"expected at most {limit}, got {text!r}")
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
    maxdim = functools.partial(_count, limit=MAXDIM_LIMIT)

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
    p.add_argument("--maxdim", type=maxdim, default=3)

    p = add("we-cert", _cmd_we_cert, "weak-equivalence necessary-condition "
                                     "certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--maxdim", type=maxdim, default=3)
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            sys.stderr.write(f"error: {args.out}: {exc.strerror or exc}\n")
            return 2
    else:
        sys.stdout.write(report)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
