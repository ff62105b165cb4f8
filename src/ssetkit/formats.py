"""Text formats.

sset/1 — objects and maps:

    sset/1
    object NAME
      dim D: name name ...
      faces NAME: ref ref ...      # one line per simplex of dim >= 1
    map NAME : SRC -> TGT
      gen -> ref                   # one line per nondegenerate simplex

A second faces line or image line for the same name, or a faces line for a
name that no dim line of its object declares, is a FormatError.

A ref is either `name` (nondegenerate) or `s[i,j,...]·name` with a strictly
decreasing degeneracy word.  Names match [A-Za-z0-9_.]+.  Blank lines and
`#` comments are ignored when parsing; the printer emits a canonical layout
(sections separated by one blank line, two-space indents) and
parse . print = id on it.

cellpres/1 — a cell presentation, followed by an embedded sset/1 section
defining the base, the generator sources (canonical names boundaryN /
hornN_K), the realized stages (stage1..stageK, verified against
recomputation), and the attaching maps:

    cellpres/1
    base NAME
    stage=1 gen=I n=0 attach=MAPNAME
    stage=2 gen=J n=2 k=1 attach=MAPNAME
    sset/1
    ...

soa/1 — a factorization report: a header echoing every cap and budget, then
the recorded presentation in cellpres/1.
"""

import re

from ssetkit.core import (
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    validate,
)
from ssetkit.cells import Attachment, CellPresentation
from ssetkit.lifting import generator

NAME_RE = r"[A-Za-z0-9_.]+"
_REF_RE = re.compile(rf"^(?:s\[(\d+(?:,\d+)*)\]·)?({NAME_RE})$")
_OBJECT_RE = re.compile(rf"^object ({NAME_RE})$")
_DIM_RE = re.compile(rf"^dim (\d+):((?: {NAME_RE})*)$")
_FACES_RE = re.compile(rf"^faces ({NAME_RE}):((?: \S+)+)$")
_MAP_RE = re.compile(rf"^map ({NAME_RE}) : ({NAME_RE}) -> ({NAME_RE})$")
_ARROW_RE = re.compile(rf"^({NAME_RE}) -> (\S+)$")
_BASE_RE = re.compile(rf"^base ({NAME_RE})$")
_STAGE_RE = re.compile(
    rf"^stage=(\d+) gen=(I|J) n=(\d+)(?: k=(\d+))? attach=({NAME_RE})$")


class FormatError(ValueError):
    """Ill-formed document; carries a 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_ref(text, line_no):
    m = _REF_RE.match(text)
    if not m:
        raise FormatError(line_no, f"bad simplex reference {text!r}")
    word = tuple(int(t) for t in m.group(1).split(",")) if m.group(1) else ()
    return SimplexRef(m.group(2), word)


def _print_ref(ref):
    if not ref.word:
        return ref.base
    return "s[" + ",".join(str(i) for i in ref.word) + "]·" + ref.base


class Document:
    """Parsed sset/1 content: named objects and named maps, in order.
    `map_endpoints` remembers the declared source/target names of each map,
    which matters when distinct names denote structurally equal objects."""

    def __init__(self):
        self.objects = {}
        self.maps = {}
        self.map_endpoints = {}

    def object(self, name, line_no=0):
        if name not in self.objects:
            raise FormatError(line_no, f"unknown object {name!r}")
        return self.objects[name]

    def map(self, name, line_no=0):
        if name not in self.maps:
            raise FormatError(line_no, f"unknown map {name!r}")
        return self.maps[name]

    def add_map(self, name, f, src_name, tgt_name):
        self.maps[name] = f
        self.map_endpoints[name] = (src_name, tgt_name)


def _strip(lines):
    for no, raw in lines:
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield no, line


def _parse_sset_lines(lines, doc):
    """Parse sset/1 body lines (header already consumed) into `doc`."""
    cur_obj = None      # (name, {dim: names}, {name: refs}, {name: line})
    cur_map = None      # (name, src, tgt, images)

    def close_obj():
        nonlocal cur_obj
        if cur_obj:
            name, dims, faces, faces_no = cur_obj
            declared = {n for names in dims.values() for n in names}
            for n, no in faces_no.items():
                if n not in declared:
                    raise FormatError(no, f"faces line for {n!r}, which no "
                                      f"dim line of object {name!r} declares")
                if n in dims.get(0, ()):
                    raise FormatError(no, f"faces line for {n!r}, a vertex "
                                      f"of object {name!r}")
            doc.objects[name] = FiniteSimplicialSet(dims, faces)
            cur_obj = None

    def close_map():
        nonlocal cur_map
        if cur_map:
            name, src_name, src, tgt_name, tgt, images, decl_no = cur_map
            missing = [n for n in src.names() if n not in images]
            if missing:
                raise FormatError(decl_no, f"map {name!r} lacks images for "
                                  + ", ".join(missing))
            doc.add_map(name, SimplicialMap(src, tgt, images),
                        src_name, tgt_name)
            cur_map = None

    for no, line in lines:
        indented = line.startswith("  ")
        body = line.strip()
        m = _OBJECT_RE.match(body)
        if m and not indented:
            close_obj()
            close_map()
            if m.group(1) in doc.objects:
                raise FormatError(no, f"duplicate object {m.group(1)!r}")
            cur_obj = (m.group(1), {}, {}, {})
            continue
        m = _MAP_RE.match(body)
        if m and not indented:
            close_obj()
            close_map()
            name, src, tgt = m.groups()
            if name in doc.maps:
                raise FormatError(no, f"duplicate map {name!r}")
            cur_map = (name, src, doc.object(src, no),
                       tgt, doc.object(tgt, no), {}, no)
            continue
        if indented and cur_obj:
            m = _DIM_RE.match(body)
            if m:
                d = int(m.group(1))
                if d in cur_obj[1]:
                    raise FormatError(no, f"duplicate dim {d} line")
                cur_obj[1][d] = m.group(2).split()
                continue
            m = _FACES_RE.match(body)
            if m:
                name = m.group(1)
                if name in cur_obj[2]:
                    raise FormatError(no, "duplicate faces line for "
                                      f"{name!r}")
                cur_obj[2][name] = [_parse_ref(t, no)
                                    for t in m.group(2).split()]
                cur_obj[3][name] = no
                continue
            raise FormatError(no, f"bad object line {body!r}")
        if indented and cur_map:
            m = _ARROW_RE.match(body)
            if m:
                gen = m.group(1)
                if not cur_map[2].has(gen):
                    raise FormatError(no, f"{gen!r} is not a simplex of the "
                                      "source object")
                if gen in cur_map[5]:
                    raise FormatError(no, f"duplicate image line for {gen!r}")
                cur_map[5][gen] = _parse_ref(m.group(2), no)
                continue
            raise FormatError(no, f"bad map line {body!r}")
        raise FormatError(no, f"unexpected line {body!r}")
    close_obj()
    close_map()
    return doc


def parse_document(text):
    """Parse a full sset/1 document."""
    lines = list(_strip(enumerate(text.splitlines(), start=1)))
    if not lines or lines[0][1] != "sset/1":
        raise FormatError(lines[0][0] if lines else 1,
                          "expected 'sset/1' header")
    return _parse_sset_lines(lines[1:], Document())


def _print_object(name, s, out):
    out.append(f"object {name}")
    for d in range(s.dim + 1):
        names = s.simplices(d)
        if names:
            out.append(f"  dim {d}: " + " ".join(names))
    for d in range(1, s.dim + 1):
        for n in s.simplices(d):
            out.append(f"  faces {n}: "
                       + " ".join(_print_ref(r) for r in s.faces_of(n)))


def _print_map(name, f, src_name, tgt_name, out):
    out.append(f"map {name} : {src_name} -> {tgt_name}")
    for n, ref in zip(f.source.names(), f.img):
        out.append(f"  {n} -> {_print_ref(ref)}")


def print_document(doc):
    """Canonical sset/1 text for a Document; objects then maps, in their
    recorded order."""
    out = ["sset/1"]
    doc_names = {}
    for name, s in doc.objects.items():
        out.append("")
        _print_object(name, s, out)
        doc_names.setdefault(s, name)
    for name, f in doc.maps.items():
        out.append("")
        endpoints = doc.map_endpoints.get(name)
        if endpoints is None:
            if f.source not in doc_names or f.target not in doc_names:
                raise ValueError(f"map {name!r} references an object missing "
                                 "from the document")
            endpoints = (doc_names[f.source], doc_names[f.target])
        _print_map(name, f, endpoints[0], endpoints[1], out)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cellpres/1

def _generator_name(kind, n, k):
    return f"boundary{n}" if kind == "I" else f"horn{n}_{k}"


def print_cellpres(pres):
    """Canonical cellpres/1 text: attachment lines, then an embedded sset/1
    section with the base, generator sources, realized stages (read from the
    realization the presentation carries), and attaching maps."""
    res = pres.realization
    out = ["cellpres/1", "base base"]
    doc = Document()
    doc.objects["base"] = pres.base
    stage_names = ["base"] + [f"stage{s}"
                              for s in range(1, len(pres.stages) + 1)]
    attach_entries = []
    for s, attachments in enumerate(pres.stages, start=1):
        for t, att in enumerate(attachments):
            gen_obj = _generator_name(att.kind, att.n, att.k)
            doc.objects.setdefault(gen_obj,
                                   generator(att.kind, att.n, att.k).source)
            map_name = f"attach{s}_{t}"
            attach_entries.append((s, att, map_name, gen_obj))
            k_part = f" k={att.k}" if att.kind == "J" else ""
            out.append(f"stage={s} gen={att.kind} n={att.n}{k_part} "
                       f"attach={map_name}")
    for s in range(1, len(pres.stages) + 1):
        doc.objects[stage_names[s]] = res.objects[s]
    for s, att, map_name, gen_obj in attach_entries:
        doc.add_map(map_name, att.attaching, gen_obj, stage_names[s - 1])
    return "\n".join(out) + "\n" + print_document(doc)


def parse_cellpres(text):
    """Parse cellpres/1 into a presentation, which carries the realization
    computed here, and the document.  The base is checked with `validate`,
    attaching maps with `map_errors` (by `Attachment`), and stage objects
    named stage1..stageK are verified against the recomputed realization."""
    lines = list(_strip(enumerate(text.splitlines(), start=1)))
    if not lines or lines[0][1] != "cellpres/1":
        raise FormatError(lines[0][0] if lines else 1,
                          "expected 'cellpres/1' header")
    base_name = None
    stage_lines = []
    idx = 1
    while idx < len(lines):
        no, line = lines[idx]
        if line == "sset/1":
            idx += 1
            break
        m = _BASE_RE.match(line)
        if m:
            if base_name is not None:
                raise FormatError(no, "duplicate base line")
            base_name, base_no = m.group(1), no
            idx += 1
            continue
        m = _STAGE_RE.match(line)
        if m:
            stage_lines.append((no, m.groups()))
            idx += 1
            continue
        raise FormatError(no, f"unexpected line {line!r}")
    else:
        raise FormatError(lines[-1][0], "missing embedded sset/1 section")
    if base_name is None:
        raise FormatError(1, "missing base line")
    doc = _parse_sset_lines(lines[idx:], Document())
    base = doc.object(base_name, 1)

    stages = []
    valid = {}
    for no, (s_txt, kind, n_txt, k_txt, map_name) in stage_lines:
        s = int(s_txt)
        if s != len(stages) and s != len(stages) + 1 or s == 0:
            raise FormatError(no, "stage numbers must be contiguous from 1")
        if s == len(stages) + 1:
            stages.append([])
        n = int(n_txt)
        k = int(k_txt) if k_txt is not None else None
        attaching = doc.map(map_name, no)
        # realize checks that the target is the stage attached to; Attachment
        # the label, the source and a simplicial map into a valid target
        target = attaching.target
        if target not in valid:
            valid[target] = validate(target).ok
        if not valid[target]:
            raise FormatError(no, f"map {map_name!r} lands in an invalid "
                              "object")
        try:
            stages[-1].append(Attachment(kind, n, k, attaching))
        except ValueError as exc:
            raise FormatError(no, str(exc).replace(
                "attachment: attaching map", f"map {map_name!r}")) from exc
    # an attaching map into the base has checked it already
    if base not in valid:
        report = validate(base)
        if not report.ok:
            raise FormatError(base_no, f"base {base_name!r} is not a valid "
                              "simplicial set: " + "; ".join(report.issues))

    pres = CellPresentation(base, tuple(tuple(st) for st in stages))
    try:
        res = pres.realization
    except ValueError as exc:
        raise FormatError(1, str(exc)) from exc
    for s in range(1, len(stages) + 1):
        declared = doc.objects.get(f"stage{s}")
        if declared is not None and declared != res.objects[s]:
            raise FormatError(1, f"declared stage{s} does not match the "
                              "recomputed realization")
    return pres, doc


# ---------------------------------------------------------------------------
# soa/1

def print_soa(result):
    """Factorization report: header echoing mode, generator family, cap,
    budget, stages run, residual count, and convergence, then the recorded
    presentation."""
    head = (f"mode={result.mode} gen={result.kind} cap={result.cap} "
            f"budget={result.budget} stages_run={result.stages_run} "
            f"residual={len(result.residual)} "
            f"converged={'yes' if result.converged else 'no'}")
    return "soa/1\n" + head + "\n" + print_cellpres(result.presentation)
