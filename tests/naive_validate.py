"""The two-walk `validate`, kept as the test oracle for `core.validate`.

`validate` is the earlier library code, unchanged: a structural pass
collects the simplices whose face lists are well formed, a second walk
over all dimensions derives from them the simplices whose iterated faces
are all intact, and only those are checked against the simplicial
identities.  It returns the library's `ValidationReport`.
"""

from ssetkit.core import ValidationReport, word_valid


def validate(s):
    """Check the simplicial-set invariants: duplicate-free simplex lists,
    well-formed face references, and the simplicial identity
    face_i . face_j = face_{j-1} . face_i for i < j."""
    issues = []
    seen = {}
    duplicated = set()
    for d in range(s.dim + 1):
        for name in s.simplices(d):
            if name in seen:
                issues.append(f"duplicate simplex name {name!r} "
                              f"(dims {seen[name]} and {d})")
                duplicated.add(name)
            seen[name] = d
    # a duplicated name has no one dimension and face list to check
    structurally_ok = set(s.simplices(0)) - duplicated
    for d in range(1, s.dim + 1):
        for name in s.simplices(d):
            refs = s._faces.get(name)
            if refs is None:
                issues.append(f"{name}: no face list")
                continue
            if len(refs) != d + 1:
                issues.append(f"{name}: expected {d + 1} faces, got {len(refs)}")
                continue
            ok = True
            for i, r in enumerate(refs):
                if not s.has(r.base):
                    issues.append(f"{name}: face {i} dangling reference "
                                  f"to {r.base!r}")
                    ok = False
                    continue
                if s.ref_dim(r) != d - 1:
                    issues.append(f"{name}: face {i} has dimension "
                                  f"{s.ref_dim(r)}, expected {d - 1}")
                    ok = False
                elif not word_valid(r.word, d - 1):
                    issues.append(f"{name}: face {i} degeneracy word "
                                  f"{r.word} is not in normal form")
                    ok = False
            if ok and name not in duplicated:
                structurally_ok.add(name)
    # identities are only evaluated where every iterated face is intact,
    # so the operator action below cannot hit missing structure
    hereditary = set(s.simplices(0)) - duplicated
    for d in range(1, s.dim + 1):
        for name in s.simplices(d):
            if name in structurally_ok and \
                    all(r.base in hereditary for r in s._faces[name]):
                hereditary.add(name)
    for d in range(2, s.dim + 1):
        for name in s.simplices(d):
            if name not in hereditary:
                continue
            refs = s._faces[name]
            for j in range(1, d + 1):
                for i in range(j):
                    lhs = s.face(refs[j], i)
                    rhs = s.face(refs[i], j - 1)
                    if lhs != rhs:
                        issues.append(
                            f"{name}: identity face_{i} face_{j} != "
                            f"face_{j - 1} face_{i} ({lhs} vs {rhs})")
    return ValidationReport(issues)
