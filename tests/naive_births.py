"""The sequential colimit that composes every tail chain, kept as the test
oracle for the birth indices of `colimits.sequential_colimit`.

`sequential_colimit` is the earlier library code, unchanged: for each stage
k it composes the inclusions from X_k to the final object and writes k as
the birth of every image, so a chain of m inclusions costs O(m^2)
composites.  It returns the library's `StageRecord`.
"""

from ssetkit.colimits import StageRecord
from ssetkit.core import compose, identity


def sequential_colimit(inclusions, base=None):
    """Chain a list of stage inclusions into a StageRecord.  Every map must
    be injective on nondegenerate simplices with nondegenerate images (the
    combinatorial meaning of an inclusion); violations name the stage."""
    if not inclusions:
        if base is None:
            raise ValueError("sequential_colimit: need at least a base object")
        objects = [base]
    else:
        objects = [inclusions[0].source]
        for k, inc in enumerate(inclusions):
            if inc.source != objects[-1]:
                raise ValueError(f"sequential_colimit: stage {k} source does "
                                 "not match previous target")
            seen = set()
            for n in inc.source.names():
                img = inc.images[n]
                if img.word:
                    raise ValueError(f"sequential_colimit: stage {k} map "
                                     f"sends {n} to a degenerate simplex")
                if img.base in seen:
                    raise ValueError(f"sequential_colimit: stage {k} map is "
                                     "not injective on nondegenerate simplices")
                seen.add(img.base)
            objects.append(inc.target)

    final = objects[-1]
    birth = {n: len(objects) - 1 for n in final.names()}
    for k in range(len(objects) - 2, -1, -1):
        comp = identity(objects[k])
        for inc in inclusions[k:]:
            comp = compose(inc, comp)
        for n in objects[k].names():
            birth[comp.images[n].base] = k
    return StageRecord(objects, inclusions, birth)
