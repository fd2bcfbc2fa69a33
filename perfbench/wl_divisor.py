"""Workload `divisor`: one op is one corner_locus followed by export_mesh.

Per ten ops: four principal g=2 Riemann thetas on reduced forms (seeded
signs), four on skewed forms (one shear that lengthens the off-diagonal
entry, so more cells meet the fundamental domain), and two ops on one
tropicalized level-2 basis theta at g=2.  Every theta is built from generated variety or period data
during set-up.  `geometry` does most of the work and uses `lattice` through
enumeration below a bound.  No g=3 theta: one g=3 corner_locus takes 10-25 s,
longer than half a run, so its op would make the run unsteady.

Checks: every skeleton-piece vertex evaluates to two or more witnesses,
every principal quotient has (betti0, betti1) = (1, 2), and the mesh bytes
are well formed and repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from common import Op, Workload, scalar_matrix
from wl_eval import level2_theta

# Per slot: the op kind and the form's shape (a, c) of [[a, b], [b, c]]
# (level 2: also the basis index).  Corner-locus cost follows the shape,
# the sign of b, the coordinate order and the basis index, and a run has
# only 20-35 ops to average over, so all of these are fixed per slot.  The
# seed picks the sign of b on the reduced forms, which moves their cost by
# under 10%.  Sorted by cost the ops are 40% reduced, 20% level 2 and 40%
# skewed: the median lands in the middle of the level-2 block, whose two
# slots hold the same theta so that the block is one op, and a run stays
# under 40 ops, where the tail rung would jump from p50 to p75.
SLOTS = (
    ("R", (2, 2)), ("S", (2, 2)), ("L", (2, 2), 1), ("R", (3, 3)), ("S", (3, 3)),
    ("R", (2, 3)), ("S", (2, 3)), ("L", (2, 2), 1), ("R", (3, 4)), ("S", (3, 4)),
)
KINDS = {"R": "reduced", "S": "skewed", "L": "level2"}


def skewed_form(shape) -> list[list[int]]:
    """U^T B U for B = [[a, 1], [1, c]] and U = [[1, 1], [0, 1]]."""
    a, c = shape
    return [[a, 1 + a], [1 + a, c + 2 + a]]


def build(tt, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    forms = []
    for slot, (kind, (a, c), *level) in enumerate(SLOTS):
        fmt = "json" if slot % 2 == 0 else "svg"
        if kind == "L":
            P, k = [[a, 1], [1, c]], level[0]
            theta, _ = level2_theta(tt, P, k)
            forms.append({"kind": KINDS[kind], "P": P, "basis_index": k, "format": fmt})
        else:
            b = rng.choice((-1, 1))
            P = [[a, b], [b, c]] if kind == "R" else skewed_form((a, c))
            doc = {"g": 2, "P": [[str(x) for x in r] for r in P], "Lambda": [list(r) for r in scalar_matrix(1, 2)]}
            theta = tt.riemann_theta(tt.TropicalPolarizationData.from_json_dict(json.loads(json.dumps(doc))))
            forms.append({"kind": KINDS[kind], "P": P, "format": fmt})

        def run(theta=theta, fmt=fmt):
            cx = tt.corner_locus(theta)
            return cx, tt.export_mesh(cx, fmt)

        ops.append(Op(kind=forms[-1]["kind"], run=run, info={"theta": theta, "format": fmt}))

    def check(op, out):
        cx, mesh = out
        theta = op.info["theta"]
        for piece in cx.skeleton:
            for vertex in piece.vertices:
                n = len(theta.evaluate(vertex).witnesses)
                if n < 2:
                    return f"skeleton vertex {tuple(map(str, vertex))} has {n} witness"
        if op.kind != "level2" and (cx.quotient.betti0, cx.quotient.betti1) != (1, 2):
            return f"principal g=2 quotient has betti {(cx.quotient.betti0, cx.quotient.betti1)}, not (1, 2)"
        if op.info["format"] == "json":
            if json.loads(mesh)["g"] != 2:
                return "mesh JSON does not describe a g=2 complex"
        elif b"<svg" not in mesh or not mesh.rstrip().endswith(b"</svg>"):
            return "SVG mesh is not one <svg> document"
        return None

    def fingerprint(op, out):
        cx, mesh = out
        return hashlib.sha256(mesh).hexdigest(), len(cx.cells), len(cx.skeleton)

    properties = {
        "g": 2,
        "mix": {name: sum(slot[0] == c for slot in SLOTS) / len(SLOTS) for c, name in KINDS.items()},
        "forms": forms,
        "g3_dropped": True,
    }
    return Workload(ops=ops, properties=properties, check=check, fingerprint=fingerprint)
