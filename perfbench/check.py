"""Independent checker for one ``decompose --json`` output.

Uses only the problem's recorded truth, exact fractions and sympy's sparse
polynomial rings; nothing from the program under test.  With u = Q x the
planted coordinates and x = P y the reported change of variables, the
inputs satisfy f_i(P y) = h_i(Q P y), so the reconstruction identity is
checked exactly against the sparse planted h_i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.rings import ring

from workloads import Problem, inverse, substitute

_TERM = re.compile(r"([+-]?)\s*([^+\-\s][^+\-]*)")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    separated: int = 0  # planted blocks that no leaf shares with another block


def parse_terms(text: str, names: list) -> dict:
    """{exponent tuple: Fraction} for text in the program's output grammar."""
    index = {name: i for i, name in enumerate(names)}
    out: dict = {}
    for sign, body in _TERM.findall(text):
        coeff = Fraction(1)
        exps = [0] * len(names)
        for factor in body.strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + (-coeff if sign == "-" else coeff)
    return out


def _leaves(node: dict, out: list) -> list:
    if not node["children"]:
        out.append(node)
    for child in node["children"]:
        _leaves(child, out)
    return out


def check(problem: Problem, doc: dict) -> Verdict:
    n = len(problem.var_names)
    if doc.get("version") != 1 or doc.get("tree") is None or doc.get("P") is None:
        return Verdict(False, "malformed document")
    if doc["center_dim"] != problem.center_dim:
        return Verdict(False, f"center_dim {doc['center_dim']} != reference {problem.center_dim}")
    p = [[Fraction(x) for x in row] for row in doc["P"]]
    if len(p) != n or any(len(row) != n for row in p) or inverse(p) is None:
        return Verdict(False, "P is not an invertible n x n matrix")
    leaves = _leaves(doc["tree"], [])
    covered = sorted(i for leaf in leaves for i in leaf["indices"])
    if covered != list(range(n)):
        return Verdict(False, "leaf variable blocks do not partition the variables")

    R, *ys = ring([f"y{i + 1}" for i in range(n)], QQ)
    # u = Q x = (Q P) y
    qp = [[sum(Fraction(q) * p[k][j] for k, q in enumerate(row)) for j in range(n)] for row in problem.Q]
    forms = [
        sum((QQ(c.numerator, c.denominator) * y for c, y in zip(row, ys) if c), R.zero)
        for row in qp
    ]
    is_root = doc["tree"]["children"] == []
    for i, h in enumerate(problem.unmixed):
        total = R.zero
        for leaf in leaves:
            idx = leaf["indices"]
            names = problem.var_names if is_root else [f"y{j + 1}" for j in idx]
            for mono, c in parse_terms(leaf["polys"][i], names).items():
                full = [0] * n
                for local, e in enumerate(mono):
                    full[idx[local]] = e
                total += R({tuple(full): QQ(c.numerator, c.denominator)})
        if total != substitute(h, forms):
            return Verdict(False, f"f{i + 1}(P y) differs from the sum of the leaves")

    # Leaf L uses the planted blocks whose coordinates appear in its
    # coordinates y_L written in the planted ones (rows L of (QP)^-1).  A
    # planted block is separated when every leaf that uses it uses it alone;
    # a leaf that uses two blocks is a missed split.
    qp_inv = inverse(qp)
    block_of = {u: b for b, block in enumerate(problem.planted) for u in block}
    merged: set = set()
    for leaf in leaves:
        used = {block_of[u] for j in leaf["indices"] for u in range(n) if qp_inv[j][u]}
        if len(used) > 1:
            merged |= used
    return Verdict(True, separated=len(problem.planted) - len(merged))
