"""The hard instances' semantics, one point at a time: the tests' reference.

``setfam.hardness`` states each instance's rule once, as its vector
``batch``, and term satisfaction once, as ``_unique_terms``.  These scalar
evaluators state the same rules again with Python ints and one term at a
time, sharing with ``batch`` only the action-region rule
``_action_region``, so the tests can compare ``batch`` (and
``_unique_terms``) against a statement that does not share its code.
"""

from __future__ import annotations

import math

from setfam.hardness import IntersectInstance, TalagrandDnf, UcInstance, _action_region


def sat_terms(dnf: TalagrandDnf, x: int) -> list[int]:
    """Indices of terms whose coordinates all lie in supp(x)."""
    return [i for i, t in enumerate(dnf.terms) if x & t == t]


def sat_count(dnf: TalagrandDnf, x: int) -> int:
    return sum(1 for t in dnf.terms if x & t == t)


def dnf_value(dnf: TalagrandDnf, x: int) -> int:
    """The DNF at x: 1 when some term is satisfied."""
    return 1 if any(x & t == t for t in dnf.terms) else 0


def unique_term(x: int, terms: tuple[int, ...]) -> int:
    """Index of the one term mask that x satisfies; -1 if none, -2 if several."""
    found = -1
    for i, t in enumerate(terms):
        if x & t == t:
            if found != -1:
                return -2
            found = i
    return found


def int_value(inst: IntersectInstance, u: int) -> int:
    n = inst.n
    x = u & ((1 << n) - 1)
    y1 = (u >> n) & 1
    y2 = (u >> (n + 1)) & 1
    if y1 == y2:
        return 0
    if inst.kind == "one_sided_no":
        return one_sided_value(inst, x)
    control_view = x if y1 == 0 else x ^ ((1 << n) - 1)
    ell = unique_term(control_view, inst.term_masks)
    if ell < 0:
        return 0
    region = _action_region((x & inst.action_mask).bit_count(), inst.a)
    bl = inst.b[ell]
    if inst.kind == "yes":
        # satisfied only on the (0,1) side when b=1 / the (1,0) side when
        # b=0, and there only outside the middle action band
        active = bl == 1 if y1 == 0 else bl == 0
        return 1 if active and region != 0 else 0
    # "no": value is carried by the top region when b=0, bottom when b=1,
    # identically on both selector sides
    want = 1 if bl == 0 else -1
    return 1 if region == want else 0


def one_sided_value(inst: IntersectInstance, x: int) -> int:
    n = inst.n
    k2 = n * math.log(1.0 / inst.eps)  # K^2
    d = 2 * x.bit_count() - n
    if d * d > 400.0 * k2:  # | |x| - n/2 | > 10K
        return 0
    e = n - 200 * (x & inst.action_mask).bit_count()
    if e > 0 and e * e > 40000.0 * k2:  # |x_A| < n/200 - K
        return 1
    return 0


def uc_value(inst: UcInstance, x: int) -> int:
    ell = unique_term(x, inst.term_masks)
    if ell < 0:
        return 1 if ell == -2 else 0
    xa = x & inst.action_mask
    if inst.kind == "yes":
        return 1 if xa == inst.s[ell] else 0
    if inst.b[ell] == 0:
        return 0
    return 1 if xa == inst.r[ell] or xa == inst.r[ell] ^ inst.action_mask else 0


def value(inst: IntersectInstance | UcInstance, u: int) -> int:
    """The instance's value at the point u."""
    if isinstance(inst, IntersectInstance):
        return int_value(inst, u)
    return uc_value(inst, u)
