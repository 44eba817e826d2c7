"""Catalog of walk families shared by the enumeration oracle and the engine.

The coefficient n_{k,m} is a sum over pairs of closed walks (a "gray" walk of
length k and a "blue" walk of length m) whose combined skeleton is a tree and
which share at least one edge.  The recurrence that computes n_{k,m} without
enumeration peels such a pair apart at the gray walk's root, which requires
bookkeeping for several conditioned sub-sums.  Each sub-sum is a *family*:
a set of walk pairs selected by structural predicates, together with a key
recording the parameters the recurrence conditions on.

Both the oracle (which evaluates a family by counting its walk pairs by tree
class) and the engine (which evaluates it by recursion) address families
through the keys defined here, so the two routes cannot drift apart on what a
family means.

Key fields
----------
``component``    part (1 or 2) containing the gray walk's root r.
``l_g, l_b``     half-lengths of the gray and blue walks.
``r_g, r_b``     number of gray / blue steps departing from r.

Tags
----
For walks with at least one gray edge, let v be the far end of the first gray
edge (r, v).  Removing (r, v) from the tree skeleton splits it into an "upper"
part containing v and a "lower" part containing r.

=================  ==========================================================
``TOP``            essential pairs: tree skeleton, shared edge, any roots;
                   key is (l_g, l_b) only.  n_{k,m} = TOP(k/2, m/2).
``S1``             single closed walk with tree skeleton; key (component,
                   l, r) stored in the gray slots.  The site slot EQ_ANYC at
                   (component, l, 0, r, 0).
``S1S``            gray walk empty at r; blue walk rooted elsewhere but
                   visiting r; key (component, l, r) describes the blue walk.
                   The site slot NEQ_ANYC_SN at (component, 0, l, 0, r).
``EQ_C``           roots equal, at least one shared edge.
``EQ_C_G``         EQ_C and blue does not use (r, v).
``EQ_C_R``         EQ_C and blue uses (r, v).
``EQ_ANYC``        roots equal, shared-edge count unconstrained.
``NEQ_C``          roots distinct, at least one shared edge.
``NEQ_C_G``        NEQ_C and blue does not use (r, v).
``NEQ_C_GU``       NEQ_C_G and blue root in the upper part.
``NEQ_C_GD``       NEQ_C_G and blue root in the lower part.
``NEQ_C_R``        NEQ_C and blue uses (r, v).
``NEQ_C_RU``       NEQ_C_R and blue root in the upper part.
``NEQ_C_RD``       NEQ_C_R and blue root in the lower part.
``NEQ_ANYC_S``     roots distinct, blue visits r, shared count unconstrained.
``NEQ_ANYC_SGD``   NEQ_ANYC_S, gray nonempty, blue does not use (r, v).
``NEQ_ANYC_SN``    NEQ_ANYC_S with empty gray walk.
=================  ==========================================================

``S1`` and ``S1S`` keys use ``l_g``/``r_g`` to carry their single pair
(l, r); ``l_b``/``r_b`` are None.  ``TOP`` carries only the half-lengths.
Each single key names the same value as one double key, which ``site_key``
gives.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

TOP = "TOP"
S1 = "S1"
S1S = "S1S"
EQ_C = "EQ_C"
EQ_C_G = "EQ_C_G"
EQ_C_R = "EQ_C_R"
EQ_ANYC = "EQ_ANYC"
NEQ_C = "NEQ_C"
NEQ_C_G = "NEQ_C_G"
NEQ_C_GU = "NEQ_C_GU"
NEQ_C_GD = "NEQ_C_GD"
NEQ_C_R = "NEQ_C_R"
NEQ_C_RU = "NEQ_C_RU"
NEQ_C_RD = "NEQ_C_RD"
NEQ_ANYC_S = "NEQ_ANYC_S"
NEQ_ANYC_SGD = "NEQ_ANYC_SGD"
NEQ_ANYC_SN = "NEQ_ANYC_SN"

SINGLE_TAGS = frozenset({S1, S1S})
DOUBLE_TAGS = frozenset(
    {
        EQ_C,
        EQ_C_G,
        EQ_C_R,
        EQ_ANYC,
        NEQ_C,
        NEQ_C_G,
        NEQ_C_GU,
        NEQ_C_GD,
        NEQ_C_R,
        NEQ_C_RU,
        NEQ_C_RD,
        NEQ_ANYC_S,
        NEQ_ANYC_SGD,
        NEQ_ANYC_SN,
    }
)
ALL_TAGS = frozenset({TOP}) | SINGLE_TAGS | DOUBLE_TAGS


class UnknownFamilyError(ValueError):
    pass


class FamilyKey(NamedTuple):
    """Address of one family value; hashable.  The engine's memo is keyed by
    sites (component, l_g, l_b, r_g, r_b), and ``site_key`` maps a single key
    onto the double key of the same value."""

    tag: str
    component: Optional[int]
    l_g: int
    l_b: Optional[int]
    r_g: Optional[int]
    r_b: Optional[int]


def top_key(l_g: int, l_b: int) -> FamilyKey:
    return FamilyKey(TOP, None, l_g, l_b, None, None)


def single_key(tag: str, component: int, l: int, r: int) -> FamilyKey:
    if tag not in SINGLE_TAGS:
        raise UnknownFamilyError(f"{tag!r} is not a single-walk family tag")
    return FamilyKey(tag, component, l, None, r, None)


def double_key(tag: str, component: int, l_g: int, l_b: int, r_g: int, r_b: int) -> FamilyKey:
    if tag not in DOUBLE_TAGS:
        raise UnknownFamilyError(f"{tag!r} is not a double-walk family tag")
    return FamilyKey(tag, component, l_g, l_b, r_g, r_b)


def site_key(key: FamilyKey) -> FamilyKey:
    """The double key of the same value as ``key``, a key other than TOP.

    S1(c, l, r) is EQ_ANYC at (c, l, 0, r, 0): with an empty blue walk the
    roots are equal, no edge is shared, and the pair is its gray walk.
    S1S(c, l, r) is NEQ_ANYC_SN at (c, 0, l, 0, r): the gray walk is empty
    at r, and the blue walk of half-length l, rooted elsewhere, departs r
    r times.  A double key is returned unchanged.
    """
    tag, component, l, _, r, _ = key
    if tag == S1:
        return FamilyKey(EQ_ANYC, component, l, 0, r, 0)
    if tag == S1S:
        return FamilyKey(NEQ_ANYC_SN, component, 0, l, 0, r)
    return key


def validate_key(key: FamilyKey) -> None:
    """Reject structurally malformed keys (wrong arity, bad component)."""
    if key.tag not in ALL_TAGS:
        raise UnknownFamilyError(f"unknown family tag {key.tag!r}")
    if key.tag == TOP:
        fields_ok = (
            key.component is None
            and key.r_g is None
            and key.r_b is None
            and key.l_b is not None
        )
    elif key.tag in SINGLE_TAGS:
        fields_ok = (
            key.component in (1, 2)
            and key.l_b is None
            and key.r_b is None
            and key.r_g is not None
        )
    else:
        fields_ok = key.component in (1, 2) and None not in (key.l_b, key.r_g, key.r_b)
    if not fields_ok:
        raise UnknownFamilyError(f"malformed key for family {key.tag}: {key}")
    for field in ("l_g", "l_b", "r_g", "r_b"):
        value = getattr(key, field)
        if value is not None and value < 0:
            raise UnknownFamilyError(f"negative {field} in key {key}")
