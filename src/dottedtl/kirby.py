"""Twisted projector objects and truncated Kirby-color systems.

A level is a projector P_n carrying a rank-one twist a*E1 and an integer
q-shift.  The star action on maps between twisted objects is
statespace.commutator_star at the system's parameters, with the twists of
source and target, taken on the maps' cores (projectors.TrackedMor):
every map is p-sandwiched, so a core's star image is the core of the
map's, G acting on a core side by statespace's diagonal core operator.
The top level k + 2J is at most projectors.JW_TRACKED_BOUND, as the last
map U_{k+2J-2} reads p_{k+2J}.  Connecting maps of a Kirby system must be
annihilated by e, f, and h under it, and that is certified when the
system is built, never assumed.  A composite's core is the product of the
maps' cores.  A system computes each star image once and keeps it for the
checks that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sl2 import GENERATORS, DtlParams, TwistData
from .statespace import PolyMatrix, commutator_star, core_side
from .projectors import JW_TRACKED_BOUND, un


class KirbyError(Exception):
    pass


@dataclass(frozen=True)
class TwistedObject:
    n: int
    twist: TwistData


def star_act_twisted(
    g: str, C: PolyMatrix, src: TwistedObject, tgt: TwistedObject,
    params: DtlParams,
) -> PolyMatrix:
    """The core of g*F between twisted objects, for F: P_src -> P_tgt with
    the core C: the commutator action on C at params (f gains
    (a_tgt - a_src)E1, h gains 2(a_src - a_tgt) from the twists)."""
    if (C.n_in, C.n_out) != (core_side(src.n), core_side(tgt.n)):
        raise KirbyError(
            f"core sides {C.n_out}<-{C.n_in} do not match "
            f"objects {tgt.n}<-{src.n}"
        )
    return commutator_star(g, C, src.twist, tgt.twist, params)


def level_twist(n: int, a2: Fraction) -> TwistData:
    return TwistData(-Fraction(n, 2) * (1 - Fraction(a2)), q_shift=-n)


def check_size(k: int, J: int) -> None:
    """Raise KirbyError unless k >= 0 and the top level k + 2J fits in
    JW_TRACKED_BOUND strands."""
    if k < 0:
        raise KirbyError("k must be non-negative")
    if k + 2 * J > JW_TRACKED_BOUND:
        raise KirbyError(
            f"strand bound exceeded: {k + 2 * J} > {JW_TRACKED_BOUND}")


class KirbySystem:
    """Truncated directed system of twisted projectors with dotted-cup maps."""

    def __init__(self, k: int, J: int, a2: Fraction):
        a2 = Fraction(a2)
        check_size(k, J)
        self.k = k
        self.J = J
        self.a2 = a2
        self.params = DtlParams(Fraction(0), a2)
        self.levels = [
            TwistedObject(k + 2 * j, level_twist(k + 2 * j, a2)) for j in range(J + 1)
        ]
        self.maps = [un(k + 2 * j, self.params) for j in range(J)]
        # keyed by the map and level objects, not by index, so that a map
        # or level swapped after the build is recomputed, never served stale
        self._stars: dict = {}  # (g, maps, src, tgt) -> core of g*(maps)
        self.certificates = self._certify()

    def star(self, g: str, maps: tuple, src: TwistedObject,
             tgt: TwistedObject) -> PolyMatrix:
        """The core of g*(maps[0] o maps[1] o ...) from src to tgt,
        computed once per system."""
        key = (g, maps, src, tgt)
        img = self._stars.get(key)
        if img is None:
            img = self._stars[key] = star_act_twisted(
                g, composite_core(maps), src, tgt, self.params)
        return img

    def _certify(self):
        certs = []
        for j, F in enumerate(self.maps):
            src, tgt = self.levels[j], self.levels[j + 1]
            for g in GENERATORS:
                if not self.star(g, (F,), src, tgt).is_zero():
                    raise KirbyError(
                        f"level map U_{src.n} not annihilated by {g}* "
                        f"(k={self.k}, j={j}, a2={self.a2})"
                    )
            deg = F.core.qdegree()  # cores are graded like their maps
            net = None if deg is None else deg + tgt.twist.q_shift - src.twist.q_shift
            if net != 0:
                raise KirbyError(
                    f"level map U_{src.n} has net q-degree {net}, expected 0"
                )
            certs.append({"level": j, "map": f"U_{src.n}", "star_annihilated": True,
                          "net_q_degree": 0})
        return certs

    def report(self) -> dict:
        return {
            "k": self.k,
            "levels": [
                {"n": obj.n, "twist_a": str(obj.twist.a),
                 "q_shift": obj.twist.q_shift}
                for obj in self.levels
            ],
            "a2": str(self.a2),
            "maps": self.certificates,
            "ok": True,
        }


def build_kirby(k: int, J: int, a2) -> KirbySystem:
    return KirbySystem(k, J, Fraction(a2))


def composite_core(maps) -> PolyMatrix:
    """The core of maps[0] o maps[1] o ...: the product of their cores, as
    B_k^+ B_k is the identity between them."""
    out = maps[0].core
    for F in maps[1:]:
        out = out * F.core
    return out


def composite_check(system: KirbySystem) -> dict:
    """Composites of consecutive connecting maps: nonzero and star-annihilated,
    decided on the composite's core, each star image computed directly from
    it (once per system)."""
    checks = []
    for j in range(system.J - 1):
        src, tgt = system.levels[j], system.levels[j + 2]
        pair = (system.maps[j + 1], system.maps[j])
        nonzero = not composite_core(pair).is_zero()
        annihilated = all(
            system.star(g, pair, src, tgt).is_zero() for g in GENERATORS
        )
        checks.append({
            "composite": f"U_{system.levels[j + 1].n} o U_{src.n}",
            "nonzero": nonzero,
            "star_annihilated": annihilated,
            "star_check": "direct",
            "status": "pass" if nonzero and annihilated else "fail",
        })
    return {
        "k": system.k, "J": system.J, "a2": str(system.a2),
        "ok": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }


def leibniz_closure_check(system: KirbySystem) -> bool:
    """g*(B o A) = (g*B)A + B(g*A) on cores, for every pair of consecutive
    maps with matching middle twist: the star images of the maps against
    the one computed directly from their composite, all read from the
    system."""
    for j in range(system.J - 1):
        src, mid_obj, tgt = system.levels[j:j + 3]
        A, B = system.maps[j], system.maps[j + 1]
        for g in GENERATORS:
            rhs = system.star(g, (B,), mid_obj, tgt) * A.core \
                + B.core * system.star(g, (A,), src, mid_obj)
            if system.star(g, (B, A), src, tgt) != rhs:
                return False
    return True
