"""Twisted projector objects and truncated Kirby-color systems.

A level is a projector P_n carrying a rank-one twist a*E1 and an integer
q-shift.  The star action on maps between twisted objects is
statespace.commutator_star at the map's parameters, with the twists of
source and target; connecting maps of a Kirby system must be annihilated
by e, f, and h under it, and that is certified when the system is built,
never assumed.  A system computes each star image, and each composite of
consecutive maps, once and keeps it for the checks that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .sl2 import GENERATORS, DtlParams, TwistData, check_flat_twist
from .statespace import PolyMatrix, commutator_star
from .projectors import JW_TRACKED_BOUND, TrackedMor, un

# the last map U_{k+2J-2} reads p_{k+2J}, so the top level is bounded like p_n
STRAND_BOUND = JW_TRACKED_BOUND


class KirbyError(Exception):
    pass


@dataclass(frozen=True)
class TwistedObject:
    n: int
    twist: TwistData

    def __post_init__(self):
        if not check_flat_twist(self.twist):
            raise KirbyError(f"twist {self.twist} is not flat")


def star_act_twisted(
    g: str, F: TrackedMor, src: TwistedObject, tgt: TwistedObject
) -> PolyMatrix:
    """g*F between twisted objects: the commutator action at F's parameters
    (f gains (a_tgt - a_src)E1, h gains 2(a_src - a_tgt) from the twists)."""
    if F.mat.n_in != src.n or F.mat.n_out != tgt.n:
        raise KirbyError(
            f"map shape {F.mat.n_out}<-{F.mat.n_in} does not match "
            f"objects {tgt.n}<-{src.n}"
        )
    return commutator_star(g, F.mat, src.twist, tgt.twist, F.params)


def level_twist(n: int, a2: Fraction) -> TwistData:
    return TwistData(-Fraction(n, 2) * (1 - Fraction(a2)), q_shift=-n)


def check_size(k: int, J: int) -> None:
    """Raise KirbyError unless k >= 0 and the top level k + 2J fits in
    STRAND_BOUND strands."""
    if k < 0:
        raise KirbyError("k must be non-negative")
    if k + 2 * J > STRAND_BOUND:
        raise KirbyError(f"strand bound exceeded: {k + 2 * J} > {STRAND_BOUND}")


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
        self._stars: dict = {}  # (g, map, src, tgt) -> g*map
        self._composites: dict = {}  # (B, A) -> B o A
        self.certificates = self._certify()

    def star(self, g: str, F: TrackedMor, src: TwistedObject,
             tgt: TwistedObject) -> PolyMatrix:
        """g*F from src to tgt, computed once per system."""
        key = (g, F, src, tgt)
        img = self._stars.get(key)
        if img is None:
            img = self._stars[key] = star_act_twisted(g, F, src, tgt)
        return img

    def composite(self, j: int) -> TrackedMor:
        """maps[j+1] o maps[j], composed once per pair of maps."""
        A, B = self.maps[j], self.maps[j + 1]
        comp = self._composites.get((B, A))
        if comp is None:
            comp = self._composites[B, A] = B.compose(A)
        return comp

    def _certify(self):
        certs = []
        for j, F in enumerate(self.maps):
            src, tgt = self.levels[j], self.levels[j + 1]
            for g in GENERATORS:
                if not self.star(g, F, src, tgt).is_zero():
                    raise KirbyError(
                        f"level map U_{src.n} not annihilated by {g}* "
                        f"(k={self.k}, j={j}, a2={self.a2})"
                    )
            deg = F.mat.qdegree()
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


def composite_check(system: KirbySystem) -> dict:
    """Composites of consecutive connecting maps: nonzero and star-annihilated,
    each star image computed directly from the composite (once per system)."""
    checks = []
    for j in range(system.J - 1):
        src, tgt = system.levels[j], system.levels[j + 2]
        comp = system.composite(j)
        nonzero = not comp.mat.is_zero()
        annihilated = all(
            system.star(g, comp, src, tgt).is_zero() for g in GENERATORS
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
    """g*(B o A) = (g*B)A + B(g*A) for every pair of consecutive maps with
    matching middle twist: the star images of the maps against the one
    computed directly from their composite, all read from the system."""
    for j in range(system.J - 1):
        src, mid_obj, tgt = system.levels[j:j + 3]
        A, B = system.maps[j], system.maps[j + 1]
        comp = system.composite(j)
        for g in GENERATORS:
            rhs = system.star(g, B, mid_obj, tgt) * A.mat \
                + B.mat * system.star(g, A, src, mid_obj)
            if system.star(g, comp, src, tgt) != rhs:
                return False
    return True
