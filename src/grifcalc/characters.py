"""Character bookkeeping for Fermat hypersurfaces.

The primitive middle cohomology of the degree-d Fermat hypersurface in
nvars coordinates carries an action of mu_d^nvars / diagonal, and the
eigenspace decomposition is indexed by tuples (a_0, ..., a_{nvars-1}) in
(Z/d)^nvars with sum a_i == 0 (mod d).  Eigenvectors with all a_i nonzero
correspond, through the residue map, to the reduced Jacobian-ring
monomials prod x_i^{a_i - 1}, and the Hodge type of such an eigenvector
is read off from sum a_i.  The Galois group (Z/d)^* acts by scaling
characters; an orbit sums to a rational cohomology class, which this
module writes down symbolically with one indeterminate coefficient per
orbit member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

from .errors import InvalidCharacter, NotReducedMonomial
from .jacobian import HomogeneousPolynomial, monomial_string, reduced_monomials
from .scalar import Scalar


@dataclass(frozen=True, order=True)
class Character(object):
    """An element of the character group: entries in [0, d-1] summing to
    0 mod d.  Degree d=2 is rejected as degenerate (the group has no
    all-nonzero elements with distinct Galois translates, and the residue
    correspondence below breaks down)."""

    d: int
    entries: tuple

    def __post_init__(self):
        if self.d < 3:
            raise InvalidCharacter("degree must be >= 3, got %d" % self.d)
        object.__setattr__(self, "entries", tuple(map(index, self.entries)))
        if not self.entries:
            raise InvalidCharacter("empty character")
        if any(a < 0 or a >= self.d for a in self.entries):
            raise InvalidCharacter("entries must lie in [0, %d]" % (self.d - 1))
        if sum(self.entries) % self.d != 0:
            raise InvalidCharacter("entries sum to %d, not 0 mod %d"
                                   % (sum(self.entries), self.d))

    @property
    def nvars(self):
        return len(self.entries)

    def scale(self, t):
        if t % self.d == 0 or math.gcd(t, self.d) != 1:
            raise InvalidCharacter("scaling factor %d is not a unit mod %d"
                                   % (t, self.d))
        return Character(self.d, tuple((t * a) % self.d for a in self.entries))


def monomial_character(exps, d):
    """Character of the reduced Fermat monomial with the given exponents:
    coordinate-wise exponent + 1 mod d."""
    if any(e < 0 or e > d - 2 for e in exps):
        raise NotReducedMonomial("exponents %r not all in [0, %d]"
                                 % (tuple(exps), d - 2))
    return Character(d, tuple((e + 1) % d for e in exps))


def character_monomial(char):
    """Inverse of monomial_character: exponent tuple a_i - 1.  Defined
    only for characters with every entry nonzero."""
    if any(a == 0 for a in char.entries):
        raise InvalidCharacter("character %r has a zero entry, no monomial"
                               % (char.entries,))
    return tuple(a - 1 for a in char.entries)


def hodge_type(char):
    """The (p, q) with p + q = nvars - 2 of the eigenvector for char:
    q = (sum a_i)/d - 1 with representatives a_i in [1, d-1]."""
    if any(a == 0 for a in char.entries):
        raise InvalidCharacter("character %r has a zero entry" % (char.entries,))
    q = sum(char.entries) // char.d - 1
    return (char.nvars - 2 - q, q)


@dataclass(frozen=True)
class GaloisOrbit(object):
    """Orbit of a character under (Z/d)^*, members sorted lexicographically."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise InvalidCharacter("empty orbit")

    @property
    def d(self):
        return self.members[0].d

    def __len__(self):
        return len(self.members)


def galois_orbit(char):
    seen = sorted({char.scale(t) for t in range(1, char.d)
                   if math.gcd(t, char.d) == 1})
    return GaloisOrbit(tuple(seen))


def enumerate_type(d, nvars, ptype):
    """All characters on nvars coordinates with every entry nonzero and
    Hodge type ptype = (p, q), sorted lexicographically."""
    p, q = ptype
    if p + q != nvars - 2:
        raise ValueError("type (%d, %d) needs p + q = nvars - 2 = %d"
                         % (p, q, nvars - 2))
    if p < 0 or q < 0:
        raise ValueError("negative Hodge type (%d, %d)" % (p, q))
    if d < 3:
        raise InvalidCharacter("degree must be >= 3, got %d" % d)
    # the residue map sends these characters to the reduced monomials of
    # degree (q+1)d - nvars, exponent a_i - 1 each; ascending lex order
    # reverses the monomials' descending grlex
    monos = reduced_monomials(nvars, (q + 1) * d - nvars, d - 2)
    return [Character(d, tuple(e + 1 for e in exps))
            for exps in reversed(monos)]


def orbit_partition(chars):
    """Distinct Galois orbits meeting the given characters, sorted by
    least member."""
    orbits, covered = {}, set()
    for c in chars:
        if c not in covered:
            orb = galois_orbit(c)
            covered.update(orb.members)
            orbits[orb.members[0]] = orb
    return [orbits[k] for k in sorted(orbits)]


# Coefficient symbols for the two distinguished orbits on the cubic
# sixfold; every other orbit gets a deterministic name derived from its
# least member.
_PINNED_SYMBOLS = {
    (3, (2, 2, 2, 2, 1, 1, 1, 1)): "A",
    (3, (1, 1, 1, 1, 2, 2, 2, 2)): "C",
    (3, (2, 2, 2, 1, 2, 1, 1, 1)): "B",
    (3, (1, 1, 1, 2, 1, 2, 2, 2)): "D",
}


@dataclass(frozen=True)
class SymbolicClass(object):
    """A Galois-orbit sum written with one symbolic coefficient per
    member: sum_t  c_t * (monomial of the t-th member)."""

    orbit: GaloisOrbit
    symbols: tuple
    polynomial: HomogeneousPolynomial

    def __str__(self):
        pairs = []
        for char, sym in zip(self.orbit.members, self.symbols):
            exps = character_monomial(char)
            pairs.append(((sum(exps),) + exps, sym, monomial_string(exps)))
        pairs.sort(reverse=True)
        return " + ".join("%s*%s" % (sym, mono) for _, sym, mono in pairs)


def _orbit_symbols(orbit):
    pinned = [_PINNED_SYMBOLS.get((orbit.d, c.entries)) for c in orbit.members]
    if all(s is not None for s in pinned):
        return tuple(pinned)
    base_char = orbit.members[0]
    base = "P" + "".join(str(a) for a in base_char.entries)
    symbols = []
    for c in orbit.members:
        t = next(t for t in range(1, c.d)
                 if math.gcd(t, c.d) == 1 and base_char.scale(t) == c)
        symbols.append(base if t == 1 else "%sx%d" % (base, t))
    return tuple(symbols)


def rational_class(orbit):
    """The symbolic rational class attached to a Galois orbit whose
    members all live in the same cohomological degree."""
    exps = [character_monomial(c) for c in orbit.members]
    degrees = {sum(e) for e in exps}
    if len(degrees) != 1:
        raise InvalidCharacter("orbit mixes monomial degrees %r" % sorted(degrees))
    symbols = _orbit_symbols(orbit)
    nvars = orbit.members[0].nvars
    degree = degrees.pop()
    terms = {tuple(e): Scalar.param(sym) for e, sym in zip(exps, symbols)}
    return SymbolicClass(orbit, symbols,
                         HomogeneousPolynomial(nvars, degree, terms))
