"""Character census: enumeration, Galois orbits, and symbolic rational
classes for Fermat hypersurfaces."""

import pytest

from grifcalc.characters import (Character, GaloisOrbit, character_monomial,
                                 enumerate_type, galois_orbit, hodge_type,
                                 monomial_character, orbit_partition,
                                 rational_class)
from grifcalc.errors import InvalidCharacter, NotReducedMonomial
from grifcalc.hodge import hypersurface_prim_hodge


def test_census_of_balanced_type_on_eight_variables():
    chars = enumerate_type(3, 8, (3, 3))
    assert len(chars) == 70
    orbits = orbit_partition(chars)
    assert len(orbits) == 35
    assert all(len(o) == 2 for o in orbits)
    # every member of every orbit stays inside the census
    census = set(chars)
    for orbit in orbits:
        assert all(c in census for c in orbit.members)


def test_census_skewed_types():
    assert len(enumerate_type(3, 8, (4, 2))) == 8
    assert len(enumerate_type(3, 8, (2, 4))) == 8
    assert len(enumerate_type(3, 8, (6, 0))) == 0
    assert len(enumerate_type(3, 8, (5, 1))) == 0


def test_enumeration_is_sorted_and_deterministic():
    chars = enumerate_type(3, 8, (3, 3))
    entries = [c.entries for c in chars]
    assert entries == sorted(entries)
    assert enumerate_type(3, 8, (3, 3)) == chars


def test_character_counts_match_residue_dimensions():
    # eigenvector counts per type must reproduce the primitive Hodge
    # numbers of the cubic, five through nine variables
    for nvars in range(5, 10):
        m = nvars - 2
        hv = hypersurface_prim_hodge(3, m)
        counts = tuple(len(enumerate_type(3, nvars, (m - q, q)))
                       for q in range(m + 1))
        assert counts == hv.values, nvars


def test_monomial_character_round_trip():
    alpha = Character(3, (2, 2, 2, 2, 1, 1, 1, 1))
    assert monomial_character((1, 1, 1, 1, 0, 0, 0, 0), 3) == alpha
    assert character_monomial(alpha) == (1, 1, 1, 1, 0, 0, 0, 0)
    for c in enumerate_type(3, 6, (2, 2)):
        assert monomial_character(character_monomial(c), 3) == c


def test_monomial_character_rejects_unreduced_exponents():
    with pytest.raises(NotReducedMonomial):
        monomial_character((2, 0, 0, 1), 3)


def test_character_monomial_needs_all_entries_nonzero():
    with pytest.raises(InvalidCharacter):
        character_monomial(Character(3, (0, 1, 2)))


def test_hodge_types():
    assert hodge_type(Character(3, (2, 2, 2, 2, 1, 1, 1, 1))) == (3, 3)
    assert hodge_type(Character(3, (1, 1, 1))) == (1, 0)
    assert hodge_type(Character(3, (2, 2, 2))) == (0, 1)
    with pytest.raises(InvalidCharacter):
        hodge_type(Character(3, (0, 1, 2)))


def test_character_validation():
    with pytest.raises(InvalidCharacter):
        Character(2, (1, 1))
    with pytest.raises(InvalidCharacter):
        Character(3, (1, 1, 2))
    with pytest.raises(InvalidCharacter):
        Character(3, (3, 0, 0))
    with pytest.raises(InvalidCharacter):
        Character(3, ())


def test_character_entries_must_be_integers():
    # a float or a string entry raises instead of being truncated
    for entries in ((1.9, 2.2), (1, 2.0), ("1", "2")):
        with pytest.raises(TypeError):
            Character(3, entries)
    assert Character(3, [1, 2]).entries == (1, 2)


def test_galois_orbits_for_cubic():
    alpha = Character(3, (2, 2, 2, 2, 1, 1, 1, 1))
    orbit = galois_orbit(alpha)
    assert len(orbit) == 2
    assert orbit.members == (Character(3, (1, 1, 1, 1, 2, 2, 2, 2)), alpha)
    # scaling by any unit lands inside the orbit
    assert alpha.scale(2) in orbit.members
    with pytest.raises(InvalidCharacter):
        alpha.scale(3)


def test_orbit_mixing_types_for_skewed_characters():
    skew = enumerate_type(3, 8, (4, 2))[0]
    orbit = galois_orbit(skew)
    types = {hodge_type(c) for c in orbit.members}
    assert types == {(4, 2), (2, 4)}
    with pytest.raises(InvalidCharacter):
        rational_class(orbit)  # members live in different degrees


def test_pinned_rational_classes():
    alpha = rational_class(galois_orbit(Character(3, (2, 2, 2, 2, 1, 1, 1, 1))))
    beta = rational_class(galois_orbit(Character(3, (2, 2, 2, 1, 2, 1, 1, 1))))
    assert str(alpha) == "A*x0*x1*x2*x3 + C*x4*x5*x6*x7"
    assert str(beta) == "B*x0*x1*x2*x4 + D*x3*x5*x6*x7"
    assert alpha.polynomial.nvars == 8 and alpha.polynomial.degree == 4
    symbols = dict(zip(alpha.orbit.members, alpha.symbols))
    assert symbols[Character(3, (2, 2, 2, 2, 1, 1, 1, 1))] == "A"
    assert symbols[Character(3, (1, 1, 1, 1, 2, 2, 2, 2))] == "C"


def test_generic_orbit_names_are_deterministic():
    char = Character(3, (2, 1, 1, 2, 2, 2, 1, 1))
    cls = rational_class(galois_orbit(char))
    least = galois_orbit(char).members[0]
    base = "P" + "".join(str(a) for a in least.entries)
    assert set(cls.symbols) == {base, base + "x2"}
    again = rational_class(galois_orbit(char.scale(2)))
    assert str(again) == str(cls)


def test_all_balanced_orbits_have_classes():
    for orbit in orbit_partition(enumerate_type(3, 8, (3, 3))):
        cls = rational_class(orbit)
        assert len(cls.symbols) == 2
        assert cls.polynomial.degree == 4
        assert len(cls.polynomial.terms) == 2


def test_quintic_characters_also_supported():
    chars = enumerate_type(5, 5, (2, 1))
    hv = hypersurface_prim_hodge(5, 3)
    assert len(chars) == hv.values[1] == 101
    orbit = galois_orbit(chars[0])
    assert len(orbit) in (1, 2, 4)


def oracle_sum_compositions(d, nvars, target):
    """The census enumerator before enumerate_type read the reduced
    monomials: tuples in [1, d-1]^nvars with the exact sum, lex order by
    construction."""
    results = []
    entries = [0] * nvars

    def rec(i, remaining):
        if i == nvars:
            if remaining == 0:
                results.append(tuple(entries))
            return
        lo = max(1, remaining - (d - 1) * (nvars - 1 - i))
        hi = min(d - 1, remaining - (nvars - 1 - i))
        for a in range(lo, hi + 1):
            entries[i] = a
            rec(i + 1, remaining - a)

    rec(0, target)
    return tuple(results)


def test_enumerate_type_matches_the_composition_oracle():
    cases = 0
    for d in range(3, 9):
        for nvars in range(1, 8):
            for q in range(nvars - 1):
                chars = enumerate_type(d, nvars, (nvars - 2 - q, q))
                got = tuple(c.entries for c in chars)
                expected = oracle_sum_compositions(d, nvars, (q + 1) * d)
                assert got == expected, (d, nvars, q)
                cases += 1
    assert cases == 6 * 21


def oracle_orbit_partition(chars):
    """orbit_partition before it skipped covered characters: one Galois
    orbit per character."""
    seen = {}
    for c in chars:
        orb = galois_orbit(c)
        seen[orb.members[0]] = orb
    return [seen[k] for k in sorted(seen)]


def test_orbit_partition_matches_the_one_orbit_per_character_oracle():
    # 95 orbits meeting the census 48 times each, a degree-11 census on
    # six variables whose orbits leave it, and the report's census
    for d, nvars, ptype in ((97, 3, (1, 0)), (11, 6, (3, 1)),
                            (3, 8, (3, 3))):
        chars = enumerate_type(d, nvars, ptype)
        assert orbit_partition(chars) == oracle_orbit_partition(chars), d
