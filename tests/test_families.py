"""Registry-driven cross-checks: every family, every size up to a stated one.

Each case builds the validated lattice and checks the registry record
against it: the element count, the direct pops against the lattice pops in
both directions, the image predicate against the brute-force image (only
necessity where the record says so), down/up census duality, and that every
element reads back from its text.
"""
import pytest

from poplat.families import FAMILIES

LARGEST = {"weak-a": 5, "weak-b": 4, "tam-a": 7, "tam-b": 5, "j-a": 9, "j-b": 5}

CASES = [
    pytest.param(family, n, id=f"{name}-{n}")
    for name, family in FAMILIES.items()
    for n in range(family.min_size, LARGEST[name] + 1)
]


@pytest.mark.parametrize("family, n", CASES)
def test_family_record_matches_its_lattice(family, n):
    lat = family.build(n)
    assert len(lat) == family.size(n)
    for x in lat.elements:
        assert family.pop_down(x) == lat.pop_down(x), x
        assert family.pop_up(x) == lat.pop_up(x), x
        assert family.parse(family.format(x)) == x
    image = lat.pop_image(family.image_direction)
    if family.predicate_necessary_only:
        assert all(family.predicate(x) for x in image)
    elif family.predicate is not None:
        for x in lat.elements:
            assert family.predicate(x) == (x in image), x
    assert lat.pop_polynomial("down") == lat.pop_polynomial("up")
