"""Set facts read off the Walsh transform against pairwise oracles.

``search.check_independent`` and ``spectral.first_addable`` read
independence and maximality off one transform; the pairwise scans they
replaced live on here as oracles, together with the pairwise translate
test that ``colouring.normal_cayley_colouring`` replaced by colouring
each word at most once."""

import random

import pytest

from ortho_lab import certificates, colouring, families, search, spectral
from ortho_lab.graphs import adjacent_bits, neighbours, omega, y_quotient


# --- oracles ------------------------------------------------------------------

def pairwise_independent(vertices, kind):
    """Pairwise non-adjacency scan."""
    n = kind.n
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if adjacent_bits(u, v, n):
                return False
    return True


def find_addable(members, universe, n):
    """First vertex outside the set adjacent to none of its members, or
    None if the set is maximal."""
    mset = set(members)
    for w in universe:
        if w in mset:
            continue
        if not any(adjacent_bits(w, x, n) for x in members):
            return w
    return None


def translate_disjointness(s_vertices, shifts, n):
    """True iff the translates of the set by the shift words are pairwise
    disjoint.  The set must be independent; that is a precondition, not
    a result."""
    if not pairwise_independent(s_vertices, omega(n)):
        raise ValueError("translate test needs an independent set")
    base = set(s_vertices)
    for i, a in enumerate(shifts):
        for b in shifts[i + 1 :]:
            shift = a ^ b
            if any((x ^ shift) in base for x in base):
                return False
    return True


# --- the sets compared --------------------------------------------------------

def structured_sets():
    """The n = 8 tight sets and their lifts, the segment families and the
    n = 16 lift, and the small-odd families at n = 8, 12, 16."""
    y8, o8 = y_quotient(8), omega(8)
    out = []
    for t in search.exhaustive_tight_sets(8):
        out += [(y8, t), (o8, families.lift_members(t, 8))]
    for n in (8, 16):
        seg = families.initial_segment_family(n)
        out.append((seg.kind, [v.bits for v in seg.members]))
    lift = families.lift_to_omega(families.initial_segment_family(16))
    out.append((lift.kind, [v.bits for v in lift.vertices]))
    for n in (8, 12, 16):
        odd = families.small_odd_family(n)
        out.append((odd.kind, [v.bits for v in odd.members]))
    return out


def perturbed(kind, members, rng):
    """The set with one member swapped for a neighbour outside it, and
    with one member removed."""
    i = rng.randrange(len(members))
    outside = [w for w in neighbours(kind, members[i]) if w not in set(members)]
    swapped = members[:i] + [rng.choice(outside)] + members[i + 1 :]
    return [(kind, swapped), (kind, members[:i] + members[i + 1 :])]


def random_sets(rng):
    out = []
    kinds = (omega(4), omega(6), omega(8), y_quotient(4), y_quotient(8), y_quotient(12))
    for kind in kinds:
        order = spectral.vertex_order(kind)
        for _ in range(8):
            out.append((kind, rng.sample(order, rng.randint(1, min(6, len(order))))))
    return out


def all_cases():
    rng = random.Random(31)
    cases = structured_sets()
    for kind, members in list(cases):
        cases += perturbed(kind, members, rng)
    return cases + random_sets(rng)


def test_walsh_set_facts_match_pairwise_oracles():
    independent, maximal = set(), set()
    for kind, members in all_cases():
        want = pairwise_independent(members, kind)
        got = search.check_independent(members, kind)
        assert type(got) is bool and got == want, (kind, len(members))
        independent.add(want)
        want = find_addable(members, spectral.vertex_order(kind), kind.n)
        got = spectral.first_addable(kind, members)
        assert got is None or type(got) is int
        assert got == want, (kind, len(members))
        maximal.add(want is None)
    assert independent == {True, False}
    assert maximal == {True, False}


def test_set_facts_reject_bad_input():
    facts = (search.check_independent, lambda s, kind: spectral.first_addable(kind, s))
    for fact in facts:
        with pytest.raises(ValueError):
            fact([0, 0], omega(4))
        with pytest.raises(ValueError):
            fact([1 << 4], omega(4))
        with pytest.raises(ValueError):
            fact([1], y_quotient(8))  # not canonical
        with pytest.raises(ValueError):
            fact([0], omega(20))  # past the transform cap


# --- small-odd members and witness --------------------------------------------

@pytest.mark.parametrize("n", (8, 12, 16, 20))
def test_small_odd_members_and_witness_match_the_filter(n):
    m = n // 4
    sizes = [j for j in range(m) if (j - m) % 2]
    want = [w for w in range(1 << n) if w.bit_count() in sizes]
    rep = families.small_odd_family(n)
    members = [v.bits for v in rep.members]
    assert members == want
    assert not rep.maximal
    assert rep.maximality_witness.bits == find_addable(members, range(1 << n), n)


# --- translate colourings -----------------------------------------------------

def test_normal_cayley_colouring_matches_translate_oracle():
    clique = colouring.sylvester_clique(3)
    for t in search.exhaustive_tight_sets(8):
        lifted = families.lift_members(t, 8)
        assert translate_disjointness(lifted, clique, 8)
        cert = colouring.normal_cayley_colouring(lifted, clique, 8)
        assert cert.palette_size == 8
        assert all(cert.colour.count(c) == 32 for c in range(8))
    # swap a member for x ^ a ^ b: the translates by a and b then share
    # x ^ a.  Clique words differ in n/2 places, so x and x ^ a ^ b are
    # adjacent and the oracle refuses the set as not independent.
    a, b = clique[0], clique[1]
    x = lifted[0]
    forged = sorted(lifted[:-1] + [x ^ a ^ b])
    assert len(set(forged)) == 32
    with pytest.raises(ValueError):
        translate_disjointness(forged, clique, 8)
    with pytest.raises(ValueError, match="translates overlap"):
        colouring.normal_cayley_colouring(forged, clique, 8)
    # a negative member would index the colour list from its end
    with pytest.raises(ValueError, match="n-bit words"):
        colouring.normal_cayley_colouring([x - 256] + lifted[1:], clique, 8)



def test_reported_flags_are_python_types():
    # a numpy bool in a report would make certificates.dumps raise
    seg = families.initial_segment_family(8)
    lift = families.lift_to_omega(seg)
    odd = families.small_odd_family(12)
    flags = (
        seg.independent,
        seg.maximal,
        odd.independent,
        lift.meets_ratio_bound,
        lift.eigenspace_member,
        spectral.equality_condition_check(seg.kind, [v.bits for v in seg.members]),
    )
    assert all(type(flag) is bool for flag in flags)
    assert type(odd.maximality_witness.bits) is int
    certificates.dumps(certificates.family_payload(seg, lift=lift))
    certificates.dumps(certificates.family_payload(odd))
