"""Structured independent families and the doubling bound."""

from fractions import Fraction
from itertools import combinations

import pytest

from ortho_lab import families, search
from ortho_lab.graphs import Family, omega, y_quotient


def test_segment_subsets_n8():
    subs = families.segment_subsets(8)
    assert len(subs) == 8
    assert 0 in subs
    # every nonempty member is a pair through the first coordinate
    assert all(w == 0 or (w & 1 and w.bit_count() == 2) for w in subs)


def segment_subsets_by_choice(n):
    """The oracle, built rather than filtered: i elements of the first
    n/4 - 1 coordinates and j of the rest, with i + j even and i >= j."""
    seg, rest = range(n // 4 - 1), range(n // 4 - 1, n)
    return sorted(
        sum(1 << e for e in inside + outside)
        for i in range(len(seg) + 1)
        for j in range(i + 1)
        if (i + j) % 2 == 0
        for inside in combinations(seg, i)
        for outside in combinations(rest, j)
    )


@pytest.mark.parametrize("n", (8, 16))
def test_segment_subsets_match_the_filter(n):
    subs = families.segment_subsets(n)
    assert subs == segment_subsets_by_choice(n)
    assert all(type(w) is int for w in subs)


def test_segment_family_n8_is_tight():
    rep = families.initial_segment_family(8)
    assert rep.raw_count == 8
    assert rep.size == 8
    assert rep.independent
    assert rep.maximal
    assert rep.maximality_witness is None
    assert rep.meets_ratio_bound


def test_segment_family_n16_values():
    rep = families.initial_segment_family(16)
    assert rep.size == 576
    assert rep.independent and rep.maximal
    assert not rep.meets_ratio_bound
    # raw strata by subset size: 1 + 42 + 247 + 286
    from collections import Counter

    strata = Counter(w.bit_count() for w in families.segment_subsets(16))
    assert strata == {0: 1, 2: 42, 4: 247, 6: 286}


def test_small_odd_family_sizes():
    expected = {8: 8, 12: 67, 16: 576, 20: 5036, 24: 44552}
    for n, size in expected.items():
        rep = families.small_odd_family(n)
        assert rep.size == size, n
        assert rep.independent
        assert not rep.maximal
        assert rep.maximality_witness is not None
        assert rep.quadrupled_size == 4 * size


def test_small_odd_family_rechecks_its_witness(monkeypatch):
    monkeypatch.setattr(families, "adjacent_bits", lambda u, v, n: True)
    with pytest.raises(ArithmeticError, match="not addable"):
        families.small_odd_family(8)


def test_small_odd_family_independence_methods():
    assert families.small_odd_family(8).independence_method == "pairwise_scan"
    assert families.small_odd_family(24).independence_method == "distance_cap"


def test_symdiff_transform():
    for n in (8, 16):
        rep = families.symdiff_transform_check(n)
        assert rep.ok
        assert rep.image_size == rep.target_size
        assert rep.witness is None
    with pytest.raises(ValueError):
        families.symdiff_transform_check(12)


def test_lift_members_quadruples():
    lifted = families.lift_members([0, 126], 8)
    assert len(lifted) == 8
    assert 0 in lifted and 255 in lifted and 1 in lifted and 254 in lifted


def test_lift_members_rejects_colliding_input():
    with pytest.raises(ValueError):
        families.lift_members([0, 255], 8)  # complements collapse to one pair


def test_lift_to_omega_from_family_report():
    rep = families.initial_segment_family(8)
    cert = families.lift_to_omega(rep)
    assert cert.kind == omega(8)
    assert cert.size == 32
    assert cert.meets_ratio_bound


def test_lift_to_omega_rejects_full_graph_sources():
    with pytest.raises(ValueError):
        families.lift_to_omega(families.small_odd_family(8))


def test_m2k_bound_values():
    rep = families.m2k_bound(12)
    assert (rep.m, rep.k) == (3, 2)
    assert rep.doubling_bound == 1024
    assert rep.ratio_bound == Fraction(4096, 12)
    assert rep.factor == 3
    assert not rep.tight_bipartite

    rep16 = families.m2k_bound(16)
    assert (rep16.m, rep16.k) == (1, 4)
    assert rep16.doubling_bound == 4096
    assert rep16.factor == 1

    rep6 = families.m2k_bound(6)
    assert rep6.tight_bipartite
    assert rep6.doubling_bound == 32

    assert families.m2k_bound(64).doubling_bound == 1 << 58
    for bad in (7, 0, -2, 66, 10**300):
        with pytest.raises(ValueError):
            families.m2k_bound(bad)


def test_family_reports_carry_quotient_kind():
    rep = families.small_odd_family(8)
    assert rep.kind.family is Family.OMEGA or rep.kind.family is Family.Y
    # members of the segment family are canonical quotient vertices
    seg = families.initial_segment_family(8)
    assert seg.kind == y_quotient(8)
    assert search.check_independent([v.bits for v in seg.members], seg.kind)
