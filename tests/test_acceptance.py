"""Acceptance suite: ten end-to-end checks, one printed line each.

Every comparison here is exact.  Series coefficients are Python ints,
partition counts come from a dynamic program over the families'
frequency conditions (checked against enumeration in
``test_partitions.py``), path counts come from exhaustive search, and
the tolerance everywhere is zero.  Each criterion prints a single

    [PASS] <number>. <what was checked>

line (run with ``-s`` to see them all; a failing criterion also fails
its test; criterion 09's negative controls are a test of their
own, which prints nothing).  Orders are chosen so the whole file runs in a couple of
minutes on a laptop.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qgordon import (
    BaileyPair,
    ConstructionData,
    GordonParams,
    IdentitySpec,
    PochSpec,
    Series,
    build_chain,
    check_pair,
    closed_form_alpha,
    count_A,
    count_B,
    count_S,
    count_W,
    count_Wbar,
    enumerate_S_paths,
    eval_multisum_AG,
    eval_multisum_main,
    eval_product_side,
    forward_construct,
    invert_poch,
    is_S_admissible,
    limit_identity,
    poch_finite,
    poch_infinite,
    rescale,
    reverse_deconstruct,
    theta_sum,
    triple_product,
    unit_pair,
    verify,
)

MAIN_PAIRS = tuple(
    (k, a) for k in range(2, 7) for a in range(1, k + 1) if (k - a) % 2 == 1
)
CHAIN_PAIRS = ((2, 1), (3, 2), (4, 1), (5, 2))
# criteria 01-04 compare each sum with its product, and with its counts, below q^ORDER
ORDER = 400


def _criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {label}")
    assert ok, f"criterion {num} failed: {label}" + (f"; {detail}" if detail else "")


def test_criterion_01_parity_multisum_equals_product():
    """Opposite-parity (k, a) up to k = 6: multisum = product below q^400."""
    failures = []
    for k, a in MAIN_PAIRS:
        gp = GordonParams(k, a)
        lhs = eval_multisum_main(gp, ORDER)
        rhs = eval_product_side("Main", gp, ORDER)
        if min(lhs.order, rhs.order) < ORDER:
            failures.append(f"(k={k}, a={a}) compared only below q^{min(lhs.order, rhs.order)}")
        elif lhs != rhs:
            failures.append(f"(k={k}, a={a}) differs at q^{lhs.first_discrepancy(rhs)}")
    _criterion(
        1,
        f"parity-restricted multisum equals its product below q^{ORDER} "
        f"for all {len(MAIN_PAIRS)} opposite-parity pairs with k <= 6",
        not failures,
        "; ".join(failures),
    )


def test_criterion_02_andrews_gordon_sum_product_and_oracles():
    """AG for k <= 5, all a: sum = product below q^400, both = counts for n < 400."""
    failures = []
    for k in range(2, 6):
        for a in range(1, k + 1):
            gp = GordonParams(k, a)
            lhs = eval_multisum_AG(gp, ORDER)
            rhs = eval_product_side("AG", gp, ORDER)
            if min(lhs.order, rhs.order) < ORDER:
                failures.append(f"(k={k}, a={a}) compared only below q^{min(lhs.order, rhs.order)}")
                continue
            if lhs != rhs:
                failures.append(f"(k={k}, a={a}) sides differ")
                continue
            for n in range(ORDER):
                c = lhs.coefficient(n)
                if c != count_B(n, gp) or c != count_A(n, gp):
                    failures.append(f"(k={k}, a={a}) oracle mismatch at n={n}")
                    break
    _criterion(
        2,
        f"Andrews-Gordon sum equals product below q^{ORDER} and both match the "
        f"count_B and count_A oracles for every n < {ORDER} (14 pairs)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_03_even_part_parity_identities():
    """Even parts with even multiplicity, k <= 5, both parity regimes:
    sum = product below q^400, both = count_W for n < 400."""
    failures = []
    for k in range(2, 6):
        for a in range(1, k + 1):
            gp = GordonParams(k, a)
            tag = "W_same" if (k - a) % 2 == 0 else "W_diff"
            report = verify(IdentitySpec(tag, gp, ORDER))
            if not report.equal:
                failures.append(f"{tag} (k={k}, a={a}) sides differ")
                continue
            for n in range(ORDER):
                if report.lhs.coefficient(n) != count_W(n, gp):
                    failures.append(f"{tag} (k={k}, a={a}) count_W mismatch at n={n}")
                    break
    _criterion(
        3,
        "even-multiplicity-of-even-parts multisum equals its product "
        f"(one product for k = a mod 2, a sum of two otherwise) below q^{ORDER} "
        f"and matches count_W for every n < {ORDER} and every (k, a) with k <= 5",
        not failures,
        "; ".join(failures),
    )


def test_criterion_04_odd_part_parity_identities():
    """Odd parts with even multiplicity, k <= 5, both stated regimes:
    sum = product below q^400, both = count_Wbar for n < 400."""
    failures = []
    regimes = [
        ("Wbar_odd_even", [(3, 2), (5, 2), (5, 4)]),
        ("Wbar_even_odd", [(2, 1), (4, 1), (4, 3)]),
    ]
    for tag, pairs in regimes:
        for k, a in pairs:
            gp = GordonParams(k, a)
            report = verify(IdentitySpec(tag, gp, ORDER))
            if not report.equal:
                failures.append(f"{tag} (k={k}, a={a}) sides differ")
                continue
            for n in range(ORDER):
                if report.lhs.coefficient(n) != count_Wbar(n, gp):
                    failures.append(f"{tag} (k={k}, a={a}) count_Wbar mismatch at n={n}")
                    break
    _criterion(
        4,
        "even-multiplicity-of-odd-parts multisum equals its product below "
        f"q^{ORDER} and matches count_Wbar for every n < {ORDER} in both parity regimes, k <= 5",
        not failures,
        "; ".join(failures),
    )


def test_criterion_05_path_counts_match_multisum():
    """Path generating function equals the parity multisum coefficientwise."""
    failures = []
    bounds = {(2, 1): 24, (3, 2): 24, (4, 1): 20, (4, 3): 20, (5, 2): 20}
    for (k, a), n_max in bounds.items():
        gp = GordonParams(k, a)
        series = eval_multisum_main(gp, n_max + 1)
        for n in range(n_max + 1):
            if count_S(n, gp) != series.coefficient(n):
                failures.append(
                    f"(k={k}, a={a}) n={n}: "
                    f"{count_S(n, gp)} paths vs coefficient {series.coefficient(n)}"
                )
                break
    _criterion(
        5,
        "admissible path counts equal the parity multisum coefficients "
        "(n <= 24 for k <= 3, else n <= 20) under the default E-step rule "
        "'each': every peak of relative height k or k-1 has a multiple of "
        "four E steps to its left",
        not failures,
        "; ".join(failures),
    )


def test_criterion_06_worked_example_replay():
    """The seven-peak construction at (5, 2) replays and reverses exactly."""
    gp = GordonParams(5, 2)
    data = ConstructionData(
        gp=gp,
        n=(3, 1, 1, 2),
        east_partition=(1, 0),
        uplift_set=frozenset({2}),
        right_moves=((4, 2, 0), (0,), (2,)),
    )
    path = forward_construct(data)
    peaks = path.peaks()
    ok = (
        tuple(x for x, _ in peaks) == (1, 5, 8, 11, 17, 25, 38)
        and path.relative_heights() == (1, 1, 2, 1, 3, 5, 4)
        and path.major_index == 105
        and data.weight() == 105
        and is_S_admissible(path, gp)
        and reverse_deconstruct(path, gp) == data
    )
    _criterion(
        6,
        "worked example at (5, 2): peak weights 1,5,8,11,17,25,38, relative "
        "heights 1,1,2,1,3,5,4, major index 105, admissible, and the reverse "
        "map recovers every construction choice",
        ok,
    )


def test_criterion_07_bijection_round_trip():
    """Every admissible path, major index <= 20, at every opposite-parity
    (k, a) with k <= 7, survives reverse-then-forward."""
    failures = []
    total = 0
    for k, a in ((k, a) for k in range(2, 8) for a in range(1, k + 1) if (k - a) % 2):
        gp = GordonParams(k, a)
        for path in enumerate_S_paths(20, gp):
            total += 1
            data = reverse_deconstruct(path, gp)
            if forward_construct(data) != path or data.weight() != path.major_index:
                failures.append(f"(k={k}, a={a}) {path}")
    _criterion(
        7,
        f"construction round trip holds for all {total} admissible paths "
        "of major index <= 20 at every opposite-parity (k, a) with k <= 7",
        not failures,
        "; ".join(failures),
    )


def test_criterion_08_bailey_chain_links():
    """Unit pair, base-doubled pair, and every chain link satisfy the relation."""
    failures = []
    if not check_pair(unit_pair(10, 40)):
        failures.append("unit pair fails its defining relation")
    for k, a in CHAIN_PAIRS:
        gp = GordonParams(k, a)
        chain = build_chain(gp, 10, 40)
        for label, bp in chain:
            if not check_pair(bp):
                failures.append(f"(k={k}, a={a}) step {label} breaks the relation")
        for label, bp in chain[1:]:
            if bp.order != 40:
                failures.append(f"(k={k}, a={a}) step {label} is known only below q^{bp.order}")
        first = chain[1][1]
        for n in range(11):
            expected = (
                invert_poch(PochSpec(1, 2, 2), first.order, n=n)
                .shift(n)
                .truncate(first.order)
            )
            if first.beta[n] != expected:
                failures.append(f"(k={k}, a={a}) beta^(1)_{n} is not q^n/(q^2;q^2)_n")
                break
        final = chain[-1][1]
        for n in range(7):
            if final.alpha[n] != closed_form_alpha(gp, n, final.order):
                failures.append(f"(k={k}, a={a}) alpha^(k)_{n} misses its closed form")
                break
    _criterion(
        8,
        "Bailey chains for (2,1), (3,2), (4,1), (5,2): every link satisfies "
        "the pair relation for n <= 10 at order 40 on the half-integer grid "
        "(every pair from D1 on known below q^40), "
        "beta after base doubling is q^n/(q^2;q^2)_n, and the endpoint alpha "
        "matches its closed form for n <= 6",
        not failures,
        "; ".join(failures),
    )


NEG_T = PochSpec(-1, 1, 2)  # (-t; t^2) in t = q^(1/2)
# criterion 09 reads the chain's limit below t^LIMIT_ORDER from pairs with n_max = LIMIT_NMAX
LIMIT_ORDER, LIMIT_NMAX = 201, 14


def _lemma_limit_sides(pair, order: int, with_poch: bool = True):
    """Both sides of Bailey's lemma at n -> infinity for an S2 step taken
    from ``pair``, as series in t = q^(1/2) on the integer grid below
    t^order, each half-grid slot s read as t^s:

    * the beta side, sum_n (-t; t^2)_n t^(n^2) beta_n;
    * the alpha side, (-t; t^2)_inf / (t^2; t^2)_inf * sum_n t^(n^2) alpha_n.

    A term with n > n_max starts at t^((n_max + 1)^2), so both sides are
    known below t^order only when (n_max + 1)^2 >= order, which is
    asserted.  ``with_poch=False`` drops (-t; t^2)_n, a negative control."""
    reach = len(pair.beta) ** 2
    assert reach >= order, f"terms past n_max start at t^{reach}, below t^{order}"
    beta_side = alpha_side = Series.zero(order)
    for n, (alpha, beta) in enumerate(zip(pair.alpha, pair.beta)):
        term = rescale(beta, 2).shift(n * n)
        beta_side += term * poch_finite(NEG_T, n, order) if with_poch else term
        alpha_side += rescale(alpha, 2).shift(n * n)
    prefactor = poch_infinite(NEG_T, order) * invert_poch(PochSpec(1, 2, 2), order)
    return beta_side, prefactor * alpha_side


def _chain_pair(gp, n_max: int, order: int, at: int = -2):
    """Pair ``at`` of the chain for gp, by default the one before its
    final S2, with every series known below t^order."""
    return build_chain(gp, n_max, Fraction(order, 2))[at][1]


def test_criterion_09_chain_limit_reproduces_identity():
    """The chain's own limit, by Bailey's lemma at n -> infinity, gives
    the Main sum and product in t = q^(1/2); beta_20 reaches the limit's
    sum side, and the half-grid limit rescaled by q -> q^2 gives both
    sides of the parity identity."""
    failures = []
    for k, a in CHAIN_PAIRS:
        gp = GordonParams(k, a)
        sides = _lemma_limit_sides(_chain_pair(gp, LIMIT_NMAX, LIMIT_ORDER), LIMIT_ORDER)
        mains = eval_multisum_main(gp, LIMIT_ORDER), eval_product_side("Main", gp, LIMIT_ORDER)
        for name, side, main in zip(("beta side", "alpha side"), sides, mains):
            if side.order < LIMIT_ORDER:
                failures.append(f"(k={k}, a={a}) the {name} is known only below t^{side.order}")
            elif side != main:
                first = side.first_discrepancy(main)
                failures.append(f"(k={k}, a={a}) the {name} differs from the Main row at t^{first}")
    # (-q^(1/2); q)_inf (q; q)_inf below q^20; the first is (-t; t^2)_inf in t = q^(1/2)
    limit_factor = rescale(poch_infinite(NEG_T, 40), Fraction(1, 2)) * poch_infinite(PochSpec(1, 1, 1), 20)
    for k, a in CHAIN_PAIRS:
        gp = GordonParams(k, a)
        half_lhs, half_rhs = limit_identity(gp, 20)
        reached = build_chain(gp, 20, 40)[-1][1].beta[20] * limit_factor
        window = min(reached.order, half_lhs.order)
        if window < 20:
            failures.append(f"(k={k}, a={a}) beta_20 limit known only below q^{window}")
        if reached != half_lhs:
            failures.append(
                f"(k={k}, a={a}) beta_20 times the limit factor differs from the limit's sum side"
                f" at q^{reached.first_discrepancy(half_lhs)}"
            )
        lhs, rhs = rescale(half_lhs, 2), rescale(half_rhs, 2)
        if min(lhs.order, rhs.order) < 40:
            failures.append(f"(k={k}, a={a}) limit known only below q^{min(lhs.order, rhs.order)}")
        if lhs != eval_multisum_main(gp, 40):
            failures.append(f"(k={k}, a={a}) rescaled sum side differs")
        if rhs != eval_product_side("Main", gp, 40):
            failures.append(f"(k={k}, a={a}) rescaled product side differs")
    _criterion(
        9,
        "for the four chain pairs, Bailey's lemma at n -> infinity read off "
        f"the pair before the final S2 (n_max = {LIMIT_NMAX}) gives the Main sum "
        f"and product below t^{LIMIT_ORDER}, t = q^(1/2); beta_20 of the chain "
        "times (-q^(1/2); q)_inf (q; q)_inf equals the limit's sum side below "
        "q^20, and the limit identity rescaled by q -> q^2 gives both sides "
        "of the parity-restricted identity below q^40",
        not failures,
        "; ".join(failures),
    )


def test_criterion_09_chain_limit_is_not_vacuous():
    """At (7, 2) below t^101 with n_max = 10: a flipped alpha_3 fails the
    alpha side only, a dropped (-t; t^2)_n the beta side only, and the
    pair one S2 earlier fails both."""
    gp, order = GordonParams(7, 2), 101
    main = eval_multisum_main(gp, order), eval_product_side("Main", gp, order)

    def matches(pair, **kw):
        return tuple(side == want for side, want in zip(_lemma_limit_sides(pair, order, **kw), main))

    pair = _chain_pair(gp, 10, order)
    flipped = BaileyPair(pair.alpha[:3] + (-pair.alpha[3],) + pair.alpha[4:], pair.beta)
    assert matches(pair) == (True, True)
    assert matches(flipped) == (True, False)
    assert matches(pair, with_poch=False) == (False, True)
    assert matches(_chain_pair(gp, 10, order, at=-3)) == (False, False)


def test_criterion_10_property_suites():
    """Ring axioms, Pochhammer recurrence, triple product, count monotonicity."""
    failures = []

    rng = random.Random(20250816)

    def rand_series() -> Series:
        return Series.from_terms(
            [(e, rng.randint(-5, 5)) for e in range(30)], 30
        )

    one = Series.from_terms([(0, 1)], 30)
    for i in range(1000):
        f, g, h = rand_series(), rand_series(), rand_series()
        if (f + g) + h != f + (g + h):
            failures.append(f"addition not associative (triple {i})")
            break
        if f * g != g * f or (f * g) * h != f * (g * h):
            failures.append(f"multiplication not commutative/associative (triple {i})")
            break
        if f * (g + h) != f * g + f * h:
            failures.append(f"distributivity fails (triple {i})")
            break
        if one * f != f:
            failures.append(f"unit law fails (triple {i})")
            break

    for spec in (
        PochSpec(1, 1, 1),
        PochSpec(-1, 1, 1),
        PochSpec(1, 2, 2),
        PochSpec(-1, 1, 2),
        PochSpec(-1, 3, 2),
    ):
        for n in range(1, 21):
            step = Series.from_terms(
                [(0, 1), (spec.exponent + spec.base * (n - 1), -spec.sign)], 30
            )
            if poch_finite(spec, n, 30) != poch_finite(spec, n - 1, 30) * step:
                failures.append(f"Pochhammer recurrence fails for {spec} at n={n}")
                break

    for e1, e3 in ((1, 2), (1, 3), (2, 3), (1, 5), (2, 5), (3, 7), (5, 12)):
        if triple_product(e1, e3 - e1, e3, 60) != theta_sum(e1, e3, 60):
            failures.append(f"triple product vs theta sum differ for ({e1}, {e3})")

    for n in range(26):
        for k in range(2, 6):
            for a in range(1, k):
                if count_B(n, (k, a)) > count_B(n, (k, a + 1)):
                    failures.append(f"count_B not monotone in a at (n={n}, k={k}, a={a})")
        for k in range(2, 5):
            for a in range(1, k + 1):
                if count_B(n, (k, a)) > count_B(n, (k + 1, a)):
                    failures.append(f"count_B not monotone in k at (n={n}, k={k}, a={a})")
    _criterion(
        10,
        "property suites: ring axioms on 1000 seeded random triples at order "
        "30, Pochhammer recurrence to n = 20, triple product vs theta sum "
        "below q^60, and count_B monotonicity in both parameters to n = 25",
        not failures,
        "; ".join(failures[:4]),
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
