"""The Tamari congruences of the weak orders, spelled out for the tests.

The program reads Tamari covers and projections off its own rules; these
are the tests' independent side.  A congruence move swaps an adjacent
descent (c, a) that has a witness b with a < b < c: in type A any b after
the pair; in type B a large b (b >= n+1) at or after a's position, or a
small one at or before it, and the move is made together with its mirror.
Each rule is tested here as stated, sharing no predicate with the program's
rewriting.  The class-minimum and class-maximum projections build the
ambient weak order with the reference lattice, so they share no code with
the kernel either.
"""
from poplat.signed import large_blocks, validate_signed
from poplat.tamari import hong_image_predicate, pop_tam_b
from poplat.words import check_permutation, index_of, reduction
from reference import _weak_a_pairs, _weak_b_pairs, reference_build


def large_half(x):
    """The entries >= n+1 of a rank-n x, in position order."""
    return tuple(v for v in x if v > len(x) // 2)


def tam_a_adjacent(p):
    """One-step congruence moves: swap adjacent (c, a) with witness a<b<c after."""
    out = []
    for i in range(len(p) - 1):
        c, a = p[i], p[i + 1]
        if c > a and any(a < b < c for b in p[i + 2 :]):
            q = list(p)
            q[i], q[i + 1] = a, c
            out.append(tuple(q))
    return out


def movable_b(x, i):
    """Is the adjacent descent at 0-based (i, i+1) a type-B congruence move?"""
    n = len(x) // 2
    c, a = x[i], x[i + 1]
    if c <= a:
        return False
    pos = {v: t for t, v in enumerate(x)}
    return any(
        (b >= n + 1 and pos[b] >= i + 1) or (b <= n and pos[b] <= i + 1)
        for b in range(a + 1, c)
    )


def _signed_double_swap(x, i):
    """Swap positions (i, i+1), 0-based, together with the mirrored pair."""
    y = list(x)
    y[i], y[i + 1] = y[i + 1], y[i]
    mi = len(x) - 2 - i
    if mi != i:
        y[mi], y[mi + 1] = y[mi + 1], y[mi]
    return tuple(y)


def tam_b_adjacent(x):
    """One-step congruence moves in the signed weak order (with mirror swaps)."""
    return [_signed_double_swap(x, i) for i in range(len(x) - 1) if movable_b(x, i)]


def project_tam_a_by_classes(n, up=False):
    """Class-minimum oracle over the full weak order on S_{n+1}; with `up`,
    the class-maximum oracle."""
    return reference_build(*_weak_a_pairs(n + 1)).congruence_classes(tam_a_adjacent, up)


def project_tam_b_by_classes(n, up=False):
    """Class-minimum oracle over the full signed weak order of rank n; with
    `up`, the class-maximum oracle."""
    return reference_build(*_weak_b_pairs(n)).congruence_classes(tam_b_adjacent, up)


def tam_b_image_predicate_as_printed(x):
    """Literal mixed-statement reading of the type-B image test: the block
    condition evaluated on pop(x) instead of on x.

    It wrongly accepts some non-image elements (smallest case: 2143 at rank
    2), which the tests pin down.
    """
    x = validate_signed(x)
    n = len(x) // 2
    if n == 0:
        return True
    if index_of(x, 2 * n) < n + 1:
        return False
    return all(
        hong_image_predicate(reduction(block)) for block in large_blocks(pop_tam_b(x))
    )


def adjacency_chain(x, y, z):
    """Lift a single type-A congruence move to a chain of type-B moves.

    Given adjacent x -> y in the type-A congruence (swap of one adjacent
    descent with a later witness) and z whose large-entry pattern is x, walk
    the high value rightward past the small entries separating it from its
    partner, then swap the pair; every step is a legal type-B move and the
    endpoint's large-entry pattern is y.
    """
    x = check_permutation(x)
    y = check_permutation(y)
    z = validate_signed(z)
    n = len(z) // 2
    diff = [i for i in range(len(x)) if x[i] != y[i]]
    if len(diff) != 2 or diff[1] != diff[0] + 1:
        raise ValueError("x and y must differ by one adjacent swap")
    i = diff[0]
    c, a = x[i], x[i + 1]
    if not (a < c and y[i] == a and y[i + 1] == c):
        raise ValueError("x -> y must swap a descent (c, a) to (a, c)")
    if not any(a < b < c for b in x[i + 2 :]):
        raise ValueError("no witness between the swapped values occurs later")
    if reduction(large_half(z)) != x:
        raise ValueError("z's large-entry pattern must equal x")

    big_c, big_a = c + n, a + n
    chain = [z]
    cur = z
    while True:
        pos = cur.index(big_c)
        if cur[pos + 1] == big_a:
            break
        if cur[pos + 1] > n:
            raise ValueError("unexpected large entry between the pair")
        if not movable_b(cur, pos):
            raise ValueError(f"illegal intermediate move at {cur}")
        cur = _signed_double_swap(cur, pos)
        chain.append(cur)
    pos = cur.index(big_c)
    if not movable_b(cur, pos):
        raise ValueError(f"final swap not legal at {cur}")
    cur = _signed_double_swap(cur, pos)
    chain.append(cur)
    assert reduction(large_half(cur)) == y, (cur, y)
    return chain
