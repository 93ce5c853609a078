"""The Hayes class group on integer class ids against its Poly reference.

The reference below is the class group that `polynomials` had before it ran
on integer ids: a `HayesLabel` object per class holding the window as
`GRElem`s and the residue as a `Poly`, one canonical `Poly` per class,
products as `Poly` products reduced through the representatives, and the
greedy `basis()` with its discrete-log table on labels.  The comparison runs
over F_3 with l <= 3 and H in {1, x, x^2, x + 1, x^2 + 1}, and over F_9
with l <= 1 and H in {1, x}.  With H = x^2 + 1 and l >= 2 the greedy has
to adjust a generator: its power lands in the subgroup off the identity.
"""

import itertools
import random

import pytest

from padicmat.galois_rings import RingContext
from padicmat.polynomials import (
    HayesClassGroup,
    Poly,
    _euler_phi_poly,
    hayes_characters,
    hayes_label,
    monic_polys,
)

F3 = RingContext(3, 1, 1)
F9 = RingContext(3, 2, 1)


class _RefLabel:
    __slots__ = ("l", "H", "window", "residue")

    def __init__(self, l, H, window, residue):
        self.l = l
        self.H = H
        self.window = tuple(window)
        self.residue = residue

    def __eq__(self, other):
        return (isinstance(other, _RefLabel)
                and (self.l, self.H, self.window, self.residue)
                == (other.l, other.H, other.window, other.residue))

    def __hash__(self):
        return hash((self.l, self.H, self.window, self.residue))


def _ref_label(f, l, H):
    window = [f.coeff(f.degree - j) for j in range(1, l + 1)]
    return _RefLabel(l, H, window,
                     f % H if H.degree >= 1 else Poly(f.ctx, []))


class _RefGroup:
    def __init__(self, ctx, l, H):
        self.ctx, self.l, self.H = ctx, l, H
        self.order = ctx.q ** l * _euler_phi_poly(H)
        self._reps = {}
        residues = [Poly(ctx, list(r)) for r in
                    itertools.product(list(ctx.elements()), repeat=H.degree)]
        for window in itertools.product(list(ctx.elements()), repeat=l):
            for r in residues:
                if r.gcd(H).degree != 0:
                    continue
                rep = self._canonical(window, r)
                self._reps[_ref_label(rep, l, H)] = rep
        assert len(self._reps) == self.order

    def _canonical(self, window, residue):
        ctx, H = self.ctx, self.H
        f = Poly(ctx, [0] * H.degree + list(window[::-1]) + [1])
        return f + (residue - f % H) % H

    def label(self, f):
        return _ref_label(f, self.l, self.H)

    def rep(self, f):
        return self._reps[self.label(f)]

    def mul(self, f, g):
        return self.rep(self.rep(f) * self.rep(g))

    def identity(self):
        return self._canonical((self.ctx.zero(),) * self.l,
                               Poly(self.ctx, [1]) % self.H)

    def elements(self):
        return list(self._reps.values())

    def power(self, g, e):
        acc = self.identity()
        for _ in range(e):
            acc = self.mul(acc, g)
        return acc

    def basis(self):
        lab = self.label

        def order_mod(g, subgroup):
            acc, t = g, 1
            while lab(acc) not in subgroup:
                acc, t = self.mul(acc, g), t + 1
            return t, acc

        basis, subgroup = [], {lab(self.identity()): ()}
        while len(subgroup) < self.order:
            best, best_t = None, 0
            for g in self.elements():
                t, _ = order_mod(g, subgroup)
                if t > best_t:
                    best, best_t = g, t
            g, t = best, best_t
            _, gt = order_mod(g, subgroup)
            adj = g
            for (h, n_h), e in zip(basis, subgroup[lab(gt)]):
                assert e % t == 0
                adj = self.mul(adj, self.power(h, (-(e // t)) % n_h))
            basis.append((adj, t))
            new = {}
            for labk, exps0 in subgroup.items():
                acc = self._reps[labk]
                for e in range(t):
                    new[lab(acc)] = exps0 + (e,)
                    acc = self.mul(acc, adj)
            subgroup = new
        return basis, subgroup


def _cases():
    for ctx, top_l, top_deg, Hs in (
            (F3, 3, 4, ([1], [0, 1], [0, 0, 1], [1, 1], [1, 0, 1])),
            (F9, 1, 2, ([1], [0, 1]))):
        for l, H in itertools.product(range(top_l + 1), Hs):
            yield pytest.param(ctx, l, Poly(ctx, H), top_deg,
                               id="q%d-l%d-H%s" % (ctx.q, l, "".join(
                                   map(str, H))))


@pytest.mark.parametrize("ctx,l,H,top_deg", list(_cases()))
def test_id_group_matches_the_poly_reference(ctx, l, H, top_deg):
    ref = _RefGroup(ctx, l, H)
    group = HayesClassGroup(ctx, l, H)
    assert group.order == ref.order
    assert group.elements() == ref.elements()

    # labels agree on every pair of monics of degree <= top_deg: the pairs
    # (label, reference label) are a bijection between the two label sets
    monics = [f for n in range(top_deg + 1) for f in monic_polys(ctx, n)]
    pairs = {(hayes_label(f, l, H), ref.label(f)) for f in monics}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})

    # the same greedy gives the reference's generator orders and logs, and
    # the log table is an isomorphism onto prod Z/n_i
    orders, log = group._structure
    ref_basis, ref_log = ref.basis()
    assert orders == [t for _, t in ref_basis]
    assert log == [ref_log[ref.label(f)] for f in ref.elements()]
    assert sorted(log) == list(itertools.product(*map(range, orders)))
    units = [f for f in monics if f.gcd(H).degree == 0]
    rng = random.Random(18)
    for _ in range(200):
        f, g = rng.choice(units), rng.choice(units)
        lf, lg, lfg = (log[group._ids[hayes_label(h, l, H)]]
                       for h in (f, g, f * g))
        assert lfg == tuple((a + b) % n for a, b, n in zip(lf, lg, orders))

    chars = hayes_characters(ctx, l, H)
    assert len(chars) == ctx.q ** l * _euler_phi_poly(H)
    assert sum(chi.is_trivial() for chi in chars) == 1
