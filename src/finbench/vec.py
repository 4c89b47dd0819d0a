"""F_q vector spaces, q in {2, 3}, presented by dimension: the categories
``vec2`` and ``vec3``.

They live apart from finbench.cats because one certificate, the F_q
strictness witness, uses them: a process loads this module when it first
reads ``finbench.VEC2`` or ``VEC3``, looks up ``vec2`` or ``vec3`` with
``core.lookup_category`` (through ``core.CATEGORY_MODULES``), or imports it.
"""

from __future__ import annotations

import itertools

from .core import Category, Mor, Obj, canon, elem_key, register_category


class VecCat(Category):
    """F_q vector spaces; objects are full coordinate spaces, with vectors as
    the carrier so that the generic machinery applies.  Spans, coordinates,
    complements and subspace lists come from one Gauss-Jordan kernel,
    ``echelon``, and a subspace is presented by its reduced echelon basis."""

    def __init__(self, q: int):
        if q not in (2, 3):
            raise ValueError("supported field orders: 2, 3")
        self.q = q
        self.name = f"vec{q}"

    def obj(self, dim: int) -> Obj:
        carrier = canon(itertools.product(range(self.q), repeat=dim))
        return Obj(self.name, carrier, ("q", self.q, "dim", dim))

    def rebuild(self, carrier, structure) -> Obj:
        # build no more vectors than the carrier lists
        dim = structure[3]
        if dim not in range(len(carrier).bit_length()) or self.q ** dim != len(carrier):
            raise ValueError("carrier is not a whole coordinate space")
        return self.obj(dim)

    def dim(self, X):
        return X.structure[3]

    def add(self, u, v):
        return tuple((a + b) % self.q for a, b in zip(u, v))

    def scale(self, c, u):
        return tuple((c * a) % self.q for a in u)

    def zero(self, dim):
        return (0,) * dim

    def preserves_structure(self, f):
        # a map is linear iff it is the linear extension of its basis images
        cols = [f(e) for e in self.basis_vectors(self.dim(f.dom))]
        return f.mapping == self._linear_images(f.dom, cols, self.dim(f.cod))

    def _linear_images(self, X, cols, dim):
        """The images of X.carrier, in order, under the linear map into F_q^dim
        sending the i-th standard basis vector to cols[i].  One step per
        vector: f(u) = f(u - u_p e_p) + u_p f(e_p) at the last nonzero
        coordinate p of u, and u - u_p e_p comes earlier in the
        lexicographic carrier."""
        image = {}
        for u in X.carrier:
            nonzero = [i for i, a in enumerate(u) if a]
            if not nonzero:
                image[u] = self.zero(dim)
                continue
            p = nonzero[-1]
            before = image[u[:p] + (0,) * (len(u) - p)]
            image[u] = self.add(before, self.scale(u[p], cols[p]))
        return tuple(image.values())

    def basis_vectors(self, dim):
        return [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]

    def from_matrix(self, dom: Obj, cod: Obj, cols) -> Mor:
        """Linear map sending the i-th standard basis vector to cols[i]."""
        return Mor(dom, cod, self._linear_images(dom, cols, self.dim(cod)))

    def hom_set(self, X, Y):
        return [self.from_matrix(X, Y, cols)
                for cols in itertools.product(Y.carrier, repeat=self.dim(X))]

    def echelon(self, rows):
        """Gauss-Jordan elimination over F_q: the nonzero rows of the reduced
        row echelon form of `rows`, sorted by pivot, and their pivot columns.
        Each new row is cleared at the pivots so far, scaled to a leading 1,
        and then cleared from the earlier rows."""
        q = self.q
        basis, pivots = [], []
        for v in rows:
            for b, p in zip(basis, pivots):
                c = v[p]
                v = [(a - c * bb) % q for a, bb in zip(v, b)]
            p = next((i for i, a in enumerate(v) if a), None)
            if p is None:
                continue
            inv = pow(v[p], -1, q)
            v = [a * inv % q for a in v]
            basis = [[(a - b[p] * vv) % q for a, vv in zip(b, v)] for b in basis]
            basis.append(v)
            pivots.append(p)
        order = sorted(range(len(basis)), key=pivots.__getitem__)
        return [tuple(basis[i]) for i in order], [pivots[i] for i in order]

    def complement_basis(self, basis, dim):
        """Extend an independent set to a basis with each standard vector, in
        turn, that lies outside the span so far."""
        full = list(basis)
        for e in self.basis_vectors(dim):
            if len(self.echelon(full + [e])[0]) > len(full):
                full.append(e)
        return full[len(basis):]

    def standard_coords(self, basis, dim):
        """Row i: the coordinates of the i-th standard vector in `basis` and
        then its complement_basis, the right half of [those rows | I] reduced."""
        full = basis + self.complement_basis(basis, dim)
        rows, _ = self.echelon(b + e for b, e in zip(full, self.basis_vectors(dim)))
        return [r[dim:] for r in rows]

    def factorize(self, f):
        """Image presented by its reduced echelon basis; a vector of the
        image has its entries at the pivot columns as coordinates."""
        cols = [f(e) for e in self.basis_vectors(self.dim(f.dom))]
        basis, pivots = self.echelon(cols)
        m = self.from_matrix(self.obj(len(basis)), f.cod, basis)
        return self.from_matrix(f.dom, m.dom, [[c[p] for p in pivots] for c in cols]), m

    def coequalizer(self, f, g):
        """Cokernel of f - g: quotient by the spanned difference subspace."""
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("not a parallel pair")
        dimc = self.dim(f.cod)
        diffs = [self.add(f(u), self.scale(self.q - 1, g(u))) for u in f.dom.carrier]
        wbasis, _ = self.echelon(diffs)
        cols = [c[len(wbasis):] for c in self.standard_coords(wbasis, dimc)]
        return self.from_matrix(f.cod, self.obj(dimc - len(wbasis)), cols)

    def subobjects_fg(self, X, bound=None):
        """One mono per subspace, from its reduced echelon basis: each pivot
        set with every choice of entries right of a pivot in the non-pivot
        columns; with a bound, the subspaces of at most bound vectors."""
        n = self.dim(X)
        monos = []
        for r in range(n + 1):
            if bound is not None and self.q ** r > bound:
                break
            for pivots in itertools.combinations(range(n), r):
                free = [(i, c) for i, p in enumerate(pivots)
                        for c in range(p + 1, n) if c not in pivots]
                for entries in itertools.product(range(self.q), repeat=len(free)):
                    rows = [[int(c == p) for c in range(n)] for p in pivots]
                    for (i, c), a in zip(free, entries):
                        rows[i][c] = a
                    monos.append(self.from_matrix(self.obj(r), X, rows))
        return sorted(monos, key=lambda m: elem_key(canon(m.mapping)))

    def retraction(self, b):
        """(m, f): m the embedding of b's image by its reduced echelon basis,
        f the projection onto it along a standard complement."""
        m = self.factorize(b)[1]
        return m, self.projection_onto(m)

    def projection_onto(self, sub_mono: Mor) -> Mor:
        """Retraction of a subspace embedding along a standard complement."""
        basis = [sub_mono(b) for b in self.basis_vectors(self.dim(sub_mono.dom))]
        cols = [c[: len(basis)] for c in self.standard_coords(basis, self.dim(sub_mono.cod))]
        return self.from_matrix(sub_mono.cod, sub_mono.dom, cols)


VEC2 = register_category(VecCat(2))
VEC3 = register_category(VecCat(3))
