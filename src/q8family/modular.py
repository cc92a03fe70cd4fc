"""Exact inner products of Galois-closed class functions, decided in F_l.

Every value of a character of G = (C_p x C_p) : Q8 lies in Z[zeta_p].  The
sums that certify the table are integers or small elements of Z[zeta_p],
so they can be read off from their images under a ring map
Z[zeta_p] -> F_l (Dixon, "High speed computation of group characters",
Numer. Math. 10, 1967; Schneider, "Dixon's character table algorithm
revisited", J. Symb. Comput. 9, 1990).  A value enters as a `RootSum`,
a count vector c in Z^p naming sum_e c_e zeta^e (`count_vector` refuses
anything else), so it lies in Z[zeta_p] by construction; as
1 + zeta + ... + zeta^(p-1) = 0 spans the relations, two vectors name the
same element exactly when they differ by a constant vector.  Why one
residue decides each sum, with every step checked at run time when an
image is built:

1. Galois closure and realness, checked on the counts.  Let g generate
   (Z/p)^*, sigma_g the automorphism zeta -> zeta^g, and pi the class
   permutation induced by v -> g v on V (the identity off V).  pi must be
   a bijection preserving class sizes and centralizer orders and
   commuting with the square map (sq(pi K) = pi(sq K)); and
   sigma_g(f(K)) = f(pi K) for every function f and class K, checked as:
   the counts of f(K) moved by e -> g e, minus the counts of f(pi K), are
   a constant vector (so re-representing a value is never a false
   rejection).  Then f o sq is Galois-closed too, since
   sigma_g(f(sq K)) = f(pi sq K) = f(sq pi K), and the 0/1 mask of the
   classes inside V is pi-invariant, since pi maps classes of V to
   classes of V.  Each such f is real: g^((p-1)/2) = -1 mod p, so
   iterating the closure relation gives conj f(K) = sigma_(-1) f(K) =
   f(pi^((p-1)/2) K), and pi^((p-1)/2), the class permutation of
   v -> -v, is the identity, checked (-I lies in Q8, so v and -v share a
   class).  So conj(h(K)) = h(K), and every S = sum_K |K| f(K) conj(h(K))
   over such functions (f = chi^2, f = chi o sq with h = 1, h = the mask
   among them) is sum_K |K| f(K) h(K), fixed by sigma_g (sum over pi K
   instead of K): S is a rational algebraic integer, an integer.
2. Bound.  With m the largest l1-norm of a stored count vector,
   |f(K)| <= m, as roots of unity have absolute value 1, so
   |S| <= |G| m^3 <= B with B = max(|G| m^3, 2 n m^2 + max |C(K)|, 1) for
   n functions; the Gram, indicator and restriction sums are smaller
   (m is 0 or at least 1).  Table rows have m = 8 (8 labels per orbit),
   so l has 27 bits even at p = 97.
3. Modulus.  l is a prime with l = 1 (mod p) and l > 2B, and w has order
   p mod l, so 1 + w + ... + w^(p-1) = 0 mod l and zeta -> w is a ring map
   sending sum_e c_e zeta^e to sum_e c_e w^e and S to S mod l.  The
   residue of absolute value below l/2 is S itself.
4. Second orthogonality, checked only as `selftest`'s oracle, since
   `verify` derives it from the first (`characters._second_orthogonality`).
   A column sum T(K, K') = sum_chi chi(K) conj(chi(K')) = sum_chi
   chi(K) chi(K') (step 1) is not rational, but it is symmetric in K and
   K', sigma_g T(K, K') = T(pi K, pi K') and pi preserves centralizer
   orders, so checking D = T - delta |C(K)| against w for every unordered
   pair of classes checks D at all p - 1 primes of Z[zeta_p] above l.
   Then every power-basis coefficient of D is divisible by l.  T has a
   count vector t of l1-norm at most n m^2 (a sum of n products of two
   vectors of l1-norm at most m), so each coefficient t_i - t_(p-1), less
   delta |C(K)| at i = 0, is at most 2 n m^2 + max |C(K)| <= B < l/2 in
   absolute value, and D = 0.
5. Packing (Kronecker substitution; Harvey, "Faster polynomial
   multiplication via multipoint Kronecker substitution", 2009).  The
   certified sums come in batches S_h = sum_K |K| f(K) h(K), one f
   against many h, each decided mod l.  `exact_sums` packs column K of
   the residues of the image's n functions into one integer,
   C_K = sum_j r_jK 2^(b j), and makes one accumulation
   A = sum_K (|K| f(K)) C_K, which holds sum_K |K| f(K) r_jK in slot j
   for every j at once.  Why it is exact: every f(K) and r_jK is reduced into
   [0, l) and every |K| is positive (checked when the image is built), so
   each term lies in [0, |K| l^2) and slot j holds an integer in
   [0, n_classes max|K| l^2).  `slot_bits` picks b with 2^b above that
   bound, so no slot carries into the next, and `int.to_bytes` splits A
   into its slots.  Slot j reduced mod l is S_(h_j) mod l, and by steps 2
   and 3 its residue of absolute value below l/2 is the integer S_(h_j).

`image_of` keeps the last image on its class table and serves it again
while the requested functions are all, by identity, functions it was
built from, so a table assembled once shares one embedding, and one set of
packed columns, across first orthogonality, the indicators, every label
and `selftest`'s column sums.  Functions are held by reference and must be
tuples to be shared; a table rebuilt with other rows gets a fresh image.
A table's equal values are one shared object (`characters.induced_values`),
so the image checks closure once per pair of objects (f(K), f(pi K)) and
computes one residue per object, keyed on identity: equal inputs get the
same maps, so the sharing never touches exactness.
"""

from itertools import chain
from operator import itemgetter, mul, sub

from .cyclotomic import RootSum
from .errors import InvariantError
from .modp import is_odd_prime


def primitive_root(p):
    """The least generator of (Z/p)^* for an odd prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and (q == 2 or is_odd_prime(q))]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InvariantError(f"no primitive root mod {p}")


def split_prime(p, bound):
    """(l, w): the least prime l = 1 (mod p) with l > 2 bound, and w of order p mod l."""
    ell = 2 * bound + 1
    ell += (1 - ell) % p
    while not is_odd_prime(ell):
        ell += p
    for a in range(2, ell):
        w = pow(a, (ell - 1) // p, ell)
        if w != 1:
            return ell, w
    raise InvariantError(f"no element of order {p} mod {ell}")


def galois_class_permutation(ct):
    """(g, pi): a generator g of (Z/p)^* and the class permutation of v -> g v.

    pi is the identity off V.  Raises unless pi is a bijection that
    preserves class sizes and centralizer orders, commutes with the square
    map, and composed (p - 1)/2 times is the identity: then every
    Galois-closed class function is real (step 1 above).
    """
    p = ct.p
    g = primitive_root(p)
    perm = []
    for k in range(ct.n_classes):
        e = ct.rep_element(k)
        if ct.group.in_core(e):
            perm.append(ct.class_of_element((g * e[0] % p, g * e[1] % p) + e[2:]))
        else:
            perm.append(k)
    if sorted(perm) != list(range(ct.n_classes)):
        raise InvariantError("the Galois action on V does not permute the classes")
    if any(ct.sizes[pk] != ct.sizes[k] for k, pk in enumerate(perm)):
        raise InvariantError("the Galois class permutation does not preserve class sizes")
    if any(ct.centralizer_orders[pk] != ct.centralizer_orders[k] for k, pk in enumerate(perm)):
        raise InvariantError("the Galois class permutation does not preserve centralizer orders")
    if any(ct.square_map[pk] != perm[ct.square_map[k]] for k, pk in enumerate(perm)):
        raise InvariantError("the Galois class permutation does not commute with the square map")
    negation = list(range(ct.n_classes))
    for _ in range((p - 1) // 2):
        negation = [perm[k] for k in negation]
    if negation != list(range(ct.n_classes)):
        raise InvariantError("the Galois class permutation of v -> -v is not the identity, "
                             "so closed class functions need not be real")
    return g, perm


def count_vector(value, p):
    """The p root counts of a RootSum of the prime p; refuses any other value."""
    if not (isinstance(value, RootSum) and value.p == p):
        raise InvariantError(f"value {value!r} is not a RootSum with p = {p}")
    return value.counts


def slot_bits(n_classes, max_size, ell):
    """The slot width b of `exact_sums`: whole bytes, the fewest with 2^b > n_classes max|K| l^2.

    2^b then exceeds the largest value a slot can hold (step 5), as
    2^b >= 2^bit_length(top) > top.
    """
    top = n_classes * max_size * ell * ell
    return -(-top.bit_length() // 8) * 8


class ModularImage:
    """Galois-closed class functions of one class table, sent into F_l.

    `residues[i][K]` is the image of f_i(K) under zeta -> w; f_i is real,
    so it is also the image of conj(f_i(K)).
    """

    def __init__(self, ct, functions):
        p, n = ct.p, ct.n_classes
        g, perm = galois_class_permutation(ct)
        # one count vector per distinct value object, in order of first use
        objects = {id(v): v for f in functions for v in f}
        counts = {key: count_vector(v, p) for key, v in objects.items()}
        # sigma_g: the count of zeta^j in sigma_g(x) is x's count of zeta^(j / g)
        galois = itemgetter(*(j * pow(g, -1, p) % p for j in range(p)))
        closed = set()  # pairs (id(f(K)), id(f(pi K))) already checked
        for i, f in enumerate(functions):
            if len(f) != n:
                raise InvariantError(f"class function {i} has {len(f)} values, "
                                     f"not one per class ({n})")
            for k, pair in enumerate(zip(map(id, f), map(id, map(f.__getitem__, perm)))):
                if pair in closed:
                    continue
                moved, target = galois(counts[pair[0]]), counts[pair[1]]
                if moved != target and len(set(map(sub, moved, target))) != 1:
                    raise InvariantError(
                        f"class function {i} is not Galois-closed at class {k}, "
                        "so its inner products are not rational")
                closed.add(pair)
        m = max((sum(map(abs, c)) for c in counts.values()), default=0)
        self.bound = max(ct.order * m ** 3,
                         2 * len(functions) * m * m + max(ct.centralizer_orders), 1)
        self.ell, self.w = split_prime(p, self.bound)
        if not all(0 < s < self.ell for s in ct.sizes):
            raise InvariantError("class sizes must be positive and below l")
        powers = [pow(self.w, i, self.ell) for i in range(p)]
        residue = {key: sum(map(mul, c, powers)) % self.ell for key, c in counts.items()}
        self.sizes = ct.sizes
        self.residues = [list(map(residue.__getitem__, map(id, f))) for f in functions]
        self._functions = tuple(functions)  # keeps every id above alive
        self._position = {id(f): i for i, f in enumerate(self._functions)}
        self._slot_bytes = slot_bits(n, max(ct.sizes), self.ell) // 8
        self._columns = None

    def position(self, f):
        """Index of f among the functions this image was built from, else None."""
        return self._position.get(id(f))

    def covers(self, functions):
        """True when every function is one of this image's, all immutable tuples."""
        return all(type(f) is tuple and id(f) in self._position for f in functions)

    def exact_sums(self, f, rows):
        """[sum_K |K| f(K) conj(h(K)) for h in rows], exact integers, by one packed accumulation.

        f is a class function in F_l, one residue per class; every h is one
        of this image's functions, so h is real.  Step 5 of the module's
        argument is why each result is exact.
        """
        ell, width = self.ell, self._slot_bytes
        if self._columns is None:  # C_K, built once per image
            text = {r: r.to_bytes(width, "little") for r in set(chain(*self.residues))}
            self._columns = [int.from_bytes(b"".join(map(text.__getitem__, column)), "little")
                             for column in zip(*self.residues)]
        weights = [s * (x % ell) for s, x in zip(self.sizes, f)]
        packed = sum(map(mul, weights, self._columns)).to_bytes(
            width * len(self.residues), "little")
        out = []
        for h in rows:
            start = self._position[id(h)] * width
            s = int.from_bytes(packed[start:start + width], "little") % ell
            out.append(s - ell if s > ell // 2 else s)
        return out


def image_of(ct, functions):
    """The class table's last image if it covers `functions`, else a new one kept on it."""
    image = ct.modular_image
    if image is None or not image.covers(functions):
        image = ct.modular_image = ModularImage(ct, functions)
    return image
