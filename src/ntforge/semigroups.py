"""Normal-form arithmetic for right LCM semigroups.

A right LCM semigroup here is a left-cancellative monoid in which the
intersection of two principal right ideals ``pP`` and ``qP`` is either empty
or again principal, ``rP``.  The generator ``r`` of the intersection -- a
right least common multiple of ``p`` and ``q`` -- is determined up to right
multiplication by an invertible element.  Each instance's ``_lcm`` hook
returns the canonical one (least in the instance's sort order within its unit
orbit), and every caller reads it there: none searches a unit orbit.

Shipped instances:

* :class:`DirectSumN` -- vectors in N^k under addition.
* :class:`FreeProduct` -- reduced alternating words over factors with
  trivial unit groups (free monoids arise as free products of copies of N).
* :class:`UnitExtension` -- the direct product of a trivial-unit instance
  with a finite abelian group, giving a nontrivial unit group.
* :class:`AbsorptionMonoid` -- pairs (k, m) with the absorbing rule
  ``(k,m)(l,n) = (k+l, n)`` for ``l > 0``; left cancellative but not right
  cancellative, and any two elements admit a right LCM.
* :class:`FiniteGroup` -- multiplication-table groups, where every element
  is a unit and every pair has ideal intersection equal to the whole group.

Elements are immutable and hashable; equality is equality of normal forms,
and the hash (that of the data) is computed once per element.

Each instance implements only hooks on normal-form data, with no checks:
``_mul``, ``_ldiv`` and ``_lcm`` (data in, data or ``None`` out), ``_length``,
``_key``, ``_exps`` and ``_fmt`` (data in, a value out) and ``_elements``
(all data up to a depth, in ``_key`` order), beside the constructors
``identity``, ``generators``, ``units`` and ``parse``.  The base class alone
defines the public methods on Elements: ``mul``, ``left_divide`` and
``right_lcm`` check the instance once per call and wrap the hook's result in
one :class:`Element`; ``elements`` wraps each element once.  Composite
instances call their factors' hooks directly.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re


class Element:
    """An element of a semigroup instance, stored in canonical normal form."""

    __slots__ = ("sg", "data", "_hash")

    def __init__(self, sg, data):
        self.sg = sg
        self.data = data
        # equal elements have equal data, so the data alone is a valid hash
        self._hash = hash(data)

    def __mul__(self, other):
        return self.sg.mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.data == other.data
            and (self.sg is other.sg or self.sg.tag == other.sg.tag)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.sg.format(self)


class MismatchError(ValueError):
    """Raised when elements of different semigroup instances are mixed."""


class RightLcmSemigroup:
    """Base class; concrete instances implement the abstract hooks below."""

    tag = "?"
    #: right cancellativity (left cancellativity always holds)
    right_cancellative = True

    # -- abstract hooks -----------------------------------------------------
    # identity, generators, units and parse build Elements.  The other hooks
    # take the normal-form data a, b of elements p, q and do no checks:
    #   _mul(a, b)       the data of p*q
    #   _ldiv(a, b)      the data of the unique r with p*r == q, or None
    #   _lcm(a, b)       the data of the canonical generator of pP & qP (the
    #                    least _key in its unit orbit {r*x : x in P*}), or None
    #   _length(a)       the word length of p
    #   _key(a)          the sort key of p: a total order, length first
    #   _exps(a)         abelianized generator multiplicities of p, aligned
    #                    with generators()
    #   _fmt(a)          the text of p that parse reads back
    #   _elements(depth) the data of every element of length <= depth, in
    #                    _key order

    def identity(self) -> Element:
        raise NotImplementedError

    def generators(self):
        raise NotImplementedError

    def units(self):
        """The unit group P*; trivial unless the instance overrides it."""
        return (self.identity(),)

    def parse(self, text: str) -> Element:
        raise NotImplementedError

    # -- shared layer -------------------------------------------------------

    def check_same(self, *els):
        for el in els:
            if el.sg is not self and el.sg.tag != self.tag:
                raise MismatchError(f"element {el!r} is not from instance {self.tag}")

    def el(self, data) -> Element:
        return Element(self, data)

    @functools.cached_property
    def one(self) -> Element:
        """identity(), built once per instance."""
        return self.identity()

    @functools.cached_property
    def unit_tuple(self) -> tuple:
        """units(), built once per instance."""
        return tuple(self.units())

    @functools.cached_property
    def trivial_units(self) -> bool:
        """P* = {e}: every unit orbit is a single element."""
        return len(self.unit_tuple) == 1

    def is_unit(self, p: Element) -> bool:
        return p in self.unit_tuple

    def length(self, p: Element) -> int:
        return self._length(p.data)

    def sort_key(self, p: Element):
        return self._key(p.data)

    def gen_exponents(self, p: Element):
        return self._exps(p.data)

    def format(self, p: Element) -> str:
        return self._fmt(p.data)

    def elements(self, depth: int):
        """All elements of word length <= depth, sorted by sort_key."""
        if depth < 0:
            raise ValueError(f"'depth' must be >= 0, got {depth}")
        return [Element(self, a) for a in self._elements(depth)]

    # the identity test settles elements of this very instance; any other
    # element takes the full tag check

    def mul(self, p: Element, q: Element) -> Element:
        if p.sg is not self or q.sg is not self:
            self.check_same(p, q)
        return Element(self, self._mul(p.data, q.data))

    def left_divide(self, p: Element, w: Element):
        """The unique r with p*r == w, or None.  Uniqueness is left cancellation."""
        if p.sg is not self or w.sg is not self:
            self.check_same(p, w)
        d = self._ldiv(p.data, w.data)
        return None if d is None else Element(self, d)

    def right_lcm(self, p: Element, q: Element):
        """Canonical generator of pP & qP, or None when the intersection is empty.

        Canonical means least sort_key in the unit orbit {r*x : x in P*}, as _lcm returns it.
        """
        if p.sg is not self or q.sg is not self:
            self.check_same(p, q)
        r = self._lcm(p.data, q.data)
        return None if r is None else Element(self, r)


class DirectSumN(RightLcmSemigroup):
    """N^k under componentwise addition; right LCM is the componentwise max."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.tag = f"N^{rank}"

    def identity(self):
        return self.el((0,) * self.rank)

    def _mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def _ldiv(self, a, b):
        diff = tuple(map(operator.sub, b, a))
        return diff if min(diff) >= 0 else None

    def _lcm(self, a, b):
        return tuple(map(max, a, b))

    def generators(self):
        out = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            out.append(self.el(tuple(v)))
        return out

    def _length(self, a):
        return sum(a)

    def _key(self, a):
        return (sum(a), a)

    def _exps(self, a):
        return a

    def _elements(self, depth):
        vs = itertools.product(range(depth + 1), repeat=self.rank)
        return sorted((v for v in vs if sum(v) <= depth), key=self._key)

    def parse(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        if self.rank == 1 and not text.startswith("("):
            return self.el((int(text),))
        body = text.strip("()")
        parts = tuple(int(t) for t in body.split(","))
        if len(parts) != self.rank:
            raise ValueError(f"expected {self.rank} components in {text!r}")
        return self.el(parts)

    def _fmt(self, a):
        if self.rank == 1:
            return str(a[0])
        return "(" + ",".join(str(c) for c in a) + ")"


class FiniteGroup(RightLcmSemigroup):
    """A group given by a multiplication table; every element is a unit."""

    def __init__(self, name, names, table):
        # table: dict (a, b) -> c on element names
        self.name = name
        self.names = tuple(names)
        if not all(isinstance(n, str) for n in self.names) or len(set(self.names)) != len(self.names):
            raise ValueError(f"group 'elements' must be distinct strings, got {list(self.names)!r}")
        self.table = dict(table)
        self.tag = f"group({name})"
        if not set(self.table.values()) <= set(self.names):
            raise ValueError("group 'table' is not closed")
        for x, y, z in itertools.product(self.names, repeat=3):
            if self.table[(self.table[(x, y)], z)] != self.table[(x, self.table[(y, z)])]:
                raise ValueError(f"group 'table' is not associative: ({x}*{y})*{z} != {x}*({y}*{z})")
        ident = None
        for x in self.names:
            if all(
                self.table[(x, y)] == y and self.table[(y, x)] == y
                for y in self.names
            ):
                ident = x
                break
        if ident is None:
            raise ValueError("multiplication table has no identity")
        self._ident = ident
        self._inv = {}
        for x in self.names:
            for y in self.names:
                if self.table[(x, y)] == ident:
                    self._inv[x] = y
        if set(self._inv) != set(self.names):
            raise ValueError("multiplication table is not a group")

    def identity(self):
        return self.el(self._ident)

    def _mul(self, a, b):
        return self.table[(a, b)]

    def inverse(self, p):
        return self.el(self._inv[p.data])

    def _ldiv(self, a, b):
        return self.table[(self._inv[a], b)]

    def _lcm(self, a, b):
        # pP & qP is the whole group; any element generates it.
        return self._ident

    def units(self):
        return tuple(self.el(n) for n in self.names)

    def generators(self):
        return []

    def _length(self, a):
        return 0

    def _key(self, a):
        # identity first, then by name; keeps canonical LCM == identity
        return (0 if a == self._ident else 1, a)

    def _exps(self, a):
        return ()

    def _elements(self, depth):
        return sorted(self.names, key=self._key)

    def parse(self, text):
        text = text.strip()
        if text == "e" and self._ident != "e" and text not in self.names:
            return self.identity()
        if text not in self.names:
            raise ValueError(f"unknown element {text!r} of {self.name}")
        return self.el(text)

    def _fmt(self, a):
        return a

    def is_abelian(self):
        return all(
            self.table[(x, y)] == self.table[(y, x)]
            for x in self.names
            for y in self.names
        )


def cyclic_group(n: int) -> FiniteGroup:
    names = [str(i) for i in range(n)]
    table = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    return FiniteGroup(f"Z{n}", names, table)


def klein_group() -> FiniteGroup:
    # Z/2 x Z/2 with names e,a,b,c
    names = ["e", "a", "b", "c"]
    idx = {n: i for i, n in enumerate(names)}
    bits = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    rev = {v: k for k, v in bits.items()}
    table = {}
    for x in names:
        for y in names:
            bx, by = bits[idx[x]], bits[idx[y]]
            table[(x, y)] = names[rev[((bx[0] + by[0]) % 2, (bx[1] + by[1]) % 2)]]
    return FiniteGroup("Z2xZ2", names, table)


def symmetric_group_3() -> FiniteGroup:
    perms = list(itertools.permutations((0, 1, 2)))
    names = {p: "e" if p == (0, 1, 2) else "s" + "".join(map(str, p)) for p in perms}
    table = {}
    for a in perms:
        for b in perms:
            c = tuple(a[b[i]] for i in range(3))
            table[(names[a], names[b])] = names[c]
    return FiniteGroup("S3", list(names.values()), table)


class FreeProduct(RightLcmSemigroup):
    """Free product of right LCM semigroups with trivial unit groups.

    Elements are reduced alternating words: tuples of blocks (i, x) where x is
    a non-identity normal form from factor i and adjacent blocks come from
    distinct factors.  A free monoid is the free product of copies of N named
    by letters, printed and parsed as words like "ab" and "a^2b"; any other
    instance prints blocks "name:text" with spaces between, so a name holds no
    ':' or space, and parses them through its factors' parse.
    """

    def __init__(self, factors, names=None):
        self.factors = list(factors)
        for f in self.factors:
            if len(f.units()) != 1:
                raise ValueError("free product factors must have trivial units")
        self.names = list(names) if names else [f"p{i}" for i in range(len(factors))]
        if (len(set(self.names)) != len(self.names) or len(self.names) != len(self.factors)
                or any(":" in n or len(n.split()) != 1 for n in self.names)):
            raise ValueError(
                f"free product 'names' must give one distinct name per factor, without ':' or "
                f"spaces: {self.names} for {len(self.factors)} factors"
            )
        self._letters = all(
            isinstance(f, DirectSumN) and f.rank == 1 for f in self.factors
        ) and all(len(n) == 1 and n.isascii() and n.isalpha() for n in self.names)
        self.tag = "free(" + ",".join(
            f"{n}:{f.tag}" for n, f in zip(self.names, self.factors)
        ) + ")"
        # factor i's generators start at _gen_offsets[i] in generators() order;
        # the last entry is the total
        self._gen_offsets = [0]
        for f in self.factors:
            self._gen_offsets.append(self._gen_offsets[-1] + len(f.generators()))

    def identity(self):
        return self.el(())

    def _mul(self, a, b):
        if not a:
            return b
        if not b:
            return a
        (i, x), (j, y) = a[-1], b[0]
        if i != j:
            return a + b
        return a[:-1] + ((i, self.factors[i]._mul(x, y)),) + b[1:]

    def _ldiv(self, a, b):
        n = len(a)
        if n == 0:
            return b
        if n > len(b) or a[: n - 1] != b[: n - 1]:
            return None
        (i, x), (j, y) = a[n - 1], b[n - 1]
        if i != j:
            return None
        f = self.factors[i]
        d = f._ldiv(x, y)
        if d is None:
            return None
        if d == f.one.data:
            return b[n:]
        return ((i, d),) + b[n:]

    def _lcm(self, a, b):
        n, m = len(a), len(b)
        if n > m:
            a, b, n, m = b, a, m, n
        if n == 0:
            return b
        (i, x), (j, y) = a[n - 1], b[n - 1]
        if i != j or a[: n - 1] != b[: n - 1]:
            return None
        f = self.factors[i]
        if m > n:
            # common multiples exist iff the last block of the shorter word
            # divides the matching block of the longer one, and then the
            # longer word generates the intersection
            return None if f._ldiv(x, y) is None else b
        # the factor has trivial units, so its raw LCM is already canonical
        r = f._lcm(x, y)
        return None if r is None else a[: n - 1] + ((i, r),)

    def generators(self):
        out = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                out.append(self.el(((i, g.data),)))
        return out

    def _length(self, a):
        return sum(self.factors[i]._length(x) for i, x in a)

    def _key(self, a):
        length = 0
        key = []
        for i, x in a:
            f = self.factors[i]
            length += f._length(x)
            key.append((i, f._key(x)))
        return (length, tuple(key))

    def _exps(self, a):
        offsets = self._gen_offsets
        exps = [0] * offsets[-1]
        for i, x in a:
            for k, v in enumerate(self.factors[i]._exps(x)):
                exps[offsets[i] + k] += v
        return tuple(exps)

    def _elements(self, depth):
        # per factor, (data, length, sort key) of each non-identity element:
        # a word's _key is grown block by block along with the word
        chunks = [
            [(x, f._length(x), f._key(x)) for x in f._elements(depth) if x != f.one.data]
            for f in self.factors
        ]
        out = []

        def grow(word, used, key, last):
            out.append(((used, key), word))
            for i, chunk in enumerate(chunks):
                if i == last:
                    continue
                for data, length, sk in chunk:
                    if used + length <= depth:
                        grow(word + ((i, data),), used + length, key + ((i, sk),), i)

        grow((), 0, (), -1)
        out.sort(key=operator.itemgetter(0))
        return [word for _, word in out]

    _token = re.compile(r"\s*([a-zA-Z])(?:\^(\d+))?")

    def parse(self, text):
        text = text.strip()
        if text in ("", "e"):
            return self.identity()
        if not self._letters:
            return self._parse_blocks(text)
        pos = 0
        word = self.identity()
        while pos < len(text):
            m = self._token.match(text, pos)
            if not m:
                raise ValueError(f"cannot parse word {text!r} at position {pos}")
            letter, exp = m.group(1), int(m.group(2) or 1)
            if letter not in self.names:
                raise ValueError(f"unknown letter {letter!r} in {text!r}")
            i = self.names.index(letter)
            word = word * self.el(((i, (exp,)),))
            pos = m.end()
        return word

    def _parse_blocks(self, text):
        """The word of the space-separated name:text blocks of text, each text
        read by its factor's parse (a factor text holding spaces cannot be)."""
        word = ()
        for block in text.split():
            name, colon, body = block.partition(":")
            if not colon or name not in self.names:
                raise ValueError(f"cannot read {block!r} of {text!r} as a name:text block with a name in "
                                 f"{self.names} (a factor text holding spaces cannot be read)")
            i = self.names.index(name)
            x = self.factors[i].parse(body).data
            word = word if x == self.factors[i].one.data else self._mul(word, ((i, x),))
        return self.el(word)

    def _fmt(self, a):
        if not a:
            return "e"
        if self._letters:
            return "".join(
                self.names[i] if exp == 1 else f"{self.names[i]}^{exp}" for i, (exp,) in a
            )
        return " ".join(f"{self.names[i]}:{self.factors[i]._fmt(x)}" for i, x in a)


def free_monoid(letters) -> FreeProduct:
    letters = list(letters)
    if len(set(letters)) != len(letters):
        raise ValueError(f"free monoid 'letters' must be distinct, got {''.join(letters)!r}")
    return FreeProduct([DirectSumN(1) for _ in letters], names=letters)


class UnitExtension(RightLcmSemigroup):
    """Direct product of a trivial-unit instance with a finite abelian group.

    The unit group is {e} x U, so right LCMs are only determined up to the
    U-component; the canonical representative carries the least unit.
    """

    def __init__(self, base, unit_group: FiniteGroup):
        if len(base.units()) != 1:
            raise ValueError("base of a unit extension must have trivial units")
        if not unit_group.is_abelian():
            raise ValueError("unit group must be abelian")
        self.base = base
        self.u = unit_group
        self.tag = f"ext({base.tag};{unit_group.tag})"

    def identity(self):
        return self.el((self.base.identity().data, self.u.identity().data))

    def _mul(self, a, b):
        return (self.base._mul(a[0], b[0]), self.u._mul(a[1], b[1]))

    def _ldiv(self, a, b):
        d = self.base._ldiv(a[0], b[0])
        return None if d is None else (d, self.u._ldiv(a[1], b[1]))

    def _lcm(self, a, b):
        # the base has trivial units, so its raw LCM is already canonical
        r = self.base._lcm(a[0], b[0])
        return None if r is None else (r, self.u.one.data)

    def units(self):
        e = self.base.identity().data
        return tuple(self.el((e, x.data)) for x in self.u.units())

    def generators(self):
        eu = self.u.identity().data
        return [self.el((g.data, eu)) for g in self.base.generators()]

    def _length(self, a):
        return self.base._length(a[0])

    def _key(self, a):
        return (self.base._key(a[0]), self.u._key(a[1]))

    def _exps(self, a):
        return self.base._exps(a[0])

    def _elements(self, depth):
        # both factors list in _key order, so the pairs come out in _key order
        return [(b, x) for b in self.base._elements(depth) for x in self.u._elements(depth)]

    def parse(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        body = text.strip("()")
        base_part, unit_part = body.rsplit(",", 1)
        return self.el(
            (self.base.parse(base_part).data, self.u.parse(unit_part).data)
        )

    def _fmt(self, a):
        return f"({self.base._fmt(a[0])},{self.u._fmt(a[1])})"


class AbsorptionMonoid(RightLcmSemigroup):
    """Pairs (k, m) of naturals with (k,m)(l,n) = (k+l, n) if l > 0 else (k, m+n).

    The second generator is absorbed by the first: (0,1)(1,0) = (1,0) =
    (0,2)(1,0), so the monoid is not right cancellative, while left
    cancellation and the existence of right LCMs for every pair both hold.
    """

    right_cancellative = False
    tag = "absorb"

    def identity(self):
        return self.el((0, 0))

    def _mul(self, a, b):
        (k, m), (l, n) = a, b
        return (k + l, n) if l > 0 else (k, m + n)

    def _ldiv(self, a, b):
        (k, m), (kk, mm) = a, b
        if kk > k:
            return (kk - k, mm)
        if kk == k and mm >= m:
            return (0, mm - m)
        return None

    def _lcm(self, a, b):
        # pP = {(K, N) : K > k} | {(k, M) : M >= m}
        (k, m), (kk, mm) = a, b
        if k == kk:
            return (k, max(m, mm))
        return b if k < kk else a

    def generators(self):
        return [self.el((1, 0)), self.el((0, 1))]

    def _length(self, a):
        return a[0] + a[1]

    def _key(self, a):
        return (a[0] + a[1], a)

    def _exps(self, a):
        return a

    def _elements(self, depth):
        return [(k, n - k) for n in range(depth + 1) for k in range(n + 1)]

    def parse(self, text):
        text = text.strip()
        if text == "e":
            return self.identity()
        k, m = text.strip("()").split(",")
        return self.el((int(k), int(m)))

    def _fmt(self, a):
        return f"({a[0]},{a[1]})"


# -- controlled maps --------------------------------------------------------


class SemigroupHom:
    """A map between instances, checked against the controlled-map axioms.

    fn maps normal-form data of domain to normal-form data of codomain;
    check_controlled_map calls it on data alone."""

    def __init__(self, domain, codomain, fn):
        self.domain = domain
        self.codomain = codomain
        self.fn = fn


def controlled_abelianization(src: FreeProduct):
    """Letter-counting map from a free monoid onto N^k.

    Identity on each factor; transports right LCMs and is injective on pairs
    that admit one.
    """
    if not all(isinstance(f, DirectSumN) and f.rank == 1 for f in src.factors):
        raise ValueError("abelianization is implemented for free monoids")
    k = len(src.factors)

    def fn(a):
        v = [0] * k
        for i, (x,) in a:
            v[i] += x
        return tuple(v)

    return SemigroupHom(src, DirectSumN(k), fn)


class ControlledMapReport:
    def __init__(self, ok, checked, failures):
        self.ok = ok
        self.checked = checked
        self.failures = failures

    def __repr__(self):
        verdict = "pass" if self.ok else "fail"
        return f"<controlled-map {verdict}: {self.checked} pairs, {len(self.failures)} failures>"


def check_controlled_map(theta: SemigroupHom, depth: int) -> ControlledMapReport:
    """Verify the controlled-map axioms on all pairs up to word length depth.

    For each pair (s, t) admitting a right LCM r the image pair must satisfy
    theta(s)P' & theta(t)P' = theta(r)P', and theta must be injective on such
    pairs; unit groups must map onto unit groups; the homomorphism law is
    checked on all sampled pairs.  The walk runs on normal-form data, through
    the instance hooks and theta's data map with the window's images taken
    once; elements are formatted only for a failure.
    """
    dom, cod, fn = theta.domain, theta.codomain, theta.fn
    failures = []
    els = [p.data for p in dom.elements(depth)]
    if fn(dom.one.data) != cod.one.data:
        failures.append(("identity", "theta(e) != e"))
    if {fn(x.data) for x in dom.unit_tuple} != {x.data for x in cod.unit_tuple}:
        failures.append(("units", "theta(P*) != P'*"))
    image = {a: fn(a) for a in els}
    lcm, clcm, mul, cmul, fmt = dom._lcm, cod._lcm, dom._mul, cod._mul, dom._fmt
    for a in els:
        ta = image[a]
        for b in els:
            tb = image[b]
            if fn(mul(a, b)) != cmul(ta, tb):
                failures.append((f"hom s={fmt(a)} t={fmt(b)}", "theta(st) != theta(s)theta(t)"))
                continue
            r = lcm(a, b)
            if r is None:
                continue
            if ta == tb and a != b:
                failures.append((f"s={fmt(a)} t={fmt(b)}", "equal images on a comparable pair"))
            rr = clcm(ta, tb)
            if rr is None:
                failures.append((f"s={fmt(a)} t={fmt(b)}", "image pair has no LCM"))
                continue
            # theta(r) must generate the same ideal as rr, the canonical generator
            tr = image[r] if r in image else fn(r)
            if clcm(tr, tr) != rr:
                failures.append((f"s={fmt(a)} t={fmt(b)}",
                                 f"LCM not transported: {cod._fmt(tr)} vs {cod._fmt(rr)}"))
    return ControlledMapReport(not failures, len(els) ** 2, failures)
