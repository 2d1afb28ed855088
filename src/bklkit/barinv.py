"""The windowed bar involution on truncated mixed Fock spaces.

The involution is built factor by factor, left to right.  Appending one
natural or dual-natural factor to an already barred block costs a single
layer of quasi-R-matrix corrections, and against such a factor the
correction collapses: bar(x (x) y_c) picks up, besides bar(x) (x) y_c, one
term per admissible single move of the last index, weighted by
(q - q^-1) times a root-vector operator applied to bar(x).

The root vectors are iterated q^-1-commutators of Chevalley actions:

    last factor V, move c -> d (d > c):
        R(c,d),  R(i,j) = R(i,j-1) E_{j-1} - q^-1 E_{j-1} R(i,j-1)
    last factor W, move c -> d (d < c):
        S(d,c),  S(i,j) = S(i+1,j) E_i - q^-1 E_i S(i+1,j)

On a monomial they have a closed form, the iterated coproduct of the root
vector over the slots: a sum over chains of slots that carry consecutive
segments of [min(c,d), max(c,d)], with a sign and power of q per slot (see
_chains and CONVENTIONS.md).  _chains scans a monomial g once, left to
right, and emits the chains of every move c -> d in that one pass; no
bracket is stored.  The scan depends on (g, c) alone, and many full-length
rows share a g in their prefix rows, so BarContext keeps the scans of its
full-length rows, one per (g, c) for as long as the context lives: a flat
tuple of interned keys and packed (e, neg, r) codes, which a row reads
with no scan and no tuple built.  A prefix row is built once per context,
so its scans are not kept.  oracle._nested computes the same
brackets by the recursion above on _act_raw passes; the right-to-left
recursion oracle.bar_row_rl uses it, on F actions with mirrored ends, as
an independent witness of the tensor order.

Every row a BarContext stores, and every wedge row stored on top of it,
holds the context's copies only (row() interns each key as it puts it in,
share() does so for the root row and wedge rows): one Laurent object per
distinct value and one tuple per index, for as long as the context lives.
A large window stores millions of entries but only a few thousand distinct
polynomials.  The sharing is safe because a Laurent is immutable and
addmul never mutates its inputs.  The keys of the move to d end in d, so
the chain terms never meet the shifted prefix row; each chain term value,
+-q^e (q - q^-1)^r times a stored prefix value, is computed once per
context, and so is each power (q - q^-1)^r; the first term at a key is
stored as it is, and terms that meet at one key sum once per pair of
stored values (BarContext._sums), so a row holds stored values only and
is stored as built.  The engine's solve takes each full-length tensor row
out of its context (BarContext.take) and keeps it as a push list (see
canonical).  A wedge row takes the extended row it is gathered from, so
the context never keeps a full-length extended row beside the wedge row.
wedge_gather reads that row times H_0 in wedge coordinates, in closed form.

BarTable checks its rows exactly in integers: the involution identity by
Kronecker substitution, unitriangularity through combinat.SharpPack (both
encodings are described in CONVENTIONS.md).

Both conventions were pinned against the Hecke-algebra bar on pure tensor
blocks and the rank-2 closed forms, and are guarded by the involution,
equivariance and uniqueness test suites.
"""
from __future__ import annotations

from .combinat import SharpPack, Window, format_weight
from .scalars import Laurent, ONE, Z_QMQINV, addmul, pack, unpack


# A chain term's (e, neg, r) packed into one int, code = e * 2^8 + neg * 2^7
# + r: the low 8 bits hold neg and r (0 < r < 2^7) whatever the sign of e,
# so a slot adds to e by adding multiples of 2^8, flips neg by xor with
# 2^7, and lengthens the chain by adding 1.  A chain has at most one slot
# per factor before the last, so r < 2^7 holds on every window of at most
# 128 factors or at level k <= 63 (a chain is at most 2k long, one unit
# of [min(c,d), max(c,d)] per slot at least); BarContext refuses others.
_E, _NEG, _R = 256, 128, 127


def _decode(code: int) -> tuple:
    """(e, neg, r) of the chain-term code e * _E + neg * _NEG + r."""
    return code >> 8, (code & _NEG) >> 7, code & _R


def _chains(bits: tuple, g: tuple, c: int, up: bool, k: int, keys: dict) -> list:
    """The terms of every bracket R(c,d) (up) or S(d,c) applied to M_g.

    One left-to-right scan of g.  A term is a chain of slots s_1 < ... < s_r
    carrying consecutive segments (a, b) of [min(c,d), max(c,d)], ascending
    from c for R and descending from c for S: a V slot carries (a, b) by
    moving its entry b to a, a W slot by moving its entry a to b.  Each W
    slot of an R chain and each V slot of an S chain carries
    (-q^-1)^(b-a-1); every slot s right of s_1 carries q^kappa, where
    [lo, hi] is the union of the segments of the chain slots left of s and
    kappa is +1 for an entry hi, -1 for an entry lo, negated on a W slot.
    Returns the flat list [h + (d,), code, ...], one pair per chain, with
    code = e * _E + neg * _NEG + r: the bracket for the move to d is the sum
    of (-1)^neg q^e (q - q^-1)^(r-1) M_h over its chains, and h + (d,) is
    the key the chain term takes in the row of the move.  Each key is
    interned through keys, so the list is ready to be kept as it is.
    """
    step = 1 if up else -1
    same = 0 if up else 1  # the slot type whose entry jumps to the chain end
    stop = k + 1 if up else -k - 1
    n = len(g)
    out = []
    stack = [(0, c, 0, g)]  # next slot, chain end, code of (e, neg, r), moved g
    while stack:
        j, t, code, h = stack.pop()
        if j == n:
            if code & _R:
                h += (t,)
                out += (keys.setdefault(h, h), code)
            continue
        v = g[j]
        kind = bits[j] == same
        if code & _R and (v == t or v == c):
            kappa = _E if v == t else -_E
            code += kappa if kind else -kappa
        stack.append((j + 1, t, code, h))
        if kind:
            if (v - t) * step > 0:
                stack.append((j + 1, v, code + 1, h[:j] + (t,) + h[j + 1 :]))
        elif v == t:
            for x in range(t + step, stop, step):
                m = (x - t) * step - 1
                stack.append((j + 1, x, (code - m * _E + 1) ^ (m & 1) * _NEG, h[:j] + (x,) + h[j + 1 :]))
    return out


class BarContext:
    """Bar rows for one pure tensor window, with shared prefix caches."""

    def __init__(self, window: Window):
        if window.wedge is not None:
            raise ValueError("BarContext works on tensor windows; see wedge_bar_row")
        self.window = window
        self.bits = window.b.bits
        self.k = window.k
        if min(len(self.bits) - 1, 2 * self.k) > _R:
            raise ValueError("a chain of this window may be longer than a code holds")
        self._keys: dict = {}  # index tuple -> its one stored copy
        self._values: dict = {}  # Laurent -> its one stored copy
        self._pooled: set = set()  # ids of the stored copies in _values
        self._terms: dict = {}  # (id of a stored c, code of (e, neg, r)) -> stored term value
        self._sums: dict = {}  # (id of a stored a, id of a stored b) -> stored a + b
        self._zpows = [ONE, Z_QMQINV]  # (q - q^-1)^r at r, grown on demand
        # the interned key g + (c,) of a full-length row's entry -> the chain
        # terms of g under the move from c, as a flat tuple (interned key
        # h + (d,), code, ...): each (g, c) is scanned once per context
        self._chain_memo: dict = {}
        self._rows: dict = {(): self.share({(): ONE})}

    def share(self, d: dict) -> dict:
        """d with every key and value replaced by this context's copy of it:
        for the root row and for wedge rows, which row() does not build.

        A value that already is a stored copy is recognised by its id, with
        no hash or comparison; the ids stay valid because _values holds
        every stored copy for the context's lifetime.
        """
        keys, pooled, pool = self._keys, self._pooled, self._pool
        return {
            keys.setdefault(g, g): c if id(c) in pooled else pool(c)
            for g, c in d.items()
        }

    def _pool(self, c: Laurent) -> Laurent:
        c = self._values.setdefault(c, c)
        self._pooled.add(id(c))
        return c

    def row(self, f: tuple) -> dict:
        """bar(M_f) within the window, as a raw dict {g: Laurent}.

        f is validated once per request, here: at most one entry per slot,
        each an int in [-k, k].  Its prefix rows are built by _row, which
        trusts its index, so no prefix level checks again.
        """
        f = tuple(f)
        hit = self._rows.get(f)
        if hit is not None:
            return hit
        if len(f) > len(self.bits):
            raise ValueError("index longer than the window")
        k = self.k  # f is not (), whose row is always stored
        if type(sum(f)) is not int or max(f) > k or min(f) < -k:
            raise ValueError(f"index {f} not in window")
        return self._row(f)

    def _row(self, f: tuple) -> dict:
        """Build and store the row of a valid f that is not stored yet.

        Each monomial g of the prefix row contributes its shift g + (c,)
        and the chain terms of g under the move from c = f[-1]: scanned
        by _chains, and for a full-length f kept in _chain_memo, so that
        each (g, c) is scanned once per context.
        """
        p = len(f)
        prefix, c = f[:-1], f[-1]
        base = self._rows.get(prefix)
        if base is None:
            base = self._row(prefix)
        # every move d != c ends its keys in d, so the chain terms never meet
        # the shifted prefix row; terms that meet at one key sum through
        # _sums, once per pair of stored values, so every value in out is
        # a stored one, and every key is interned before it goes in
        bits, up, k = self.bits, self.bits[p - 1] == 0, self.k
        keys, terms, sums, zpows = self._keys, self._terms, self._sums, self._zpows
        memo = self._chain_memo if p == len(bits) else None
        out: dict = {}
        for g, coef in base.items():
            key = g + (c,)
            key = keys.setdefault(key, key)
            out[key] = coef
            if memo is None:
                chain = _chains(bits, g, c, up, k, keys)
            else:
                chain = memo.get(key)
                if chain is None:
                    chain = memo[key] = tuple(_chains(bits, g, c, up, k, keys))
            if not chain:
                continue
            cid = id(coef)
            for i in range(0, len(chain), 2):
                tk = (cid, chain[i + 1])
                s = terms.get(tk)
                if s is None:
                    e, neg, r = _decode(tk[1])
                    while len(zpows) <= r:
                        zpows.append(zpows[-1] * Z_QMQINV)
                    s = (coef * zpows[r]).shift(e)
                    s = terms[tk] = self._pool(-s if neg else s)
                key = chain[i]
                a = out.get(key)
                if a is not None:
                    sk = (id(a), id(s))
                    v = sums.get(sk)
                    if v is None:
                        v = sums[sk] = self._pool(a + s)
                    if not v:
                        del out[key]
                        continue
                    s = v
                out[key] = s
        self._rows[f] = out
        return out

    def take(self, f: tuple) -> dict:
        """row(f), no longer stored: for a caller that keeps the row in a
        form of its own.  Prefix rows stay, and so does the root row ()
        that every row is built from."""
        f = tuple(f)
        row = self.row(f)
        if f:
            del self._rows[f]
        return row


def wedge_gather(terms: dict, mn: int, side: str, kw: int) -> dict:
    """Wedge coordinates of x H_0 for x = sum c_g M_g on the extended window.

    Let base be the tail of g in ascent order (increasing for V, decreasing
    for W).  Each letter of a reduced word from base to the tail is an
    ascent, so M_g = M_{head+base} H_s, and H_s H_0 = (-q)^{l(s)} H_0
    gives M_g H_0 = (-q)^l M_{head+base} H_0, the wedge vector of the
    sorted tail, where l counts the tail pairs out of ascent order.  A
    tail with a repeated entry is killed by H_0.
    """
    desc = side == "V"
    out: dict = {}
    for g, c in terms.items():
        tail = g[mn:]
        if len(set(tail)) < kw:
            continue
        l = sum((x > y) == desc for i, x in enumerate(tail) for y in tail[i + 1 :])
        v = c.shift(l)
        addmul(out, g[:mn] + tuple(sorted(tail, reverse=desc)), -v if l % 2 else v)
    return out


def wedge_bar_row(wwin: Window, ext_ctx: BarContext, idx: tuple) -> dict:
    """bar of a wedge-basis monomial, in wedge-basis coordinates.

    Computed through the embedding W_h -> M_{h.w0} H_0: bar the embedded
    monomial, push the bar-invariant H_0 across, and gather the result in
    wedge coordinates, shared through ext_ctx like a tensor row.  The
    extended row is taken out of ext_ctx: each wedge index has its own
    reversed index, so a caller that reads each wedge row once never
    builds an extended row twice.
    """
    side, kw = wwin.wedge
    mn = wwin.tensor_len
    rev = idx[:mn] + tuple(reversed(idx[mn:]))
    return ext_ctx.share(wedge_gather(ext_ctx.take(rev), mn, side, kw))


class BarTable:
    """Rows bar(M_f) = sum_g r_{gf} M_g for f in a chosen part of a window."""

    __slots__ = ("window", "rows")

    def __init__(self, window: Window, rows: dict):
        self.window = window
        self.rows = rows  # f -> {g: Laurent}

    def check_unitriangular(self):
        """Each row has diagonal 1 and every other entry at a lower index.

        One walk over the rows.  Every entry is compared in the Bruhat
        order through one SharpPack over the window's own range [-k, k],
        which holds every entry of a windowed bar row, so an entry outside
        the window fails its pack with a ValueError naming that range.
        Each index is packed the first time the walk meets it, and the
        order test is SharpPack's mask expression, inlined; it holds on
        the diagonal, which is checked apart to be 1.
        """
        k = self.window.k
        order = SharpPack(self.window.extended().b, -k, k)
        guard, mask, pack = order.guard, order.mask, order.pack
        packed: dict = {}  # index -> its SharpPack, on first sight
        get = packed.get
        for f, row in self.rows.items():
            if row.get(f) != ONE:
                raise AssertionError(f"diagonal of bar row {f} is not 1")
            pf = get(f)
            if pf is None:
                pf = packed[f] = pack(f)
            top = guard + pf
            for g in row:
                pg = get(g)
                if pg is None:
                    pg = packed[g] = pack(g)
                if (top - pg) & mask != guard:
                    raise AssertionError(f"bar row {f} hits non-lower index {g}")

    def involution_defect(self):
        """First (g, f) where sum_h r_{gh} bar(r_{hf}) != delta, or None.

        Valid for every pair of indices carried by the table whenever the
        table holds all rows of the enclosing window (intervals of
        in-window pairs stay in the window).

        The sums run in integers by Kronecker substitution: each distinct
        value v packs once as P(v) = v(2^B) 2^(B E) (scalars.pack), E the
        largest |exponent| in the table, and bar(v) likewise, so a term
        r_{gh} bar(r_{hf}) is the product of two ints, and a sum s packs as
        s(2^B) 2^(2 B E), a polynomial in 2^B with exponents in [0, 4E].
        Every coefficient of every partial sum, and of a sum minus delta, is
        at most sum_h L1(r_gh) L1(r_hf) + 1 <= N * (max L1)^2 + 1 in
        absolute value (L1 the sum of absolute coefficients, N the length
        of the longest row, which has at least as many h as any sum), and B
        is chosen so that this is below 2^(B-1).  A polynomial with
        coefficients in (-2^(B-1), 2^(B-1)) is 0 at 2^B only if it is 0 (its
        top nonzero term outweighs all lower ones), so each packed test
        below is exact, and a defect decodes back by balanced base-2^B
        digits (scalars.unpack).

        No term is multiplied in the sums: each of the V distinct values
        (equal polynomials share one) gets an id, P(v_i) P(bar v_j) is
        computed once per pair (V^2 ints below 2^(B (4E + 2)); V is 5-93 on
        the bench's bar-tables windows, 156 on 00110 at k=3), and a term is
        one read from that table.  A partial sum that reaches 0 leaves the
        accumulator and re-enters it at the end, as a Laurent-valued sum
        does, so the first defect reported does not depend on the encoding.
        """
        rows = self.rows
        vids: dict = {}  # id of a value -> its value id
        distinct: dict = {}  # value -> its value id, one per distinct value
        serial: dict = {}  # index -> its serial, in order of first sight
        flat: dict = {}  # h -> [(serial of g, value id of r_gh), ...]
        for h, row in rows.items():
            entries = flat[h] = []
            for g, c in row.items():
                i = vids.get(id(c))
                if i is None:
                    i = vids[id(c)] = distinct.setdefault(c, len(distinct))
                entries.append((serial.setdefault(g, len(serial)), i))
        values = list(distinct)
        span = max((abs(e) for c in values for e in c.c), default=0)
        top = max((sum(map(abs, c.c.values())) for c in values), default=0)
        reach = max(map(len, rows.values()), default=0) * top
        base = (reach * top + 1).bit_length() + 1
        packs = [pack(c, base, span) for c in values]
        # products[j][i] = P(v_i) P(bar v_j): every term of every sum below
        products = [[p * b for p in packs] for b in (pack(c.bar(), base, span) for c in values)]
        one = 1 << (2 * base * span)
        for f, row_f in rows.items():
            acc: dict = {}  # serial of g -> its packed sum
            for h, rhf in row_f.items():
                row_h = flat.get(h)
                if row_h is None:
                    continue
                prod = products[vids[id(rhf)]]
                for g, i in row_h:
                    x = acc.get(g, 0) + prod[i]
                    if x:
                        acc[g] = x
                    else:
                        acc.pop(g, None)
            sf = serial.get(f)
            if acc.get(sf) != one:
                return (f, f, unpack(acc.get(sf, 0), base, 2 * span))
            for g, x in acc.items():
                if g != sf:
                    return (list(serial)[g], f, unpack(x, base, 2 * span))
        return None

    def to_json(self) -> dict:
        return {
            "b": str(self.window.b),
            "k": self.window.k,
            "wedge": f"{self.window.wedge[0]}:{self.window.wedge[1]}"
            if self.window.wedge
            else None,
            "rows": {
                format_weight(f): {format_weight(g): c.to_json() for g, c in sorted(row.items())}
                for f, row in sorted(self.rows.items())
            },
        }


def bar_table(window: Window) -> BarTable:
    """Bar rows for every index of the window.

    The involution identity is verified for all pairs carried by the table
    and a failure is a hard error.
    """
    if window.wedge is None:
        ctx = BarContext(window)
        rows = {f: ctx.row(f) for f in window.basis()}
    else:
        ctx = BarContext(window.extended())
        rows = {f: wedge_bar_row(window, ctx, f) for f in window.basis()}
    table = BarTable(window, rows)
    defect = table.involution_defect()
    if defect is not None:
        g, f, val = defect
        raise AssertionError(
            f"bar is not an involution on {window}: pair g={g}, f={f}, defect {val!r}"
        )
    return table
