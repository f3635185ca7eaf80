"""Polynomial kernel: exact sparse polynomials with rational coefficients.

A polynomial is a dict mapping monomials to rational coefficients:

    poly  = {mono: (num, den), ...}
    mono  = ((atom_id, exponent), ...)   sorted by atom_id, exponents > 0
    coeff = (num, den)                   den > 0, gcd(num, den) == 1

Atom ids are opaque integers interned by the expression layer. The empty
mono ``()`` is the constant term; the empty dict is the zero polynomial.
Zero coefficients are never stored, so dict equality is polynomial equality.
There is one addition, :func:`poly_add_into`: in place, into a dict the
caller owns.
"""

from math import gcd

ONE_MONO = ()


def rat(num, den):
    """Normalize a rational: positive denominator, lowest terms."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return (0, 1)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return (num, den)


def rat_add(a, b):
    an, ad = a
    bn, bd = b
    return rat(an * bd + bn * ad, ad * bd)


def rat_mul(a, b):
    an, ad = a
    bn, bd = b
    return rat(an * bn, ad * bd)


def poly_const(num, den=1):
    c = rat(num, den)
    return {} if c[0] == 0 else {ONE_MONO: c}


def poly_atom(aid, exp=1):
    return {((aid, exp),): (1, 1)}


def poly_is_const(p):
    return not p or (len(p) == 1 and ONE_MONO in p)


def mono_mul(m1, m2):
    """Merge two sorted monomials, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1 == a2:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1 < a2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m):
    d = 0
    for _, e in m:
        d += e
    return d


def poly_add_into(acc, b, negate=False):
    """Add ``b`` (``-b`` if ``negate``) into ``acc`` in place; return ``acc``. A new
    monomial goes last; one whose sum cancels is deleted (hit again, it goes last)."""
    for m, c in b.items():
        if negate:
            c = (-c[0], c[1])
        prev = acc.get(m)
        s = c if prev is None else rat_add(prev, c)  # b stores no zero
        if s[0]:
            acc[m] = s
        else:
            del acc[m]
    return acc


def poly_add(a, b):
    return poly_add_into(dict(a), b)


def poly_neg(a):
    return {m: (-c[0], c[1]) for m, c in a.items()}


def poly_sub(a, b):
    return poly_add_into(dict(a), b, True)


def poly_scale(a, num, den=1):
    c = rat(num, den)
    if c[0] == 0:
        return {}
    return {m: rat_mul(v, c) for m, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if poly_is_const(a):
        n, d = a[ONE_MONO]
        return poly_scale(b, n, d)
    if poly_is_const(b):
        n, d = b[ONE_MONO]
        return poly_scale(a, n, d)
    out = {}
    for m1, c1 in a.items():
        n1, d1 = c1
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            c = rat(n1 * c2[0], d1 * c2[1])
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                s = rat_add(prev, c)
                if s[0] == 0:
                    del out[m]
                else:
                    out[m] = s
    return out


def poly_pow(a, k):
    if k < 0:
        raise ValueError("negative exponent in poly_pow")
    result = {ONE_MONO: (1, 1)}
    base = a
    while k:
        if k & 1:
            result = poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return result


def poly_grad(a):
    """Partial derivatives with respect to every atom, in one pass over the
    terms: ``{atom id: polynomial}``, keyed by exactly the atoms of ``a``.

    Lowering one atom's exponent maps distinct monomials to distinct
    monomials, so no two terms of one derivative meet and none cancels;
    each derivative lists its terms in the order of ``a``.
    """
    grad = {}
    for m, c in a.items():
        for pos, (atom, exp) in enumerate(m):
            if exp == 1:
                nm, nc = m[:pos] + m[pos + 1:], c
            else:
                nm, nc = m[:pos] + ((atom, exp - 1),) + m[pos + 1:], rat(c[0] * exp, c[1])
            d = grad.get(atom)
            if d is None:
                grad[atom] = {nm: nc}
            else:
                d[nm] = nc
    return grad


def poly_diff(a, aid):
    """Partial derivative with respect to a single atom id."""
    return poly_grad(a).get(aid, {})


def poly_support(a):
    """Set of atom ids occurring in the polynomial."""
    ids = set()
    for m in a:
        for atom, _ in m:
            ids.add(atom)
    return ids


def poly_radial_scale(a, degree_shift):
    """Scale each monomial by 1/(degree_shift + total degree).

    This is the parameter integral of the radial homotopy operator applied
    monomial-wise; it is exact on polynomials.
    """
    out = {}
    for m, c in a.items():
        d = degree_shift + mono_degree(m)
        out[m] = rat(c[0], c[1] * d)
    return out
