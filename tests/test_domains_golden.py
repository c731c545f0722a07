"""Golden outputs of the negation tables and the existential interpretations.

Every case pins one result twice: as the text that ``ctlz snnf`` or
``ctlz interp`` prints, and as the interned formula node, so that two
relation symbols with the same printed name (the built-in ``eq`` and an
interpreted ``eq``) cannot pass for each other.  The expected text is
parsed back into a node after its reserved witness names (``__y0``, ...)
are renamed, since the parser refuses the ``__`` prefix.

Declared difference from the outputs first pinned here: the allenZ
negation entries write Allen's ``eq`` with the built-in ``EQ`` symbol,
which is also what the parser reads for ``eq(x, y)``.  They used to carry
an interpreted ``eq`` of the same name, ``interp_rel("eq", 2)``, so the
allenZ SNNF cases compared equal only after reading the expected ``eq``
as that symbol.  The printed text did not change.
"""

import pytest

from ctlz import (
    Constraint,
    apply_interpretation,
    domain_by_name,
    format_formula,
    interpretation_by_name,
    parse_formula,
    parse_path_formula,
    to_snnf,
)
from ctlz.cli import run_command
from ctlz.formulas import rewrite

SNNF_CASES = [
    ('Z', 'E ~lt(x, X^1 y)',
     'E (lt(X^1 y, x) | eq(x, X^1 y))'),
    ('Z', 'E ~eq(X^2 x, y)',
     'E (lt(X^2 x, y) | lt(y, X^2 x))'),
    ('N', 'E ~lt(x, X^1 y)',
     'E (lt(X^1 y, x) | eq(x, X^1 y))'),
    ('N', 'E ~eq(X^2 x, y)',
     'E (lt(X^2 x, y) | lt(y, X^2 x))'),
    ('negZ', 'E ~lt(x, X^1 y)',
     'E (lt(X^1 y, x) | eq(x, X^1 y))'),
    ('negZ', 'E ~eq(X^2 x, y)',
     'E (lt(X^2 x, y) | lt(y, X^2 x))'),
    ('Q', 'E ~lt(x, X^1 y)',
     'E (lt(X^1 y, x) | eq(x, X^1 y))'),
    ('Q', 'E ~eq(X^2 x, y)',
     'E (lt(X^2 x, y) | lt(y, X^2 x))'),
    ('Z', 'E ~eqc[3](X^2 x)',
     'E (eqc[3](X^2 __y0) & (lt(X^2 x, X^2 __y0) | lt(X^2 __y0, X^2 x)))'),
    ('Z', 'E ~eqc[-2](x)',
     'E (eqc[-2](__y0) & (lt(x, __y0) | lt(__y0, x)))'),
    ('Z', 'E (~eqc[1](x) U ~eqc[1](x)) & A X ~eqc[2](X^1 y)',
     'E ((eqc[1](__y0) & (lt(x, __y0) | lt(__y0, x))) U (eqc[1](__y0) & (lt(x, __y0) | lt(__y0, x)))) & A X (eqc[2](X^1 __y1) & (lt(X^1 y, X^1 __y1) | lt(X^1 __y1, X^1 y)))'),
    ('Z', 'E ~mod[0,2](X^2 x)',
     'E mod[1,2](X^2 x)'),
    ('N', 'E ~mod[0,2](x)',
     'E mod[1,2](x)'),
    ('Z', 'E ~mod[1,2](x)',
     'E mod[0,2](x)'),
    ('N', 'E ~mod[1,2](x)',
     'E mod[0,2](x)'),
    ('Z', 'E ~mod[0,3](x)',
     'E (mod[1,3](x) | mod[2,3](x))'),
    ('Z', 'E ~mod[1,3](X^1 x)',
     'E (mod[0,3](X^1 x) | mod[2,3](X^1 x))'),
    ('Z', 'E ~mod[2,3](X^2 x)',
     'E (mod[0,3](X^2 x) | mod[1,3](X^2 x))'),
    ('Z', 'E ~mod[0,4](X^1 x)',
     'E (mod[1,4](X^1 x) | mod[2,4](X^1 x) | mod[3,4](X^1 x))'),
    ('Z', 'E ~mod[1,4](X^2 x)',
     'E (mod[0,4](X^2 x) | mod[2,4](X^2 x) | mod[3,4](X^2 x))'),
    ('Z', 'E ~mod[2,4](x)',
     'E (mod[0,4](x) | mod[1,4](x) | mod[3,4](x))'),
    ('Z', 'E ~mod[3,4](X^1 x)',
     'E (mod[0,4](X^1 x) | mod[1,4](X^1 x) | mod[2,4](X^1 x))'),
    ('negZ', 'E ~mod[0,2](X^1 x)',
     'E mod[1,2](X^1 x)'),
    ('negZ', 'E ~mod[1,2](X^1 x)',
     'E mod[0,2](X^1 x)'),
    ('N', 'E ~eqc[0](X^1 x)',
     'E (eqc[0](X^1 __y0) & (lt(X^1 x, X^1 __y0) | lt(X^1 __y0, X^1 x)))'),
    ('N', 'E ~eqc[4](X^1 x)',
     'E (eqc[4](X^1 __y0) & (lt(X^1 x, X^1 __y0) | lt(X^1 __y0, X^1 x)))'),
    ('N', 'E ~eqc[-1](X^1 x)',
     'E eq(X^1 x, X^1 x)'),
    ('negZ', 'E ~eqc[-1](x)',
     'E (eqc[-1](__y0) & (lt(x, __y0) | lt(__y0, x)))'),
    ('negZ', 'E ~eqc[-3](x)',
     'E (eqc[-3](__y0) & (lt(x, __y0) | lt(__y0, x)))'),
    ('negZ', 'E ~eqc[0](x)',
     'E eq(x, x)'),
    ('negZ', 'E ~eqc[3](x)',
     'E eq(x, x)'),
    ('Q', 'E ~eqc[1/2](X^1 x)',
     'E (eqc[1/2](X^1 __y0) & (lt(X^1 x, X^1 __y0) | lt(X^1 __y0, X^1 x)))'),
    ('Q', 'E ~eqc[3](x)',
     'E (eqc[3](__y0) & (lt(x, __y0) | lt(__y0, x)))'),
    ('Q', 'A G ~eqc[-1/3](x) | E ~lt(y, x)',
     'A (false R (eqc[-1/3](__y0) & (lt(x, __y0) | lt(__y0, x)))) | E (lt(x, y) | eq(y, x))'),
    ('allenZ', 'E ~b(x, y)',
     'E (a(x, y) | m(x, y) | mi(x, y) | o(x, y) | oi(x, y) | d(x, y) | di(x, y) | s(x, y) | si(x, y) | f(x, y) | fi(x, y) | eq(x, y))'),
    ('allenZ', 'E ~a(x, X^1 y)',
     'E (b(x, X^1 y) | m(x, X^1 y) | mi(x, X^1 y) | o(x, X^1 y) | oi(x, X^1 y) | d(x, X^1 y) | di(x, X^1 y) | s(x, X^1 y) | si(x, X^1 y) | f(x, X^1 y) | fi(x, X^1 y) | eq(x, X^1 y))'),
    ('allenZ', 'E ~m(x, X^2 y)',
     'E (b(x, X^2 y) | a(x, X^2 y) | mi(x, X^2 y) | o(x, X^2 y) | oi(x, X^2 y) | d(x, X^2 y) | di(x, X^2 y) | s(x, X^2 y) | si(x, X^2 y) | f(x, X^2 y) | fi(x, X^2 y) | eq(x, X^2 y))'),
    ('allenZ', 'E ~mi(x, y)',
     'E (b(x, y) | a(x, y) | m(x, y) | o(x, y) | oi(x, y) | d(x, y) | di(x, y) | s(x, y) | si(x, y) | f(x, y) | fi(x, y) | eq(x, y))'),
    ('allenZ', 'E ~o(x, X^1 y)',
     'E (b(x, X^1 y) | a(x, X^1 y) | m(x, X^1 y) | mi(x, X^1 y) | oi(x, X^1 y) | d(x, X^1 y) | di(x, X^1 y) | s(x, X^1 y) | si(x, X^1 y) | f(x, X^1 y) | fi(x, X^1 y) | eq(x, X^1 y))'),
    ('allenZ', 'E ~oi(x, X^2 y)',
     'E (b(x, X^2 y) | a(x, X^2 y) | m(x, X^2 y) | mi(x, X^2 y) | o(x, X^2 y) | d(x, X^2 y) | di(x, X^2 y) | s(x, X^2 y) | si(x, X^2 y) | f(x, X^2 y) | fi(x, X^2 y) | eq(x, X^2 y))'),
    ('allenZ', 'E ~d(x, y)',
     'E (b(x, y) | a(x, y) | m(x, y) | mi(x, y) | o(x, y) | oi(x, y) | di(x, y) | s(x, y) | si(x, y) | f(x, y) | fi(x, y) | eq(x, y))'),
    ('allenZ', 'E ~di(x, X^1 y)',
     'E (b(x, X^1 y) | a(x, X^1 y) | m(x, X^1 y) | mi(x, X^1 y) | o(x, X^1 y) | oi(x, X^1 y) | d(x, X^1 y) | s(x, X^1 y) | si(x, X^1 y) | f(x, X^1 y) | fi(x, X^1 y) | eq(x, X^1 y))'),
    ('allenZ', 'E ~s(x, X^2 y)',
     'E (b(x, X^2 y) | a(x, X^2 y) | m(x, X^2 y) | mi(x, X^2 y) | o(x, X^2 y) | oi(x, X^2 y) | d(x, X^2 y) | di(x, X^2 y) | si(x, X^2 y) | f(x, X^2 y) | fi(x, X^2 y) | eq(x, X^2 y))'),
    ('allenZ', 'E ~si(x, y)',
     'E (b(x, y) | a(x, y) | m(x, y) | mi(x, y) | o(x, y) | oi(x, y) | d(x, y) | di(x, y) | s(x, y) | f(x, y) | fi(x, y) | eq(x, y))'),
    ('allenZ', 'E ~f(x, X^1 y)',
     'E (b(x, X^1 y) | a(x, X^1 y) | m(x, X^1 y) | mi(x, X^1 y) | o(x, X^1 y) | oi(x, X^1 y) | d(x, X^1 y) | di(x, X^1 y) | s(x, X^1 y) | si(x, X^1 y) | fi(x, X^1 y) | eq(x, X^1 y))'),
    ('allenZ', 'E ~fi(x, X^2 y)',
     'E (b(x, X^2 y) | a(x, X^2 y) | m(x, X^2 y) | mi(x, X^2 y) | o(x, X^2 y) | oi(x, X^2 y) | d(x, X^2 y) | di(x, X^2 y) | s(x, X^2 y) | si(x, X^2 y) | f(x, X^2 y) | eq(x, X^2 y))'),
    ('allenZ', 'E ~eq(x, y)',
     'E (b(x, y) | a(x, y) | m(x, y) | mi(x, y) | o(x, y) | oi(x, y) | d(x, y) | di(x, y) | s(x, y) | si(x, y) | f(x, y) | fi(x, y))'),
    ('lexZ[2]', 'E ~ltlex(x, X^1 y)',
     'E (ltlex(X^1 y, x) | eqlex(x, X^1 y))'),
    ('lexZ[2]', 'E ~eqlex(X^2 x, y)',
     'E (ltlex(X^2 x, y) | ltlex(y, X^2 x))'),
    ('lexZ[2]', 'A (~ltlex(x, y) U ~eqlex(x, y))',
     'A ((ltlex(y, x) | eqlex(x, y)) U (ltlex(x, y) | ltlex(y, x)))'),
]
INTERP_CASES = [
    ('identity', 'E (lt(x, X^1 x) U eq(x, y))',
     'E (lt(x__1, X^1 x__1) U eq(x__1, y__1)) & A (false R true)'),
    ('identity', 'A G ~lt(x, X^2 y) | E eq(y, y)',
     '(A (false R ~lt(x__1, X^2 y__1)) | E eq(y__1, y__1)) & A (false R true)'),
    ('lexZ[1]', 'E X ltlex(x, X^1 y)',
     'E X lt(x__1, X^1 y__1)'),
    ('lexZ[1]', 'E (eqlex(x, y) & ~ltlex(X^2 y, x))',
     'E (eq(x__1, y__1) & ~lt(X^2 y__1, x__1))'),
    ('lexZ[1]', 'A (ltlex(x, y) U eqlex(X^1 y, z))',
     'A (lt(x__1, y__1) U eq(X^1 y__1, z__1))'),
    ('lexZ[2]', 'E X ltlex(x, X^1 y)',
     'E X (lt(x__1, X^1 y__1) | eq(x__1, X^1 y__1) & lt(x__2, X^1 y__2))'),
    ('lexZ[2]', 'E (eqlex(x, y) & ~ltlex(X^2 y, x))',
     'E (eq(x__1, y__1) & eq(x__2, y__2) & ~(lt(X^2 y__1, x__1) | eq(X^2 y__1, x__1) & lt(X^2 y__2, x__2)))'),
    ('lexZ[2]', 'A (ltlex(x, y) U eqlex(X^1 y, z))',
     'A ((lt(x__1, y__1) | eq(x__1, y__1) & lt(x__2, y__2)) U (eq(X^1 y__1, z__1) & eq(X^1 y__2, z__2)))'),
    ('lexZ[3]', 'E X ltlex(x, X^1 y)',
     'E X (lt(x__1, X^1 y__1) | eq(x__1, X^1 y__1) & lt(x__2, X^1 y__2) | eq(x__1, X^1 y__1) & eq(x__2, X^1 y__2) & lt(x__3, X^1 y__3))'),
    ('lexZ[3]', 'E (eqlex(x, y) & ~ltlex(X^2 y, x))',
     'E (eq(x__1, y__1) & eq(x__2, y__2) & eq(x__3, y__3) & ~(lt(X^2 y__1, x__1) | eq(X^2 y__1, x__1) & lt(X^2 y__2, x__2) | eq(X^2 y__1, x__1) & eq(X^2 y__2, x__2) & lt(X^2 y__3, x__3)))'),
    ('lexZ[3]', 'A (ltlex(x, y) U eqlex(X^1 y, z))',
     'A ((lt(x__1, y__1) | eq(x__1, y__1) & lt(x__2, y__2) | eq(x__1, y__1) & eq(x__2, y__2) & lt(x__3, y__3)) U (eq(X^1 y__1, z__1) & eq(X^1 y__2, z__2) & eq(X^1 y__3, z__3)))'),
    ('allenZ', 'E b(x, y)',
     'E lt(x__2, y__1) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E a(x, X^1 y)',
     'E lt(X^1 y__2, x__1) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E m(x, X^2 y)',
     'E eq(x__2, X^2 y__1) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E mi(x, y)',
     'E eq(y__2, x__1) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E o(x, X^1 y)',
     'E (lt(x__1, X^1 y__1) & lt(X^1 y__1, x__2) & lt(x__2, X^1 y__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E oi(x, X^2 y)',
     'E (lt(X^2 y__1, x__1) & lt(x__1, X^2 y__2) & lt(X^2 y__2, x__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E d(x, y)',
     'E (lt(y__1, x__1) & lt(x__2, y__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E di(x, X^1 y)',
     'E (lt(x__1, X^1 y__1) & lt(X^1 y__2, x__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E s(x, X^2 y)',
     'E (eq(x__1, X^2 y__1) & lt(x__2, X^2 y__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E si(x, y)',
     'E (eq(x__1, y__1) & lt(y__2, x__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E f(x, X^1 y)',
     'E (eq(x__2, X^1 y__2) & lt(X^1 y__1, x__1)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E fi(x, X^2 y)',
     'E (eq(x__2, X^2 y__2) & lt(x__1, X^2 y__1)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E eq(x, y)',
     'E (eq(x__1, y__1) & eq(x__2, y__2)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2)))'),
    ('allenZ', 'E (b(x, y) | ~o(x, X^1 y)) & A G m(y, z)',
     'E (lt(x__2, y__1) | ~(lt(x__1, X^1 y__1) & lt(X^1 y__1, x__2) & lt(x__2, X^1 y__2))) & A (false R eq(y__2, z__1)) & A (false R (lt(x__1, x__2) & lt(y__1, y__2) & lt(z__1, z__2)))'),
    ('allenZ', 'E true',
     'E true & A (false R true)'),
]


_RESERVED, _STAND_IN = "__", "RESERVED_"


def _node(text: str):
    """The formula printed as ``text``."""

    def visit(f):
        if not isinstance(f, Constraint):
            return None
        return Constraint(f.relation, [(off, var.replace(_STAND_IN, _RESERVED)) for off, var in f.args])

    return rewrite(parse_path_formula(text.replace(_RESERVED, _STAND_IN)), visit)


def _cli(capsys, *argv) -> str:
    assert run_command(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("domain, source, expected", SNNF_CASES, ids=[f"{d}:{s}" for d, s, _ in SNNF_CASES])
def test_snnf_golden(capsys, domain, source, expected):
    out = to_snnf(parse_formula(source), domain_by_name(domain))
    assert format_formula(out) == expected
    assert out == _node(expected)
    assert _cli(capsys, "snnf", "--domain", domain, "--formula", source) == expected + "\n"


@pytest.mark.parametrize("interp, source, expected", INTERP_CASES, ids=[f"{d}:{s}" for d, s, _ in INTERP_CASES])
def test_interpretation_golden(capsys, interp, source, expected):
    out = apply_interpretation(interpretation_by_name(interp), parse_formula(source))
    assert format_formula(out) == expected
    assert out == _node(expected)
    assert _cli(capsys, "interp", "--interp", interp, "--formula", source) == expected + "\n"
