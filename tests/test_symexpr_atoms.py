"""Interned atoms: an atom is one object per structural key.

Equality and hashing of atoms are the default identity ones, so every way of
building an atom must return the interned object, and copying or pickling
one must return it too.  The intern table holds weak references only.
"""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

from hamsym import symexpr
from hamsym.symexpr import differentiate, parse, pow_

from genutil import small_space

SPACE = small_space()


def atoms_by_key(*exprs):
    """Every atom of the exprs, through function arguments and root bases."""
    out = {}

    def walk(e):
        for a in e.atoms():
            out.setdefault(a.key, []).append(a)
            if isinstance(a, symexpr.FuncAtom):
                walk(a.arg)
            elif isinstance(a, symexpr.PowAtom):
                walk(a.base)

    for e in exprs:
        walk(e)
    return out


def assert_interned(*exprs):
    shared = 0
    for key, found in atoms_by_key(*exprs).items():
        assert all(a is found[0] for a in found), key
        shared += len(found) > 1
    assert shared


def test_equal_atoms_are_one_object_however_built():
    q1, p1 = symexpr.symbol("q1"), symexpr.symbol("p1")
    sin_q1 = symexpr.func("sin", q1)
    root = pow_(parse("1 + q2^2", SPACE), Fraction(1, 2))
    built = [
        parse("q1*sin(q1) + p1*sqrt(1 + q2^2)", SPACE),
        q1 * sin_q1 + p1 * root,
        differentiate(parse("cos(q1)*p1^2", SPACE), "q1"),  # -p1^2*sin(q1)
        differentiate(parse("q1*p1*sqrt(1 + q2^2)", SPACE), "q2"),
        parse("1/cos(q1)^2", SPACE) * symexpr.func("tan", q1),  # the 1/cos^2 rewrite
        parse("p1*sin(q1)^2 + p1*cos(q1)^2", SPACE),  # the sin^2 + cos^2 fold
        symexpr.func("sqrt", parse("q2^2 + 1", SPACE)),
    ]
    assert_interned(*built)


def test_copy_and_pickle_return_the_interned_atom():
    e = parse("q1*cos(p1 + k)^2 + sqrt(1 + q2^2)*q1^(3/2)", SPACE)
    atoms = [a for found in atoms_by_key(e).values() for a in found]
    assert {type(a) for a in atoms} == {symexpr.SymAtom, symexpr.FuncAtom, symexpr.PowAtom}
    for a in atoms:
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        assert pickle.loads(pickle.dumps(a)) is a
    for again in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert again == e
        assert_interned(e, again)


def test_intern_table_keeps_no_atom_alive():
    e = parse("sin(q1 + 7/11*p2)*q2", SPACE)
    (f,) = [a for a in e.atoms() if isinstance(a, symexpr.FuncAtom)]
    ref = weakref.ref(f)
    del e, f
    gc.collect()
    assert ref() is None
    # built again, the atom is a new object that is interned in turn
    again = parse("sin(q1 + 7/11*p2)", SPACE)
    assert_interned(again, parse("q2*sin(q1 + 7/11*p2)", SPACE))
