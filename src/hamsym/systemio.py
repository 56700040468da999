"""System-definition files: a line-based key/value text format.

A file declares the phase space, the symplectic form, the Hamiltonian,
named candidate symmetry fields, optional per-coordinate probe boxes and an
optional verification block.  All expressions use the same grammar as the
library parser.  '#' starts a comment anywhere on a line.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from .symexpr import Expr, ExprError, ParseError, PhaseSpace, ProbeBoxError, parse
from .exterior import VectorField
from .classifier import SymmetryCandidate
from .verify import METHODS

__all__ = [
    "SystemFile",
    "SystemFileError",
    "load_system_file",
    "parse_system_text",
    "BUNDLED_EXAMPLES",
]


class SystemFileError(ExprError):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class SystemFile:
    def __init__(self, name: str, space: PhaseSpace, symplectic: object, hamiltonian: Expr,
                 symmetries: Optional[List[SymmetryCandidate]] = None,
                 verify: Optional[Dict[str, object]] = None):
        self.name = name
        self.space = space
        self.symplectic = symplectic  # "canonical" or list of (Expr, i, j)
        self.hamiltonian = hamiltonian
        self.symmetries = [] if symmetries is None else symmetries
        self.verify = {} if verify is None else verify


def _split_kv(line: str, lineno: int) -> Tuple[str, str]:
    if ":" not in line:
        raise SystemFileError(f"expected 'key: value', got {line!r}", lineno)
    key, _, rest = line.partition(":")
    return key.strip(), rest.strip()


def _finite(text: Union[str, float]) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_system_text(text: str, name_hint: str = "system") -> SystemFile:
    raw: List[Tuple[int, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _split_kv(line, lineno)
        raw.append((lineno, key, value))

    fields: Dict[str, Tuple[int, str]] = {}
    parameters: Dict[str, float] = {}
    domains: Dict[str, Tuple[int, Tuple[float, float]]] = {}  # name -> (line, box)
    symmetry_lines: List[Tuple[int, str]] = []
    term_lines: List[Tuple[int, str]] = []
    verify: Dict[str, Tuple[int, str]] = {}
    for lineno, key, value in raw:
        if key == "parameter":
            pname, sep, pval = value.partition("=")
            pname = pname.strip()
            if pname in parameters:
                raise SystemFileError(f"duplicate parameter {pname!r}", lineno)
            if not sep:
                parameters[pname] = 1.0  # unspecified parameters probe as positive
                continue
            try:
                parameters[pname] = _finite(pval)
            except ValueError:
                raise SystemFileError(f"bad parameter value {pval.strip()!r}", lineno)
        elif key == "domain":
            cname, _, rng = value.partition("=")
            cname = cname.strip()
            lo, sep, hi = rng.partition("..")
            if not sep:
                raise SystemFileError("domain needs the form 'name = lo .. hi'", lineno)
            if cname in domains:
                raise SystemFileError(f"duplicate domain {cname!r}", lineno)
            try:
                domains[cname] = (lineno, (float(lo), float(hi)))
            except ValueError:
                raise SystemFileError(f"bad domain bounds {rng.strip()!r}", lineno)
        elif key == "symmetry":
            symmetry_lines.append((lineno, value))
        elif key == "symplectic-term":
            term_lines.append((lineno, value))
        elif key == "verify":
            vkey, _, vval = value.partition("=")
            vkey = vkey.strip()
            if vkey in verify:
                raise SystemFileError(f"duplicate verify key {vkey!r}", lineno)
            verify[vkey] = (lineno, vval.strip())
        elif key in ("name", "dof", "coordinates", "symplectic", "hamiltonian"):
            if key in fields:
                raise SystemFileError(f"duplicate key {key!r}", lineno)
            fields[key] = (lineno, value)
        else:
            raise SystemFileError(f"unknown key {key!r}", lineno)

    for required in ("dof", "coordinates", "hamiltonian"):
        if required not in fields:
            raise SystemFileError(f"missing required key {required!r}")
    lineno, dof_text = fields["dof"]
    try:
        n = int(dof_text)
    except ValueError:
        raise SystemFileError(f"bad dof {dof_text!r}", lineno)
    lineno, coords_text = fields["coordinates"]
    coords = coords_text.split()
    try:
        space = PhaseSpace(n, coords, parameters, {c: box for c, (_, box) in domains.items()})
    except ProbeBoxError as exc:
        raise SystemFileError(str(exc), domains[exc.name][0])
    except ExprError as exc:
        raise SystemFileError(str(exc), lineno)

    sym_mode = fields.get("symplectic", (0, "canonical"))[1]
    if sym_mode == "canonical":
        symplectic = "canonical"
        if term_lines:
            raise SystemFileError(
                "symplectic-term lines need 'symplectic: explicit'", term_lines[0][0]
            )
    elif sym_mode == "explicit":
        if not term_lines:
            raise SystemFileError("'symplectic: explicit' given but no symplectic-term lines")
        terms = []
        for lineno, value in term_lines:
            head, _, coeff_text = value.partition("=")
            names = head.split()
            if len(names) != 2 or not coeff_text.strip():
                raise SystemFileError(
                    "symplectic-term needs the form 'name_i name_j = coeff'", lineno
                )
            try:
                i = space.coord_index(names[0])
                j = space.coord_index(names[1])
            except KeyError as exc:
                raise SystemFileError(f"unknown coordinate {exc.args[0]!r}", lineno)
            if i >= j:
                raise SystemFileError("term indices must be ordered like the coordinate list", lineno)
            try:
                coeff = parse(coeff_text.strip(), space)
            except ParseError as exc:
                raise SystemFileError(f"bad coefficient: {exc}", lineno)
            terms.append((coeff, i, j))
        symplectic = terms
    else:
        raise SystemFileError(
            f"symplectic must be 'canonical' or 'explicit', got {sym_mode!r}",
            fields["symplectic"][0],
        )

    lineno, h_text = fields["hamiltonian"]
    try:
        h = parse(h_text, space)
    except ParseError as exc:
        raise SystemFileError(f"bad hamiltonian: {exc}", lineno)

    symmetries: List[SymmetryCandidate] = []
    symmetry_names = set()
    for lineno, value in symmetry_lines:
        sname, _, comps_text = value.partition("=")
        sname = sname.strip()
        if not sname or not comps_text.strip():
            raise SystemFileError("symmetry needs the form 'name = c1 | c2 | ...'", lineno)
        pieces = [p.strip() for p in comps_text.split("|")]
        if len(pieces) != 2 * n:
            raise SystemFileError(
                f"symmetry {sname!r} needs {2*n} components, got {len(pieces)}", lineno
            )
        comps = []
        for k, piece in enumerate(pieces, 1):
            try:
                comps.append(parse(piece, space))
            except ParseError as exc:
                # the position counts from the start of component k
                raise SystemFileError(f"bad component {k} of symmetry {sname!r}: {exc}", lineno)
        if sname in symmetry_names:
            raise SystemFileError(f"duplicate symmetry name {sname!r}", lineno)
        symmetries.append(SymmetryCandidate(sname, VectorField(space, tuple(comps))))
        symmetry_names.add(sname)

    parsed_verify: Dict[str, object] = {}
    for k, (lineno, v) in verify.items():
        try:
            if k == "x0":
                parsed_verify["x0"] = tuple(_finite(p) for p in v.split())
                if len(parsed_verify["x0"]) != 2 * n:
                    raise SystemFileError(f"verify x0 needs {2*n} components", lineno)
            elif k in ("t_final", "dt"):
                parsed_verify[k] = _finite(v)
            elif k == "method":
                if v not in METHODS:
                    raise SystemFileError(f"unknown method {v!r}; choose from {METHODS}", lineno)
                parsed_verify[k] = v
            else:
                raise SystemFileError(f"unknown verify key {k!r}", lineno)
        except ValueError:
            raise SystemFileError(f"bad verify {k} {v!r}", lineno)

    return SystemFile(
        name=fields.get("name", (0, name_hint))[1],
        space=space,
        symplectic=symplectic,
        hamiltonian=h,
        symmetries=symmetries,
        verify=parsed_verify,
    )


def load_system_file(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(str(exc)) from None
    return parse_system_text(text, name_hint=path)


# ---------------------------------------------------------------------------
# Bundled example systems

_PENDULUM = """\
# Spherical pendulum: a point mass on a sphere in a uniform gravity field.
# Chart restriction: theta stays inside (-pi/2, pi/2); the probe box below
# keeps numeric sampling away from the tangent poles.
# Y_rot (rotation about the vertical axis) is a symmetry of both the
# symplectic form and the Hamiltonian; its conserved quantity is the
# angular momentum p_phi.
name: spherical-pendulum
dof: 2
coordinates: theta phi p_theta p_phi
parameter: Omega = 1.0
domain: theta = -1.2 .. 1.2
domain: phi = 0.0 .. 6.283185307179586
symplectic: canonical
hamiltonian: p_theta^2/2 + p_phi^2*(1 + tan(theta)^2)/2 + Omega^2*(1 + sin(theta))
symmetry: Y_rot = 0 | 1 | 0 | 0
verify: x0 = 0.3 0.0 0.0 0.5
verify: t_final = 10.0
verify: dt = 0.001
verify: method = rk4
"""

_ANISO = """\
# 2-dimensional anisotropic harmonic oscillator (frequencies Omega1, Omega2).
# Y1 and Y2 preserve the symplectic form but not the Hamiltonian; each
# changes h by a constant, so the guaranteed conserved quantity is trivial.
# Note on signs: this constant is sometimes quoted as -Omega_i, but the
# directional derivative Y_i(h) is convention-free and computes to
# +Omega_i, which is what this tool reports.
name: anisotropic-oscillator
dof: 2
coordinates: q1 q2 p1 p2
parameter: Omega1 = 1.0
parameter: Omega2 = 0.5
symplectic: canonical
hamiltonian: (p1^2 + p2^2 + Omega1^2*q1^2 + Omega2^2*q2^2)/2
symmetry: Y1 = Omega1*q1/(Omega1^2*q1^2 + p1^2) | 0 | Omega1*p1/(Omega1^2*q1^2 + p1^2) | 0
symmetry: Y2 = 0 | Omega2*q2/(Omega2^2*q2^2 + p2^2) | 0 | Omega2*p2/(Omega2^2*q2^2 + p2^2)
verify: x0 = 1.0 0.5 -0.3 0.8
verify: t_final = 10.0
verify: dt = 0.001
verify: method = rk4
"""

_ISO = """\
# 2-dimensional isotropic harmonic oscillator (a superintegrable system).
# Y is a symmetry that is neither symplectic nor energy-preserving; its
# second Lie derivative of the symplectic form returns a multiple of the
# form itself, and the guaranteed conserved quantity is p1*p2 + Omega^2*q1*q2.
# Y1 and Y2 split Y; their iterated actions on h produce the partial
# energies h1 and h2.  The split fields are named so that the chain of Y1
# lands on the first partial energy: L^2(Y1)h = 2*h1.
# Xh1 and Xh2 are the Hamiltonian fields of h1 and h2 (classic invariance
# symmetries).  Z1, Z2, Z are further non-Noether candidates, classified
# here as documentation (Z commutes with the dynamics only at Omega = 1,
# which probing detects and flags as a numeric certificate).
name: isotropic-oscillator
dof: 2
coordinates: q1 q2 p1 p2
parameter: Omega = 1.0
symplectic: canonical
hamiltonian: (p1^2 + p2^2 + Omega^2*q1^2 + Omega^2*q2^2)/2
symmetry: Y = q2 | q1 | p2 | p1
symmetry: Y1 = 0 | q1 | 0 | p1
symmetry: Y2 = q2 | 0 | p2 | 0
symmetry: Xh1 = p1 | 0 | -Omega^2*q1 | 0
symmetry: Xh2 = 0 | p2 | 0 | -Omega^2*q2
symmetry: Z1 = (p2^2 + Omega^2*q2^2)*q2 | 0 | (p2^2 + Omega^2*q2^2)*p2 | 0
symmetry: Z2 = 0 | (p1^2 + Omega^2*q1^2)*q1 | 0 | (p1^2 + Omega^2*q1^2)*p1
symmetry: Z = (q1*p2 - q2*p1)*p1 | -(q1*p2 - q2*p1)*p2 | -(q1*p2 - q2*p1)*q1 | (q1*p2 - q2*p1)*q2
verify: x0 = 1.0 0.5 -0.3 0.8
verify: t_final = 10.0
verify: dt = 0.001
verify: method = rk4
"""

BUNDLED_EXAMPLES: Dict[str, str] = {
    "pendulum.sys": _PENDULUM,
    "aniso_oscillator.sys": _ANISO,
    "iso_oscillator.sys": _ISO,
}
