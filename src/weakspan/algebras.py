"""Attribute algebras: term algebras, unbounded naturals with addition, finite enumerations.

Carrier values are Python objects: ``int`` for the naturals, ``str`` for
enumerated values, and :class:`Var`/:class:`Lit`/:class:`OpApp` trees for
terms.  Label sets are finite sets of carrier values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int

    def __repr__(self) -> str:
        # the dataclass repr raises for a value longer than the interpreter converts
        return f"Lit(value={render_value(self.value)})"


@dataclass(frozen=True)
class OpApp:
    """A sum: ``+`` applied to two terms, the one operation of every term."""

    op: str
    args: tuple

    def __post_init__(self):
        if self.op != "+" or len(self.args) != 2:
            raise ValueError(f"a term operation is binary '+', not {self.op!r} "
                             f"with {len(self.args)} arguments")


Term = Union[Var, Lit, OpApp]
Value = Union[int, str, Var, Lit, OpApp]


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, OpApp):
        out: set[str] = set()
        for a in t.args:
            out |= term_variables(a)
        return out
    return set()


def render_term(t: Term) -> str:
    """A term as the text that parses back to it; raises ValueError for a
    literal longer than the interpreter converts."""
    return _render_term(t, str)


def _render_term(t: Term, literal) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return literal(t.value)
    if isinstance(t, OpApp):
        left, right = t.args
        rs = _render_term(right, literal)
        if isinstance(right, OpApp):
            rs = f"({rs})"
        return f"{_render_term(left, literal)}+{rs}"
    raise TypeError(f"not a term: {t!r}")


def render_value(v: Value) -> str:
    """A value as text; an integer too long to convert, bare or as a term's
    literal, shows its size."""
    if isinstance(v, (Var, Lit, OpApp)):
        return _render_term(v, render_value)
    try:
        return str(v)
    except ValueError:   # past the interpreter's limit; v has d or d + 1 digits
        # log10(2) as a literal: importing math loads one more shared library
        d = int(v.bit_length() * 0.3010299956639812)
        return f"<integer of {d + (10 ** d <= v)} digits>"


def value_sort_key(v: Value):
    """A total order over mixed carrier values, for deterministic output."""
    if isinstance(v, bool):
        raise TypeError("booleans are not carrier values")
    if isinstance(v, int):
        return (0, v, "")
    if isinstance(v, str):
        return (1, 0, v)
    return (2, 0, render_value(v))


class TermSyntaxError(ValueError):
    pass


# Deepest accepted nesting of a parsed term, counting both parentheses and
# the height of its operator tree; the code that walks terms recurses.
MAX_TERM_DEPTH = 100


def parse_term(text: str) -> Term:
    """Parse infix ``+`` expressions with parentheses, lowercase identifiers, decimal literals.

    Terms nested deeper than ``MAX_TERM_DEPTH`` are rejected.
    """
    tokens = _tokenize(text)
    term, pos, _height = _parse_sum(tokens, 0, 0)
    if pos != len(tokens):
        raise TermSyntaxError(f"unexpected {tokens[pos]!r} in term {text!r}")
    return term


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+()":
            tokens.append(c)
            i += 1
        elif "0" <= c <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c.isalpha() and c.islower():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise TermSyntaxError(f"bad character {c!r} in term {text!r}")
    if not tokens:
        raise TermSyntaxError("empty term")
    return tokens


def _too_deep(depth: int) -> None:
    if depth > MAX_TERM_DEPTH:
        raise TermSyntaxError(f"term nests deeper than {MAX_TERM_DEPTH} levels")


def _parse_sum(tokens: list[str], pos: int, depth: int) -> tuple[Term, int, int]:
    """A sum at parenthesis depth ``depth``; returns it with its tree height."""
    left, pos, height = _parse_atom(tokens, pos, depth)
    while pos < len(tokens) and tokens[pos] == "+":
        right, pos, right_height = _parse_atom(tokens, pos + 1, depth)
        left = OpApp("+", (left, right))
        height = max(height, right_height) + 1
        _too_deep(height)
    return left, pos, height


def _parse_atom(tokens: list[str], pos: int, depth: int) -> tuple[Term, int, int]:
    if pos >= len(tokens):
        raise TermSyntaxError("term ends unexpectedly")
    tok = tokens[pos]
    if tok == "(":
        _too_deep(depth + 1)
        inner, pos, height = _parse_sum(tokens, pos + 1, depth + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise TermSyntaxError("missing closing parenthesis")
        return inner, pos + 1, height
    if tok.isdigit():
        try:
            return Lit(int(tok)), pos + 1, 0
        except ValueError:   # longer than the interpreter converts from decimal
            raise TermSyntaxError(f"literal of {len(tok)} digits is too long to read") from None
    if tok[0].isalpha():
        return Var(tok), pos + 1, 0
    raise TermSyntaxError(f"unexpected token {tok!r}")


class Algebra:
    """Base class; the three kinds below cover every use in this package."""

    kind = "abstract"
    variables: frozenset = frozenset()

    def contains(self, value: Value) -> bool:
        raise NotImplementedError


class TermAlg(Algebra):
    """Terms over a finite variable set: variables, non-negative literals
    and binary ``+``, the one operation of every term in this package."""

    kind = "term"

    def __init__(self, variables: Iterable[str]):
        self.variables = frozenset(variables)

    def contains(self, value: Value) -> bool:
        if isinstance(value, Var):
            return value.name in self.variables
        if isinstance(value, Lit):
            return value.value >= 0
        if isinstance(value, OpApp):
            return all(self.contains(a) for a in value.args)
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, TermAlg) and self.variables == other.variables

    def __repr__(self) -> str:
        return f"TermAlg(vars={sorted(self.variables)})"


class NatPlus(Algebra):
    """Unbounded natural numbers with '+' as addition."""

    kind = "nat"

    def contains(self, value: Value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def __eq__(self, other) -> bool:
        return isinstance(other, NatPlus)

    def __repr__(self) -> str:
        return "NatPlus()"


class FiniteEnum(Algebra):
    """A finite enumerated carrier with no operations."""

    kind = "enum"

    def __init__(self, values: Iterable[str]):
        self.values = frozenset(values)

    def contains(self, value: Value) -> bool:
        return value in self.values

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteEnum) and self.values == other.values

    def __repr__(self) -> str:
        return f"FiniteEnum({sorted(self.values)})"


class LabelSet(frozenset):
    """A finite set of carrier values attached to one graph element."""

    __slots__ = ()

    def render(self) -> str:
        return "{" + ", ".join(render_value(v) for v in sorted(self, key=value_sort_key)) + "}"

    def __repr__(self) -> str:
        return f"LabelSet({self.render()})"


EMPTY_LABELS = LabelSet()


class EvaluationError(ValueError):
    pass


class AlgebraMorphism:
    """A map between algebras given by a variable assignment (or an identity).

    An assignment that sends every variable to itself is normalized to the
    identity.  Sources other than term algebras admit only the identity.
    """

    def __init__(self, source: Algebra, target: Algebra,
                 assignment: Optional[Mapping[str, Value]] = None):
        self.source = source
        self.target = target
        assignment = dict(assignment or {})
        if isinstance(source, TermAlg):
            if source == target and all(assignment.get(v, Var(v)) == Var(v) for v in source.variables):
                assignment = {}
            else:
                missing = source.variables - set(assignment)
                if missing:
                    raise ValueError(f"assignment misses variables {sorted(missing)}")
                extra = set(assignment) - source.variables
                if extra:
                    raise ValueError(f"assignment names unknown variables {sorted(extra)}")
                for v, val in assignment.items():
                    if not target.contains(val):
                        raise ValueError(f"assignment sends {v!r} outside the target carrier")
        else:
            if assignment or source != target:
                raise ValueError(f"a {source.kind} algebra admits only its identity morphism")
        self.assignment = assignment
        self.is_identity = source == target and not assignment

    @staticmethod
    def identity(algebra: Algebra) -> "AlgebraMorphism":
        return AlgebraMorphism(algebra, algebra, {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.assignment == other.assignment)

    def __repr__(self) -> str:
        if self.is_identity:
            return "AlgebraMorphism(id)"
        items = ", ".join(f"{v}->{render_value(t)}" for v, t in sorted(self.assignment.items()))
        return f"AlgebraMorphism({items})"


def evaluate_term(t: Value, h: AlgebraMorphism) -> Value:
    """Homomorphic image of a carrier value under a morphism."""
    if h.is_identity:
        if not h.source.contains(t):
            raise EvaluationError(f"{render_value(t)} is not in the carrier")
        return t
    if isinstance(t, Var):
        if t.name not in h.assignment:
            raise EvaluationError(f"variable {t.name!r} has no assignment")
        return h.assignment[t.name]
    if isinstance(t, Lit):
        if isinstance(h.target, NatPlus):
            return t.value
        if isinstance(h.target, TermAlg):
            return t
        raise EvaluationError(f"literal {t.value} has no image in a {h.target.kind} algebra")
    if isinstance(t, OpApp):
        if not isinstance(h.target, (NatPlus, TermAlg)):
            raise EvaluationError("operation '+' is not interpreted in the target algebra")
        left, right = (evaluate_term(a, h) for a in t.args)
        if isinstance(h.target, NatPlus):
            return left + right
        return OpApp("+", (left, right))
    raise EvaluationError(f"cannot evaluate {t!r}")


def apply_to_labelset(h: AlgebraMorphism, s: Iterable[Value]) -> LabelSet:
    """Elementwise image of a label set under an algebra morphism.

    Under an identity a `LabelSet` is its own image and is returned as it is;
    it is immutable, so sharing it is safe."""
    if h.is_identity:
        return s if isinstance(s, LabelSet) else LabelSet(s)
    return LabelSet(evaluate_term(v, h) for v in s)
