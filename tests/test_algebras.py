import sys

import pytest

from weakspan import (
    AlgebraMorphism,
    EvaluationError,
    FiniteEnum,
    LabelSet,
    Lit,
    NatPlus,
    OpApp,
    TermAlg,
    TermSyntaxError,
    Var,
    apply_to_labelset,
    evaluate_term,
    parse_term,
    render_term,
    render_value,
)
from weakspan.algebras import MAX_TERM_DEPTH, value_sort_key
from weakspan.constructions import compose_algebra

# Python 3.11 refuses to convert integers past a digit limit to and from
# decimal text; earlier interpreters may have no limit
DIGIT_LIMITED = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                   reason="the interpreter converts integers of any length")


class TestParseTerm:
    def test_variable(self):
        assert parse_term("u") == Var("u")

    def test_literal(self):
        assert parse_term("42") == Lit(42)

    def test_sum(self):
        assert parse_term("u + v") == OpApp("+", (Var("u"), Var("v")))

    def test_sum_is_left_associative(self):
        assert parse_term("u+v+1") == OpApp("+", (OpApp("+", (Var("u"), Var("v"))), Lit(1)))

    def test_parentheses_override_association(self):
        assert parse_term("u+(v+1)") == OpApp("+", (Var("u"), OpApp("+", (Var("v"), Lit(1)))))

    def test_primed_variable_names(self):
        assert parse_term("u'") == Var("u'")

    @pytest.mark.parametrize("bad", ["", "u +", "(u", "u ++ v", "U", "3x missing op"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "u" + ")" * n,
        lambda n: "+".join(["u"] * (n + 1)),
        lambda n: "u+(" * n + "u" + ")" * n,
    ], ids=["parentheses", "left-nested sum", "right-nested sum"])
    def test_depth_limit(self, nest):
        parse_term(nest(MAX_TERM_DEPTH))
        with pytest.raises(TermSyntaxError, match="deeper than"):
            parse_term(nest(MAX_TERM_DEPTH + 1))

    @DIGIT_LIMITED
    def test_a_literal_longer_than_the_interpreter_reads_is_a_syntax_error(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(TermSyntaxError) as raised:
            parse_term("u+" + "9" * digits)
        assert str(raised.value) == f"literal of {digits} digits is too long to read"

    def test_a_digit_outside_ascii_is_a_bad_character(self):
        with pytest.raises(TermSyntaxError, match="bad character '²'"):
            parse_term("u+²")

    @pytest.mark.parametrize("text", ["u", "17", "u+v", "u+v+w", "u+(v+w)", "(u+v)+3"])
    def test_round_trip(self, text):
        term = parse_term(text)
        assert parse_term(render_term(term)) == term


def test_render_parenthesizes_only_where_needed():
    left_heavy = OpApp("+", (OpApp("+", (Var("u"), Var("v"))), Lit(1)))
    right_heavy = OpApp("+", (Var("u"), OpApp("+", (Var("v"), Lit(1)))))
    assert render_term(left_heavy) == "u+v+1"
    assert render_term(right_heavy) == "u+(v+1)"


class TestCarriers:
    def test_nat_contains_naturals_only(self):
        nat = NatPlus()
        assert nat.contains(0) and nat.contains(7)
        assert not nat.contains(-1)
        assert not nat.contains(True)
        assert not nat.contains("3")

    def test_enum_contains_declared_values(self):
        alg = FiniteEnum(("0", "1"))
        assert alg.contains("0")
        assert not alg.contains("2")
        assert not alg.contains(0)

    def test_terms_respect_declared_variables(self):
        alg = TermAlg(("u",))
        assert alg.contains(Var("u"))
        assert not alg.contains(Var("v"))
        assert alg.contains(OpApp("+", (Var("u"), Lit(2))))
        with pytest.raises(ValueError, match="^a term operation is binary"):
            OpApp("+", (Var("u"),))
        with pytest.raises(ValueError, match="^a term operation is binary"):
            OpApp("*", (Var("u"), Lit(1)))


class TestAlgebraMorphism:
    def test_assignment_must_cover_all_variables(self):
        terms = TermAlg(("u", "v"))
        with pytest.raises(ValueError, match="misses"):
            AlgebraMorphism(terms, NatPlus(), {"u": 1})

    def test_assignment_must_not_name_strangers(self):
        terms = TermAlg(("u",))
        with pytest.raises(ValueError, match="unknown"):
            AlgebraMorphism(terms, NatPlus(), {"u": 1, "w": 2})

    def test_values_must_lie_in_target_carrier(self):
        terms = TermAlg(("u",))
        with pytest.raises(ValueError, match="outside"):
            AlgebraMorphism(terms, NatPlus(), {"u": -3})

    def test_self_assignment_normalizes_to_identity(self):
        terms = TermAlg(("u", "v"))
        h = AlgebraMorphism(terms, terms, {"u": Var("u"), "v": Var("v")})
        assert h.is_identity

    def test_non_term_source_admits_only_identity(self):
        with pytest.raises(ValueError):
            AlgebraMorphism(NatPlus(), NatPlus(), {"u": 1})
        assert AlgebraMorphism.identity(NatPlus()).is_identity

    def test_evaluation(self):
        terms = TermAlg(("u", "v"))
        h = AlgebraMorphism(terms, NatPlus(), {"u": 1, "v": 2})
        assert evaluate_term(Var("u"), h) == 1
        assert evaluate_term(Lit(9), h) == 9
        assert evaluate_term(OpApp("+", (Var("u"), Var("v"))), h) == 3
        assert evaluate_term(OpApp("+", (OpApp("+", (Var("u"), Var("v"))), Lit(4))), h) == 7

    def test_evaluation_needs_interpreted_operations(self):
        terms = TermAlg(("u",))
        h = AlgebraMorphism(terms, FiniteEnum(("a", "b")), {"u": "a"})
        with pytest.raises(EvaluationError,
                           match=r"^operation '\+' is not interpreted in the target algebra$"):
            evaluate_term(OpApp("+", (Var("u"), Var("u"))), h)

    def test_composition_substitutes_then_evaluates(self):
        inner_alg = TermAlg(("x",))
        outer_alg = TermAlg(("u", "v"))
        inner = AlgebraMorphism(inner_alg, outer_alg, {"x": OpApp("+", (Var("u"), Var("v")))})
        outer = AlgebraMorphism(outer_alg, NatPlus(), {"u": 10, "v": 5})
        composed = compose_algebra(outer, inner)
        assert composed.source == inner_alg
        assert composed.target == NatPlus()
        assert evaluate_term(Var("x"), composed) == 15

    def test_composition_with_identity_is_neutral(self):
        terms = TermAlg(("u",))
        h = AlgebraMorphism(terms, NatPlus(), {"u": 4})
        ident = AlgebraMorphism.identity(NatPlus())
        assert compose_algebra(ident, h) == h
        assert compose_algebra(h, AlgebraMorphism.identity(terms)) == h


def test_apply_to_labelset_collapses_equal_images():
    terms = TermAlg(("u", "v"))
    h = AlgebraMorphism(terms, NatPlus(), {"u": 2, "v": 1})
    labels = LabelSet([Var("u"), OpApp("+", (Var("v"), Lit(1))), Lit(5)])
    assert apply_to_labelset(h, labels) == LabelSet([2, 5])


def test_apply_to_labelset_shares_a_label_set_under_an_identity():
    ident = AlgebraMorphism.identity(NatPlus())
    labels = LabelSet([1, 3])
    assert apply_to_labelset(ident, labels) is labels
    for other in ([1, 3], {1, 3}, frozenset([1, 3]), (v for v in (1, 3))):
        mapped = apply_to_labelset(ident, other)
        assert type(mapped) is LabelSet and mapped == labels and mapped is not other


@DIGIT_LIMITED
def test_an_integer_longer_than_the_interpreter_writes_renders_by_its_size():
    limit = sys.get_int_max_str_digits()
    assert render_value(10 ** limit - 1) == "9" * limit
    assert render_value(10 ** limit) == f"<integer of {limit + 1} digits>"
    assert render_value(10 ** (2 * limit) - 1) == f"<integer of {2 * limit} digits>"
    assert LabelSet([10 ** limit, 1]).render() == f"{{1, <integer of {limit + 1} digits>}}"


@DIGIT_LIMITED
def test_a_term_literal_longer_than_the_interpreter_writes_renders_by_its_size():
    limit = sys.get_int_max_str_digits()
    big = OpApp("+", (Var("u"), Lit(10 ** limit)))
    size = f"<integer of {limit + 1} digits>"
    assert render_value(big) == f"u+{size}"
    assert LabelSet([big, Var("u")]).render() == f"{{u, u+{size}}}"
    assert sorted([big, Var("v"), Var("u")], key=value_sort_key) == [Var("u"), big, Var("v")]
    # the writer's path stays strict: a term that cannot be read back is not written
    with pytest.raises(ValueError, match="Exceeds the limit"):
        render_term(big)


@DIGIT_LIMITED
def test_a_term_literal_longer_than_the_interpreter_writes_shows_its_size_in_repr():
    limit = sys.get_int_max_str_digits()
    size = f"<integer of {limit + 1} digits>"
    assert repr(Lit(10 ** limit)) == f"Lit(value={size})"
    assert repr(OpApp("+", (Var("u"), Lit(10 ** limit)))) == (
        f"OpApp(op='+', args=(Var(name='u'), Lit(value={size})))")
    assert repr(Lit(5)) == "Lit(value=5)"


def test_labelset_renders_sorted_and_braced():
    assert LabelSet([3, 1]).render() == "{1, 3}"
    assert LabelSet([Var("u"), Lit(2)]).render() == "{2, u}"
    assert LabelSet().render() == "{}"
