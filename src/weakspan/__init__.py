"""Weak-span graph rewriting with joint application of coherent match sets.

Rules take the shape L <- K <- I -> R over graphs attributed by finite label
sets: K is what survives deletion and I is the part a rule actively extends.
A set of matches whose required parts all embed in each other's deletion
contexts can be applied in a single step even when no order of one-at-a-time
applications reproduces it.

The root exports the engine.  The specification is imported as
``weakspan.constructions``, and no command loads it.
"""

from .algebras import (AlgebraMorphism, EvaluationError, FiniteEnum, LabelSet, Lit,
                       NatPlus, OpApp, TermAlg, TermSyntaxError, Var, apply_to_labelset,
                       evaluate_term, parse_term, render_term, render_value)
from .attrgraphs import AttrMorphism, AttributedGraph, ChangeSet, derive_graph, inclusion
from .fileio import (ParseError, ValidationError, export_dot, load_system, loads_system,
                     save_graph, save_system)
from .graphs import Graph, GraphMorphism, SortSignature, enumerate_morphisms, is_mono
from .hexgrid import HexGridSpec, ca_oracle, encode_grid, hex_system, huw_rules, live_cells
from .presets import fibonacci_system
from .rewriting import (DirectTransformation, GluingError, IncoherentSetError, Match, RulePlan,
                        SystemSpec, WeakSpan, apply_direct, coherent_set_check, find_matches,
                        pct)
from .runner import (HexcaResult, RunResult, StepReport, apply_parallel_step,
                     apply_sequential_step, cmd_hexca, cmd_run, rule_matches,
                     transport_match)

__version__ = "0.1.0"
