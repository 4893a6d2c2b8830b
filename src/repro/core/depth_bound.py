"""Depth-bound analysis (§4.2, Alg. 4): bounding the recursion height from the pre-state.

Two complementary implementations are provided.

``alg4_depth_formula``
    The literal Alg. 4 construction: a combined control-flow "depth-bounding
    model" in which every recursive call either *descends* (increment the
    auxiliary counter ``D``, bind the callee's formals to the actuals, havoc
    locals, continue at the callee's entry) or is *skipped* (havoc globals and
    the return value), and the model exits through a base-case summary.  A
    path summary of this model relates the final value of ``D`` — the depth at
    which some base case executes — to the pre-state.  Its polyhedral
    consequences become constraints of the procedure summary (Eqn. (4)).

``descent_depth_bound``
    A closed-form bound on the height obtained from the per-call-site
    parameter transformation: a candidate ranking expression (a parameter or
    a difference of parameters) that provably decreases *arithmetically*
    (by at least one) or *geometrically* (by a constant factor) at every
    recursive call, combined with a lower bound on its value in the recursive
    region.  Geometric descent yields the logarithmic height bounds that give
    divide-and-conquer complexities (``O(n log n)``, ``O(n^log2 7)``, ...);
    these involve logarithms and therefore live outside the polyhedral
    fragment, which is why they are reported symbolically (sympy expressions)
    rather than as formula constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import sympy

from ..abstraction import AbstractionOptions, abstract, formula_entails
from ..analysis import ProcedureContext, inline_call, path_summary
from ..formulas import (
    RETURN_VARIABLE,
    Formula,
    Polynomial,
    Symbol,
    TransitionFormula,
    atom_eq,
    atom_le,
    conjoin,
    exists,
    post,
    pre,
)
from ..lang import ast
from ..lang.cfg import CallEdge, ControlFlowGraph, WeightEdge
from ..lang.semantics import translate_expression
from ..polyhedra import maximize
from .summaries import DEPTH_SYMBOL, DepthBound

__all__ = [
    "DescentKind",
    "DescentWitness",
    "descent_depth_bound",
    "alg4_depth_formula",
    "compute_depth_bound",
]

#: Name of the auxiliary depth counter introduced by Alg. 4.
DEPTH_VARIABLE = "__D"


# ---------------------------------------------------------------------- #
# Closed-form descent bounds
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DescentKind:
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class DescentWitness:
    """A ranking expression together with how it descends at recursive calls.

    The bounds derived from a witness count the frames *inside* the
    recursive region, so they hold for executions of height >= 2; a call
    whose argument lies outside the descent regime still terminates at
    height 1 (immediate base case) without satisfying them.  Callers must
    either guard with the height-1 disjunct (polyhedral side) or clamp the
    closed form at 1 (symbolic side, see :meth:`covers_single_level`).
    """

    expression: Polynomial        # over unprimed parameter symbols
    kind: str
    factor: Fraction              # decrease amount (arithmetic) or ratio (geometric)
    minimum: Fraction             # lower bound of the expression in the recursive region
    exact: bool                   # True when every call decreases it by exactly `factor`
    base_value: Optional[Fraction] = None   # exact value in the base region, when known
    slack: Fraction = Fraction(0)           # geometric: r * e' <= e + slack

    def symbolic_height_bound(self) -> sympy.Expr:
        """An upper bound on the height of *recursing* executions (>= 2 frames)."""
        e0 = _polynomial_to_sympy(self.expression)
        if self.kind == DescentKind.ARITHMETIC:
            if self.exact and self.base_value is not None:
                return e0 - sympy.Rational(self.base_value) + 1
            return e0 - sympy.Rational(self.minimum) + 2
        ratio = sympy.Rational(self.factor)
        # r*e' <= e + s  is  (e' - c) <= (e - c)/r  for the fixpoint
        # c = s/(r-1): the chain contracts geometrically towards c, so the
        # height is logarithmic in (e0 - c)/(m - c).  Acceptance requires
        # minimum > c, keeping the floor positive.
        shift = sympy.Rational(self.slack) / (ratio - 1) if self.slack else sympy.Integer(0)
        floor_value = sympy.Rational(max(self.minimum, Fraction(1)))
        return sympy.log((e0 - shift) / (floor_value - shift), ratio) + 2

    def covers_single_level(self) -> bool:
        """Whether the closed form also bounds height-1 executions at args >= 1.

        A height-1 execution can start anywhere in the base region, where the
        ranking expression is unconstrained — but claims are evaluated in the
        positive regime (every argument >= 1).  The closed form covers those
        executions whenever its infimum over that regime is >= 1; when the
        ranking has a negatively-weighted parameter or too large a floor, it
        does not, and the caller must clamp with ``Max(1, ...)``.
        """
        if (
            self.kind == DescentKind.ARITHMETIC
            and self.exact
            and self.base_value is not None
        ):
            # Exact descent onto a constant base value holds at height 1 for
            # *any* argument: the entry state is in the base region, so the
            # ranking equals the base value and the bound evaluates to 1.
            return True
        _, _, nonlinear = self.expression.split_linear()
        if not nonlinear.is_zero:
            return False
        coefficients = self.expression.linear_coefficients()
        if any(c < 0 for c in coefficients.values()):
            return False
        infimum = self.expression.constant_value + sum(
            c for c in coefficients.values() if c > 0
        )
        if self.kind == DescentKind.ARITHMETIC:
            return infimum - self.minimum + 2 >= 1
        shift = self.slack / (self.factor - 1)
        floor_value = max(self.minimum, Fraction(1))
        # log_r((e0-c)/(m-c)) + 2 >= 1  <=>  e0 >= c + (m-c)/r.
        return infimum >= shift + (floor_value - shift) / self.factor


def _polynomial_to_sympy(polynomial: Polynomial) -> sympy.Expr:
    expr = sympy.Integer(0)
    for monomial, coefficient in polynomial.items():
        term = sympy.Rational(coefficient.numerator, coefficient.denominator)
        for symbol, power in monomial.powers:
            term *= sympy.Symbol(symbol.name, positive=True) ** power
        expr += term
    return sympy.expand(expr)


def _candidate_rankings(parameters: Sequence[str]) -> list[Polynomial]:
    candidates = [Polynomial.var(pre(p)) for p in parameters]
    for p, q in itertools.permutations(parameters, 2):
        candidates.append(Polynomial.var(pre(p)) - Polynomial.var(pre(q)))
    return candidates


def descent_depth_bound(
    contexts: Mapping[str, ProcedureContext],
    base_summaries: Mapping[str, TransitionFormula],
    external_summaries: Mapping[str, TransitionFormula],
    procedures: Mapping[str, ast.Procedure],
    options: AbstractionOptions = AbstractionOptions(),
) -> Optional[DescentWitness]:
    """Find a ranking expression that descends at every recursive call of the SCC."""
    scc = set(contexts)
    # Collect the transformation relation of every intra-SCC call edge.
    transformations: list[Formula] = []
    recursive_guards: list[Formula] = []
    for name, context in contexts.items():
        def interpret(edge: CallEdge, _context=context) -> TransitionFormula:
            if edge.callee in scc:
                havoced = list(_context.global_names)
                if edge.result is not None:
                    havoced.append(edge.result)
                return TransitionFormula.havoc(havoced)
            summary = external_summaries.get(edge.callee)
            if summary is None:
                havoced = list(_context.global_names)
                if edge.result is not None:
                    havoced.append(edge.result)
                return TransitionFormula.havoc(havoced)
            return inline_call(edge, procedures[edge.callee], summary)

        for edge in context.cfg.call_edges:
            if edge.callee not in scc:
                continue
            # Relation between the caller's entry state and the callee's
            # parameters: the path to the call site composed with the binding
            # of the actual arguments (arguments are evaluated in the
            # *call-site* state, which may involve locals such as `half = n/2`).
            prefix = path_summary(
                context.cfg, interpret, source=context.cfg.entry, target=edge.source,
                options=options,
            )
            binding = _parameter_binding(edge, procedures[edge.callee])
            transformation = prefix.compose(binding)
            callee_params = procedures[edge.callee].scalar_parameters
            keep = [pre(p) for p in context.procedure.scalar_parameters] + [
                post(p) for p in callee_params
            ]
            relation = abstract(
                transformation.to_formula(context.variables), keep, options
            ).to_formula()
            transformations.append(relation)
            prefix_keep = [pre(p) for p in context.procedure.scalar_parameters]
            guard_abstraction = abstract(
                prefix.to_formula(context.variables), prefix_keep, options
            )
            recursive_guards.append(guard_abstraction.to_formula())
    if not transformations:
        return None

    # Common parameter vocabulary (intersection across the SCC, so that a
    # ranking expression is meaningful in every member).
    parameter_sets = [set(c.procedure.scalar_parameters) for c in contexts.values()]
    common = set.intersection(*parameter_sets) if parameter_sets else set()
    if not common:
        return None

    # The base-case formulas are candidate-independent; build them once here
    # instead of once per candidate ranking inside every minimum/exact-value
    # query (their transition formulas are large after composition).
    base_formulas = [
        (name, summary.to_formula(contexts[name].summary_variables))
        for name, summary in base_summaries.items()
        if not summary.is_bottom
    ]
    best: Optional[DescentWitness] = None
    for candidate in _candidate_rankings(sorted(common)):
        pre_value = candidate
        post_value = candidate.rename(
            {pre(s.name): post(s.name) for s in candidate.symbols}
        )
        witness = _check_candidate(
            candidate, pre_value, post_value, transformations, recursive_guards,
            base_formulas, options,
        )
        if witness is None:
            continue
        if best is None or _witness_priority(witness) > _witness_priority(best):
            best = witness
    return best


def _witness_priority(witness: DescentWitness) -> tuple:
    # Prefer geometric bounds (they are asymptotically tighter), then exact ones.
    return (witness.kind == DescentKind.GEOMETRIC, witness.exact)


def _check_candidate(
    candidate: Polynomial,
    pre_value: Polynomial,
    post_value: Polynomial,
    transformations: Sequence[Formula],
    recursive_guards: Sequence[Formula],
    base_formulas: Sequence[tuple[str, Formula]],
    options: AbstractionOptions,
) -> Optional[DescentWitness]:
    guard_minimum = _minimum_over_guards(pre_value, recursive_guards, options)
    base_minimum = _minimum_base_value(candidate, base_formulas, options)
    # The relational semantics only contains terminating executions; a
    # terminating descent can never drop below the base region's minimum (the
    # ranking expression only decreases along a call chain, so undershooting
    # the base region would make the chain infinite).  The effective minimum
    # is therefore the best of the two available lower bounds.
    candidates_minimum = [m for m in (guard_minimum, base_minimum) if m is not None]
    minimum = max(candidates_minimum) if candidates_minimum else None

    # Geometric descent: r * e' <= e (+ slack) for every call.  With slack
    # the chain contracts towards c = slack/(r-1) rather than 0, so the
    # recursive region's minimum must stay strictly above c for the height
    # to be logarithmic at all.
    for ratio, slack in (
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(0)),
        (Fraction(3), Fraction(2)),
    ):
        if all(
            formula_entails(t, atom_le(post_value.scale(ratio), pre_value + slack), options)
            for t in transformations
        ):
            shift = slack / (ratio - 1)
            if minimum is not None and minimum >= 1 and minimum > shift:
                return DescentWitness(
                    candidate, DescentKind.GEOMETRIC, ratio, minimum, False,
                    slack=slack,
                )
    # Arithmetic descent: e' <= e - 1 for every call.
    if all(
        formula_entails(t, atom_le(post_value, pre_value - 1), options)
        for t in transformations
    ):
        if minimum is None:
            return None
        exact = all(
            formula_entails(t, atom_eq(post_value, pre_value - 1), options)
            for t in transformations
        )
        base_value = _exact_base_value(candidate, base_formulas, options)
        return DescentWitness(
            candidate,
            DescentKind.ARITHMETIC,
            Fraction(1),
            minimum,
            exact and base_value is not None,
            base_value,
        )
    return None


def _minimum_base_value(
    expression: Polynomial,
    base_formulas: Sequence[tuple[str, Formula]],
    options: AbstractionOptions,
) -> Optional[Fraction]:
    """The minimum of ``expression`` over the base-case regions, if finite."""
    minimum: Optional[Fraction] = None
    for name, formula in base_formulas:
        abstraction = abstract(formula, list(expression.symbols), options)
        if abstraction.polyhedron.is_empty():
            continue
        linearized = abstraction.context.linearize_polynomial(expression)
        objective = {s: -c for s, c in linearized.linear_coefficients().items()}
        result = maximize(objective, abstraction.polyhedron.constraints)
        if not result.is_optimal or result.value is None:
            return None
        this_minimum = -Fraction(result.value) + expression.constant_value
        if minimum is None or this_minimum < minimum:
            minimum = this_minimum
    return minimum


def _minimum_over_guards(
    expression: Polynomial,
    guards: Sequence[Formula],
    options: AbstractionOptions,
) -> Optional[Fraction]:
    """Exact lower bound of ``expression`` over every recursive-region guard."""
    minimum: Optional[Fraction] = None
    for guard in guards:
        abstraction = abstract(guard, list(expression.symbols), options)
        if abstraction.polyhedron.is_empty():
            continue
        linearized = abstraction.context.linearize_polynomial(expression)
        objective = {s: -c for s, c in linearized.linear_coefficients().items()}
        result = maximize(objective, abstraction.polyhedron.constraints)
        if not result.is_optimal or result.value is None:
            return None
        guard_minimum = -Fraction(result.value)
        if minimum is None or guard_minimum < minimum:
            minimum = guard_minimum
    if minimum is None:
        return None
    return minimum + expression.constant_value


def _exact_base_value(
    expression: Polynomial,
    base_formulas: Sequence[tuple[str, Formula]],
    options: AbstractionOptions,
) -> Optional[Fraction]:
    """The constant value of ``expression`` in every base-case region, if any."""
    value: Optional[Fraction] = None
    for name, formula in base_formulas:
        abstraction = abstract(formula, list(expression.symbols), options)
        if abstraction.polyhedron.is_empty():
            continue
        linearized = abstraction.context.linearize_polynomial(expression) - expression.constant_value
        coefficients = linearized.linear_coefficients()
        upper = maximize(coefficients, abstraction.polyhedron.constraints)
        lower = maximize(
            {s: -c for s, c in coefficients.items()},
            abstraction.polyhedron.constraints,
        )
        if not (upper.is_optimal and lower.is_optimal):
            return None
        if upper.value is None or lower.value is None or upper.value != -lower.value:
            return None
        this_value = Fraction(upper.value) + expression.constant_value
        if value is None:
            value = this_value
        elif value != this_value:
            return None
    return value


# ---------------------------------------------------------------------- #
# Literal Alg. 4: the depth-bounding model
# ---------------------------------------------------------------------- #
def alg4_depth_formula(
    target: str,
    contexts: Mapping[str, ProcedureContext],
    base_summaries: Mapping[str, TransitionFormula],
    external_summaries: Mapping[str, TransitionFormula],
    procedures: Mapping[str, ast.Procedure],
    options: AbstractionOptions = AbstractionOptions(),
) -> TransitionFormula:
    """``zeta_target(D, sigma)``: the Alg. 4 path summary of the depth model.

    The returned transition formula's post-state value of ``__D`` is the
    depth at which some base case of the component executes, related to the
    pre-state of ``target``'s parameters and the globals.
    """
    scc = set(contexts)
    counter = itertools.count()
    vertex_map: dict[tuple[str, int], int] = {}

    def vertex(name: str, original: int) -> int:
        key = (name, original)
        if key not in vertex_map:
            vertex_map[key] = next(counter)
        return vertex_map[key]

    model = ControlFlowGraph(procedure="__depth_model", entry=-1, exit=-2)
    model.vertices.update([])
    new_entry = next(counter)
    new_exit = next(counter)
    model.entry = new_entry
    model.exit = new_exit
    model.vertices.add(new_entry)
    model.vertices.add(new_exit)

    def add_edge(source: int, dest: int, transition: TransitionFormula, label: str) -> None:
        model.vertices.add(source)
        model.vertices.add(dest)
        model.weight_edges.append(WeightEdge(source, dest, transition, label))

    # Entry: D := 1 and jump to the target procedure's entry.
    init = TransitionFormula.relation(
        atom_eq(Polynomial.var(post(DEPTH_VARIABLE)), 1), [DEPTH_VARIABLE]
    )
    add_edge(new_entry, vertex(target, contexts[target].cfg.entry), init, "D := 1")

    for name, context in contexts.items():
        cfg = context.cfg
        # Base-case exit: from the procedure's entry, through its base-case
        # summary, to the model's exit.
        base = base_summaries.get(name, TransitionFormula.bottom())
        if not base.is_bottom:
            add_edge(vertex(name, cfg.entry), new_exit, base, f"base({name})")
        # Intraprocedural weighted edges are kept as they are.
        for edge in cfg.weight_edges:
            add_edge(
                vertex(name, edge.source),
                vertex(name, edge.target),
                edge.transition,
                edge.label,
            )
        # Call edges: descend or skip.
        for edge in cfg.call_edges:
            source = vertex(name, edge.source)
            dest = vertex(name, edge.target)
            if edge.callee in scc:
                callee_context = contexts[edge.callee]
                # Descend: bind formals, increment D, havoc the callee's locals.
                binding: TransitionFormula = TransitionFormula.relation(
                    atom_eq(
                        Polynomial.var(post(DEPTH_VARIABLE)),
                        Polynomial.var(pre(DEPTH_VARIABLE)) + 1,
                    ),
                    [DEPTH_VARIABLE],
                )
                callee = procedures[edge.callee]
                binding = binding.compose(
                    _parameter_binding(edge, callee)
                )
                locals_to_havoc = [
                    local
                    for local in callee_context.cfg.locals
                    if local not in callee_context.global_names
                ]
                if locals_to_havoc:
                    binding = binding.compose(TransitionFormula.havoc(locals_to_havoc))
                add_edge(source, vertex(edge.callee, callee_context.cfg.entry), binding, "descend")
                # Skip: havoc globals and the call's result.
                havoced = list(context.global_names) + [RETURN_VARIABLE]
                if edge.result is not None:
                    havoced.append(edge.result)
                add_edge(source, dest, TransitionFormula.havoc(havoced), "skip call")
            else:
                summary = external_summaries.get(edge.callee)
                if summary is None:
                    havoced = list(context.global_names)
                    if edge.result is not None:
                        havoced.append(edge.result)
                    add_edge(source, dest, TransitionFormula.havoc(havoced), "unknown call")
                else:
                    add_edge(
                        source,
                        dest,
                        inline_call(edge, procedures[edge.callee], summary),
                        f"summary({edge.callee})",
                    )

    def no_calls(edge: CallEdge) -> TransitionFormula:  # pragma: no cover
        raise AssertionError("the depth model has no call edges")

    return path_summary(model, no_calls, options=options)


def _parameter_binding(edge: CallEdge, callee: ast.Procedure) -> TransitionFormula:
    conjuncts: list[Formula] = []
    bound: list[Symbol] = []
    names: list[str] = []
    for parameter, argument in zip(callee.parameters, edge.arguments):
        if parameter.is_array:
            continue
        translated = translate_expression(argument)
        conjuncts.append(translated.constraints)
        conjuncts.append(atom_eq(Polynomial.var(post(parameter.name)), translated.value))
        bound.extend(translated.fresh_symbols)
        names.append(parameter.name)
    return TransitionFormula.relation(exists(bound, conjoin(conjuncts)), names)


# ---------------------------------------------------------------------- #
# Combining both into a DepthBound
# ---------------------------------------------------------------------- #
def compute_depth_bound(
    target: str,
    contexts: Mapping[str, ProcedureContext],
    base_summaries: Mapping[str, TransitionFormula],
    external_summaries: Mapping[str, TransitionFormula],
    procedures: Mapping[str, ast.Procedure],
    options: AbstractionOptions = AbstractionOptions(),
    use_alg4: bool = True,
) -> DepthBound:
    """Compute the depth bound of ``target`` (polyhedral + symbolic parts)."""
    constraints: list[tuple[Polynomial, bool]] = []
    recursive_constraints: list[tuple[Polynomial, bool]] = []
    witness = descent_depth_bound(
        contexts, base_summaries, external_summaries, procedures, options
    )
    symbolic: Optional[sympy.Expr] = None
    exact = False
    if witness is not None:
        symbolic = witness.symbolic_height_bound()
        exact = witness.exact and witness.kind == DescentKind.ARITHMETIC
        if not witness.covers_single_level():
            # The descent bound says nothing about an immediate base case
            # (height 1), and its value can dip below 1 even at positive
            # arguments; clamp so the closed form stays a bound for every
            # execution in the claimed regime.
            symbolic = sympy.Max(sympy.Integer(1), symbolic)
            exact = False
        if witness.kind == DescentKind.ARITHMETIC:
            # D <= e0 - minimum + 2   (or exactly e0 - base + 1).
            if exact and witness.base_value is not None:
                # Exact descent with a constant base value holds for height-1
                # executions too (the entry state *is* the base region), so
                # the equality is unconditional.
                constraints.append(
                    (
                        Polynomial.var(DEPTH_SYMBOL)
                        - witness.expression
                        + witness.base_value
                        - 1,
                        True,
                    )
                )
            else:
                # Valid only for executions that recurse: the derivation
                # counts frames inside the recursive region, and a call whose
                # argument sits outside it still runs at height 1.
                recursive_constraints.append(
                    (
                        Polynomial.var(DEPTH_SYMBOL)
                        - witness.expression
                        + witness.minimum
                        - 2,
                        False,
                    )
                )
    if use_alg4:
        zeta = alg4_depth_formula(
            target, contexts, base_summaries, external_summaries, procedures, options
        )
        if not zeta.is_bottom:
            context = contexts[target]
            keep = [post(DEPTH_VARIABLE)] + [
                pre(p) for p in context.procedure.scalar_parameters
            ] + [pre(g) for g in context.global_names]
            abstraction = abstract(zeta.to_formula([DEPTH_VARIABLE]), keep, options)
            for inequation in abstraction:
                if post(DEPTH_VARIABLE) not in inequation.polynomial.symbols:
                    continue
                renamed = inequation.polynomial.rename({post(DEPTH_VARIABLE): DEPTH_SYMBOL})
                constraints.append((renamed, inequation.is_equality))
    return DepthBound(
        tuple(constraints), symbolic, exact, tuple(recursive_constraints)
    )
