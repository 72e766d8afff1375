"""Contract lint rules (see DESIGN.md "Static contracts").

Every rule encodes one documented invariant of the engines:

==================  ====================================================
rule                invariant guarded
==================  ====================================================
set-iteration       unordered set iteration must not feed ordered
                    outputs (BMF determinism contract)
unseeded-rng        stimulus randomness flows from one seeded generator
                    through ``flow.py`` / ``stimulus.py``
float-reduction     QoR float sums go through the canonical per-word
                    partials (``qor.word_partials``), never ad-hoc
                    ``np.sum`` over error arrays
cache-copy          arrays handed out of caches/memos are shared —
                    return a ``.copy()`` or a frozen view, never the raw
                    slice
listing-order       filesystem listings (glob/listdir/iterdir) are
                    OS-order; wrap in ``sorted()`` before iterating
mutable-default     no mutable default arguments (shared across calls)
shard-pickle        executor payloads must be statically picklable
                    (enforced by :mod:`repro.analysis.pickleaudit`)
==================  ====================================================

Rules are deliberately conservative: they track only direct bindings
inside one function scope, so a miss is possible but a hit is almost
always real.  False positives are waived inline with a justified
``# contract-ok: <rule> -- why`` (see :mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .linter import Finding, LintContext, Rule

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    """The name chain of a Name/Attribute expression (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    return tuple(reversed(parts))


def _parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_body(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_TYPES + (ast.ClassDef,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_call_to(node: ast.AST, names: Set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _dotted(node.func)
    return bool(chain) and chain[-1] in names


# ----------------------------------------------------------------------
# set-iteration
# ----------------------------------------------------------------------
_SET_ANNOTATIONS = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "AbstractSet",
    "MutableSet",
}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return _is_call_to(node, {"set", "frozenset"})


def _is_set_annotation(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    chain = _dotted(node)
    return bool(chain) and chain[-1] in _SET_ANNOTATIONS


class SetIterationRule(Rule):
    """Iterating a set in an order-sensitive position.

    Set iteration order is insertion-history dependent (and, for interned
    objects, can vary across processes); any loop whose body feeds an
    ordered structure — a list, a tie-broken argmax, emitted output —
    must walk ``sorted(...)`` instead.  Commutative accumulations can be
    waived with a justification.
    """

    name = "set-iteration"
    anchor = "Static contracts: unordered iteration"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for scope in _scopes(ctx.tree):
            set_names = self._set_names(scope)
            for node in _scope_body(scope):
                yield from self._check_iter_sites(ctx, node, set_names)

    def _set_names(self, scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
            ):
                if arg.annotation is not None and _is_set_annotation(
                    arg.annotation
                ):
                    names.add(arg.arg)
        for node in _scope_body(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if (
                    node.value is not None and _is_set_expr(node.value)
                ) or _is_set_annotation(node.annotation):
                    names.add(node.target.id)
        return names

    def _check_iter_sites(
        self, ctx: LintContext, node: ast.AST, set_names: Set[str]
    ) -> Iterator[Finding]:
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            iters.extend(gen.iter for gen in node.generators)
        elif _is_call_to(node, {"list", "tuple"}) and node.args:
            iters.append(node.args[0])
        for it in iters:
            hit = _is_set_expr(it) or (
                isinstance(it, ast.Name) and it.id in set_names
            )
            if hit:
                label = (
                    it.id
                    if isinstance(it, ast.Name)
                    else "a set expression"
                )
                yield self.finding(
                    ctx,
                    it,
                    f"iterating {label} in unordered set order — "
                    "walk sorted(...) or justify commutativity",
                )


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
_RNG_SANCTIONED = {"repro/flow.py", "repro/circuit/stimulus.py"}
#: The search package is stricter still: searchers must use the single
#: seeded generator threaded from ``ExplorerConfig.seed``, so *any*
#: generator construction there — seeded or not — breaks the replay
#: contract (DESIGN.md "Search strategies").
_RNG_FORBIDDEN_PREFIXES = ("repro/core/search/",)
_GLOBAL_RNG_FNS = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "shuffle",
    "permutation",
    "choice",
    "normal",
    "uniform",
    "standard_normal",
}


class UnseededRngRule(Rule):
    """RNG construction that breaks seeded-stimulus determinism.

    Outside the sanctioned ``flow.py`` / ``stimulus.py`` entry points,
    every generator must be constructed with an explicit seed, and the
    legacy global-state ``np.random.*`` functions are banned outright
    (their hidden state couples unrelated call sites).  Inside
    ``repro/core/search/`` the rule hardens: constructing a generator at
    all — even seeded — is a finding, because searchers must draw from
    the one generator threaded from ``ExplorerConfig.seed`` (a private
    stream would desynchronize checkpoint replay).
    """

    name = "unseeded-rng"
    anchor = "Static contracts: seeded stimulus"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if ctx.module_tail in _RNG_SANCTIONED:
            return
        forbidden = ctx.module_tail.startswith(_RNG_FORBIDDEN_PREFIXES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain:
                continue
            if chain[-1] in {"default_rng", "RandomState"}:
                if forbidden:
                    yield self.finding(
                        ctx,
                        node,
                        f"{chain[-1]}() constructed inside the search "
                        "package — searchers must draw from the seeded "
                        "generator threaded from ExplorerConfig.seed",
                    )
                elif not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        f"unseeded {chain[-1]}() — pass an explicit seed "
                        "or take a Generator parameter",
                    )
            elif (
                len(chain) >= 2
                and chain[-2] == "random"
                and chain[-1] in _GLOBAL_RNG_FNS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"global-state np.random.{chain[-1]}() — use an "
                    "explicitly seeded np.random.default_rng instead",
                )


# ----------------------------------------------------------------------
# float-reduction
# ----------------------------------------------------------------------
#: The canonical implementation layer: qor.py owns the per-packed-word
#: partial-sum discipline, and the bmf kernels own the documented
#: ``dot(counts, w)`` weighted-error contract.
_SUM_SANCTIONED_PREFIXES = ("repro/core/qor.py", "repro/core/bmf/")
_ERRORISH = re.compile(r"(err|diff|delta|partial|qor|resid|mismatch)", re.I)
_REDUCERS = {"sum", "mean", "dot", "einsum", "matmul", "nansum"}


def _errorish_operand(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        chain = _dotted(sub)
        if chain and _ERRORISH.search(chain[-1]):
            return True
    return False


class FloatReductionRule(Rule):
    """Ad-hoc float reduction over error-like arrays.

    Float addition is not associative: QoR totals are only reproducible
    across chunked/sharded execution because every sum goes through the
    canonical per-packed-word partials (``qor.word_partials``) reduced
    in one fixed order.  ``np.sum``/``.sum()``/``np.dot`` over
    error-named operands outside the canonical layer bypasses that.
    Integer-exact counts (wrapped in ``int(...)``) are exempt.
    """

    name = "float-reduction"
    anchor = "Static contracts: canonical sums"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if any(
            ctx.module_tail == p
            or (p.endswith("/") and ctx.module_tail.startswith(p))
            for p in _SUM_SANCTIONED_PREFIXES
        ):
            return
        parents = _parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain or chain[-1] not in _REDUCERS:
                continue
            operands: List[ast.AST] = list(node.args)
            if isinstance(node.func, ast.Attribute) and chain[0] not in {
                "np",
                "numpy",
            }:
                operands.append(node.func.value)
            if not any(_errorish_operand(op) for op in operands):
                continue
            parent = parents.get(id(node))
            if _is_call_to(parent, {"int"}):
                continue  # exact integer count, associativity-safe
            yield self.finding(
                ctx,
                node,
                f"float {chain[-1]}() over an error-like operand — route "
                "through the canonical qor.word_partials helpers",
            )


# ----------------------------------------------------------------------
# cache-copy
# ----------------------------------------------------------------------
_CACHEISH = re.compile(
    r"(cache|memo|partial|entr(y|ies)|_exact_outputs|_out_words)", re.I
)


def _cacheish_source(node: ast.AST) -> bool:
    """True for ``<cacheish>[...]`` / ``<cacheish>.get(...)`` expressions."""
    if isinstance(node, ast.Subscript):
        chain = _dotted(node.value)
        return bool(chain) and bool(_CACHEISH.search(chain[-1]))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    ):
        chain = _dotted(node.func.value)
        return bool(chain) and bool(_CACHEISH.search(chain[-1]))
    return False


class CacheCopyRule(Rule):
    """Raw return of an array slice held by a cache or memo.

    A raw slice aliases the cache's storage: the caller can silently
    corrupt every later hit (and the parent's in-place repairs corrupt
    the caller).  Return ``.copy()`` — or a frozen view where the copy
    is the hot path's cost and the contract is read-only by design.
    Sanctioned raw returns carry a suppression and are frozen under
    ``REPRO_SANITIZE=1``.
    """

    name = "cache-copy"
    anchor = "Static contracts: cache aliasing"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for scope in _scopes(ctx.tree):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            tainted = self._tainted_names(scope)
            for node in _scope_body(scope):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                for expr in self._return_exprs(node.value):
                    if self._is_raw_cache_value(expr, tainted):
                        yield self.finding(
                            ctx,
                            node,
                            "raw return of a cache-held array — return "
                            ".copy() or a frozen view",
                        )
                        break

    @staticmethod
    def _tainted_names(scope: ast.AST) -> Set[str]:
        tainted: Set[str] = set()
        for node in _scope_body(scope):
            if isinstance(node, ast.Assign) and _cacheish_source(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
        return tainted

    @staticmethod
    def _return_exprs(value: ast.AST) -> Iterator[ast.AST]:
        if isinstance(value, ast.IfExp):
            yield value.body
            yield value.orelse
        else:
            yield value

    @staticmethod
    def _is_raw_cache_value(expr: ast.AST, tainted: Set[str]) -> bool:
        if _cacheish_source(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in tainted:
            return True
        if isinstance(expr, ast.Subscript) and isinstance(
            expr.value, ast.Name
        ):
            return expr.value.id in tainted
        if isinstance(expr, ast.Attribute):
            return bool(
                re.search(r"(_exact_outputs|_out_words)$", expr.attr)
            )
        return False


# ----------------------------------------------------------------------
# listing-order
# ----------------------------------------------------------------------
#: Path-like methods flagged on any receiver, and os-level functions
#: flagged only as ``os.*`` (``walk`` alone would match ``ast.walk``).
_LISTING_METHODS = {"glob", "rglob", "iterdir"}
_OS_LISTING_FNS = {"listdir", "scandir", "walk"}


class ListingOrderRule(Rule):
    """Filesystem listing consumed without ``sorted()``.

    ``glob``/``listdir``/``iterdir`` order is filesystem-dependent;
    anything ordered built from a listing must sort it first.  Pure
    cardinality or existence checks can be waived.
    """

    name = "listing-order"
    anchor = "Static contracts: filesystem walks"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        parents = _parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain:
                continue
            is_listing = chain[-1] in _LISTING_METHODS or (
                chain[-1] in _OS_LISTING_FNS
                and len(chain) >= 2
                and chain[-2] == "os"
            )
            if not is_listing:
                continue
            parent = parents.get(id(node))
            if _is_call_to(parent, {"sorted"}):
                continue
            yield self.finding(
                ctx,
                node,
                f"unsorted filesystem listing ({chain[-1]}) — wrap in "
                "sorted(...) or justify order-independence",
            )


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """Mutable default argument — shared across every call."""

    name = "mutable-default"
    anchor = "Static contracts: mutable defaults"

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.SetComp,
                              ast.ListComp, ast.DictComp)
                ) or _is_call_to(
                    default, {"list", "dict", "set", "defaultdict"}
                ):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument — default to None and "
                        "construct inside the function",
                    )


#: Rule registry consumed by :func:`repro.analysis.linter.default_rules`.
#: ``shard-pickle`` findings come from :mod:`repro.analysis.pickleaudit`,
#: wired into the lint run by the linter core.
ALL_RULES = (
    SetIterationRule,
    UnseededRngRule,
    FloatReductionRule,
    CacheCopyRule,
    ListingOrderRule,
    MutableDefaultRule,
)
