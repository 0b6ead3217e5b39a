"""Symbolic algebra of operator polynomials over residual blocks.

A residual module is written as a polynomial of block operators added to an
identity path, e.g. ``I + F + FF`` for a second-order module with a shared
block. This module provides the expression types, the expansion of the named
module families (ir, poly-k, mpoly-k, k-way), the Horner-style cascade
rewriting that factors shared prefixes out of the residual branch, the
brute-force symbolic expansion used as the correctness oracle for rewrites,
path dropping, and block-application counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

__all__ = [
    "AlgebraError",
    "ExprSyntaxError",
    "BlockId",
    "Identity",
    "IDENTITY",
    "BlockRef",
    "Sum",
    "Compose",
    "Scaled",
    "OperatorExpr",
    "Monomial",
    "ModuleKind",
    "IR",
    "expand_module",
    "module_monomials",
    "cascade",
    "expand_symbolic",
    "symbolically_equal",
    "drop_paths",
    "block_applications",
    "format_expr",
    "parse_expr",
]


class AlgebraError(ValueError):
    """Raised for malformed expressions or invalid module parameters."""


class ExprSyntaxError(AlgebraError):
    """Raised when expression text cannot be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# Letters used for block names in module expansions. 'I' is reserved for the
# identity operator, so the alphabet starts at F (matching the I/F/G/H
# convention) and skips I.
_BLOCK_LETTERS = "FGHJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class BlockId:
    """A named residual block. Two refs with equal ``share_key`` bind the
    same parameters; the name is only a display label."""

    name: str
    share_key: str

    @classmethod
    def lettered(cls, letter: str) -> "BlockId":
        return cls(letter, letter)


@dataclass(frozen=True)
class Identity:
    """The identity operator I."""


IDENTITY = Identity()


@dataclass(frozen=True)
class BlockRef:
    block: BlockId


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of operators. At least two terms."""

    terms: tuple["OperatorExpr", ...]

    def __post_init__(self):
        if len(self.terms) < 2:
            raise AlgebraError("Sum requires at least 2 terms")


@dataclass(frozen=True)
class Compose:
    """Operator composition. ``Compose([G, F])`` applies F first, then G,
    matching the written order GF. At least two factors."""

    factors: tuple["OperatorExpr", ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise AlgebraError("Compose requires at least 2 factors")


@dataclass(frozen=True)
class Scaled:
    """The operator ``beta * inner`` (residual dampening)."""

    beta: float
    inner: "OperatorExpr"


OperatorExpr = Union[Identity, BlockRef, Sum, Compose, Scaled]

# A monomial in expanded form: blocks in written (composition) order, so the
# rightmost entry is applied first. The empty tuple is the identity.
Monomial = tuple[BlockId, ...]


def _sum_of(terms: Sequence[OperatorExpr]) -> OperatorExpr:
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _compose_of(factors: Sequence[OperatorExpr]) -> OperatorExpr:
    if len(factors) == 1:
        return factors[0]
    return Compose(tuple(factors))


def _monomial_expr(mono: Monomial) -> OperatorExpr:
    if not mono:
        return IDENTITY
    return _compose_of([BlockRef(b) for b in mono])


# ---------------------------------------------------------------------------
# Module kinds and expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleKind:
    """One of the module families: ``ir``, ``poly-k``, ``mpoly-k``, ``k-way``.

    Order 1 of any family expands to the plain residual unit I + F.
    """

    family: str  # "ir" | "poly" | "mpoly" | "way"
    order: int

    def __post_init__(self):
        if self.family not in ("ir", "poly", "mpoly", "way"):
            raise AlgebraError(f"unknown module family: {self.family!r}")
        if self.order < 1:
            raise AlgebraError(f"module order must be >= 1, got {self.order}")
        if self.family == "ir" and self.order != 1:
            raise AlgebraError("ir modules have order 1")
        if self.family in ("mpoly", "way") and self.order > len(_BLOCK_LETTERS):
            # Each of their blocks takes a letter of its own.
            raise AlgebraError(f"module order {self.order} exceeds the block alphabet")

    @classmethod
    def ir(cls) -> "ModuleKind":
        return cls("ir", 1)

    @classmethod
    def poly(cls, k: int) -> "ModuleKind":
        return cls("poly", k)

    @classmethod
    def mpoly(cls, k: int) -> "ModuleKind":
        return cls("mpoly", k)

    @classmethod
    def kway(cls, k: int) -> "ModuleKind":
        return cls("way", k)

    @property
    def token(self) -> str:
        if self.family == "ir":
            return "ir"
        if self.family == "way":
            return f"{self.order}-way"
        return f"{self.family}-{self.order}"

    @classmethod
    def from_token(cls, token: str) -> "ModuleKind":
        t = token.strip().lower()
        if t == "ir":
            return cls.ir()
        if t.endswith("-way"):
            head = t[: -len("-way")]
            if head.isdigit():
                return cls.kway(int(head))
        for family in ("mpoly", "poly"):
            prefix = family + "-"
            if t.startswith(prefix) and t[len(prefix):].isdigit():
                return cls(family, int(t[len(prefix):]))
        raise AlgebraError(f"unknown module token: {token!r}")

    def __str__(self) -> str:
        return self.token


IR = ModuleKind.ir()


def module_monomials(kind: ModuleKind) -> list[Monomial]:
    """The non-identity monomials of a module, lowest order first.

    poly-k shares one block across all powers; mpoly-k extends the chain by a
    fresh block per order; k-way has k independent first-order paths.
    """
    k = kind.order
    if kind.family in ("ir", "poly"):
        f = BlockId.lettered("F")
        return [tuple([f] * n) for n in range(1, k + 1)]
    letters = [BlockId.lettered(c) for c in _BLOCK_LETTERS[:k]]
    if kind.family == "mpoly":
        # F, GF, HGF, ...: monomial n is letters[n-1..0] in written order.
        return [tuple(reversed(letters[:n])) for n in range(1, k + 1)]
    return [(b,) for b in letters]  # k-way


def _validate_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise AlgebraError(f"beta must be in (0, 1], got {beta}")
    return beta


def expand_module(kind: ModuleKind, beta: float = 1.0) -> OperatorExpr:
    """Expand a module kind into its canonical naive polynomial form.

    Returns ``I + beta*(M1 + ... + Mk)`` with monomials in increasing order;
    beta = 1 emits no scaling wrapper.
    """
    beta = _validate_beta(beta)
    monos = [_monomial_expr(m) for m in module_monomials(kind)]
    return _rebuild_module(beta, _sum_of(monos))


# ---------------------------------------------------------------------------
# Module-form destructuring
# ---------------------------------------------------------------------------


def _as_monomial(expr: OperatorExpr) -> Monomial:
    """Coerce an expression to a bare monomial, or raise."""
    if isinstance(expr, Identity):
        return ()
    if isinstance(expr, BlockRef):
        return (expr.block,)
    if isinstance(expr, Compose):
        out: list[BlockId] = []
        for f in expr.factors:
            if not isinstance(f, BlockRef):
                raise AlgebraError("monomial factors must be plain block refs")
            out.append(f.block)
        return tuple(out)
    raise AlgebraError(f"not a monomial: {format_expr(expr)}")


def _destructure_module(expr: OperatorExpr) -> tuple[float, list[Monomial]]:
    """Split a canonical module expression into (beta, residual monomials).

    Accepts ``I``, ``I + M1 + ... + Mk`` and ``I + beta*(M1 + ... + Mk)``.
    Raises :class:`AlgebraError` for anything else.
    """
    if isinstance(expr, Identity):
        return 1.0, []
    if not isinstance(expr, Sum) or not isinstance(expr.terms[0], Identity):
        raise AlgebraError(
            "not a canonical module expression (expected I + residual branch)"
        )
    rest = expr.terms[1:]
    if len(rest) == 1 and isinstance(rest[0], Scaled):
        scaled = rest[0]
        inner = scaled.inner
        terms = inner.terms if isinstance(inner, Sum) else (inner,)
        return float(scaled.beta), [_as_monomial(t) for t in terms]
    return 1.0, [_as_monomial(t) for t in rest]


def _rebuild_module(beta: float, branch: OperatorExpr | None) -> OperatorExpr:
    if branch is None:
        return IDENTITY
    if beta != 1.0:
        return Sum((IDENTITY, Scaled(beta, branch)))
    if isinstance(branch, Sum):
        return Sum((IDENTITY, *branch.terms))
    return Sum((IDENTITY, branch))


# ---------------------------------------------------------------------------
# Cascade rewriting
# ---------------------------------------------------------------------------


def cascade(expr: OperatorExpr) -> OperatorExpr:
    """Right-factor shared first-applied blocks out of the residual branch.

    ``I + F + GF + HGF`` becomes ``I + (I + (I + H)G)F``: whenever every
    residual monomial applies the same block first, that block is factored
    out and the rule recurses on what remains. Monomial sets with no common
    first block (k-way modules) are returned unchanged, so pipelines can
    apply the rewrite uniformly. Any scaling wrapper stays on the whole
    residual branch. The result is semantically equal to the input.
    """
    beta, monos = _destructure_module(expr)
    if not monos:
        return IDENTITY
    return _rebuild_module(beta, _cascade_monomials(monos))


def _cascade_monomials(monos: list[Monomial]) -> OperatorExpr:
    if len(monos) == 1:
        return _monomial_expr(monos[0])
    first_applied = {m[-1] for m in monos}
    if len(first_applied) != 1:
        return _sum_of([_monomial_expr(m) for m in monos])
    shared = monos[0][-1]
    reduced = [m[:-1] for m in monos]
    rest = [m for m in reduced if m]
    inner = _cascade_monomials(rest)
    if len(rest) < len(reduced):
        # One monomial was exactly the shared block: it becomes the identity
        # path of the factored head, e.g. F + GF -> (I + G)F.
        head: OperatorExpr = Sum((IDENTITY, inner))
    else:
        head = inner
    if isinstance(head, Compose):
        return Compose((*head.factors, BlockRef(shared)))
    return Compose((head, BlockRef(shared)))


# ---------------------------------------------------------------------------
# Symbolic expansion (rewrite oracle)
# ---------------------------------------------------------------------------


def expand_symbolic(expr: OperatorExpr) -> dict[Monomial, float]:
    """Distribute an expression into a map monomial -> total coefficient.

    Sums, compositions, and scalings are distributed by brute force; equal
    monomials accumulate their coefficients. Two expressions denote the same
    operator iff their expansions are equal.
    """
    out: dict[Monomial, float] = {}
    for coeff, mono in _expand(expr):
        out[mono] = out.get(mono, 0.0) + coeff
    return {m: c for m, c in out.items() if c != 0.0}


def _expand(expr: OperatorExpr) -> list[tuple[float, Monomial]]:
    if isinstance(expr, Identity):
        return [(1.0, ())]
    if isinstance(expr, BlockRef):
        return [(1.0, (expr.block,))]
    if isinstance(expr, Scaled):
        return [(expr.beta * c, m) for c, m in _expand(expr.inner)]
    if isinstance(expr, Sum):
        out: list[tuple[float, Monomial]] = []
        for t in expr.terms:
            out.extend(_expand(t))
        return out
    if isinstance(expr, Compose):
        acc = [(1.0, ())]
        # Factors are written left to right, rightmost applied first; the
        # expanded monomial keeps the written order.
        for f in expr.factors:
            fx = _expand(f)
            acc = [(ca * cf, ma + mf) for ca, ma in acc for cf, mf in fx]
        return acc
    raise AlgebraError(f"unknown expression node: {expr!r}")


def symbolically_equal(a: OperatorExpr, b: OperatorExpr) -> bool:
    return expand_symbolic(a) == expand_symbolic(b)


# ---------------------------------------------------------------------------
# Path dropping
# ---------------------------------------------------------------------------


def drop_paths(expr: OperatorExpr, gates: Sequence[int]) -> OperatorExpr:
    """Keep only the residual monomials whose gate bit is set.

    ``expr`` must be in canonical naive form; ``gates`` has one entry per
    non-identity monomial (the identity path is never gated). All gates zero
    collapses the module to the identity.
    """
    beta, monos = _destructure_module(expr)
    if len(gates) != len(monos):
        raise AlgebraError(
            f"gate vector length {len(gates)} != {len(monos)} residual paths"
        )
    kept = [m for m, g in zip(monos, gates) if g]
    if not kept:
        return IDENTITY
    return _rebuild_module(beta, _sum_of([_monomial_expr(m) for m in kept]))


# ---------------------------------------------------------------------------
# Block-application counting
# ---------------------------------------------------------------------------


def block_applications(expr: OperatorExpr, memoize: bool = False) -> int:
    """Number of block evaluations needed for one forward pass.

    With ``memoize=False`` the expression is costed as written (each block
    ref in the tree runs once). With ``memoize=True`` every distinct
    share-key prefix, in application order, is evaluated only once - the
    count achieved by the cascaded form.
    """
    if not memoize:
        return _count_refs(expr)
    prefixes: set[tuple[str, ...]] = set()
    for mono in expand_symbolic(expr):
        applied = tuple(b.share_key for b in reversed(mono))
        for n in range(1, len(applied) + 1):
            prefixes.add(applied[:n])
    return len(prefixes)


def _count_refs(expr: OperatorExpr) -> int:
    if isinstance(expr, Identity):
        return 0
    if isinstance(expr, BlockRef):
        return 1
    if isinstance(expr, Scaled):
        return _count_refs(expr.inner)
    if isinstance(expr, Sum):
        return sum(_count_refs(t) for t in expr.terms)
    if isinstance(expr, Compose):
        return sum(_count_refs(f) for f in expr.factors)
    raise AlgebraError(f"unknown expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def format_expr(expr: OperatorExpr) -> str:
    """Render to the canonical text form, e.g. ``I + (I+F)F`` or
    ``I + 0.3*(F + GF + HGF)``. Parsing the result reproduces the
    expression exactly. Sums join with `` + `` except inside composition
    parentheses, where they join tightly as in the written form (I+F)F."""
    return _format_sum(expr, tight=False)


def _format_sum(expr: OperatorExpr, tight: bool) -> str:
    sep = "+" if tight else " + "
    if isinstance(expr, Sum):
        return sep.join(_format_term(t, tight) for t in expr.terms)
    return _format_term(expr, tight)


def _format_term(expr: OperatorExpr, tight: bool) -> str:
    if isinstance(expr, Scaled):
        return f"{_format_number(expr.beta)}*({_format_sum(expr.inner, tight)})"
    if isinstance(expr, Compose):
        return "".join(_format_factor(f) for f in expr.factors)
    return _format_factor(expr)


def _format_factor(expr: OperatorExpr) -> str:
    if isinstance(expr, Identity):
        return "I"
    if isinstance(expr, BlockRef):
        b = expr.block
        return b.name if b.share_key == b.name else f"{b.name}_{b.share_key}"
    return f"({_format_sum(expr, tight=True)})"


def _format_number(x: float) -> str:
    return repr(float(x))


_SUBSCRIPT_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789.")


def parse_expr(text: str) -> OperatorExpr:
    """Parse the canonical text form produced by :func:`format_expr`."""
    parser = _ExprParser(text)
    expr = parser.parse_sum()
    parser.skip_ws()
    if parser.pos < len(parser.text):
        raise ExprSyntaxError(
            f"unexpected {parser.text[parser.pos]!r}", parser.pos
        )
    return expr


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_sum(self) -> OperatorExpr:
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.parse_term())
        return _sum_of(terms)

    def parse_term(self) -> OperatorExpr:
        c = self.peek()
        if c.isdigit():
            beta = self._number()
            if self.peek() != "*":
                raise ExprSyntaxError("expected '*' after scale factor", self.pos)
            self.pos += 1
            if self.peek() != "(":
                raise ExprSyntaxError("expected '(' after '*'", self.pos)
            inner = self._parenthesized()
            return Scaled(beta, inner)
        factors = [self.parse_factor()]
        while True:
            c = self.peek()
            if c == "(" or (c.isalpha() and c.isupper()):
                factors.append(self.parse_factor())
            else:
                break
        return _compose_of(factors)

    def parse_factor(self) -> OperatorExpr:
        c = self.peek()
        if c == "(":
            return self._parenthesized()
        if c == "I":
            nxt = self.text[self.pos + 1 : self.pos + 2]
            if nxt != "_":
                self.pos += 1
                return IDENTITY
        if c.isalpha() and c.isupper():
            name = c
            self.pos += 1
            share = name
            if self.pos < len(self.text) and self.text[self.pos] == "_":
                self.pos += 1
                start = self.pos
                while (
                    self.pos < len(self.text)
                    and self.text[self.pos] in _SUBSCRIPT_CHARS
                ):
                    self.pos += 1
                if self.pos == start:
                    raise ExprSyntaxError("empty share-key subscript", self.pos)
                share = self.text[start : self.pos]
            return BlockRef(BlockId(name, share))
        raise ExprSyntaxError(f"unexpected {c!r}" if c else "unexpected end", self.pos)

    def _parenthesized(self) -> OperatorExpr:
        assert self.peek() == "("
        self.pos += 1
        inner = self.parse_sum()
        if self.peek() != ")":
            raise ExprSyntaxError("expected ')'", self.pos)
        self.pos += 1
        return inner

    def _number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
        ):
            # Stop a sign unless it follows an exponent marker.
            if self.text[self.pos] in "+-" and self.text[self.pos - 1] not in "eE":
                break
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise ExprSyntaxError("bad number literal", start) from None
