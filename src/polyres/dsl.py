"""Architecture description language: parse, print, and named presets.

A network is written as named stages of module chains, with repetition
groups, e.g. ``A: (ir) x 3; B: (3-way -> mpoly-3 -> poly-3) x 4; C: ir``.
The shorthand ``IR a-b-c`` expands to three stages of plain residual units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import AlgebraError, ModuleKind

__all__ = [
    "DslSyntaxError",
    "StageConfig",
    "NetworkConfig",
    "parse_network",
    "render_network",
    "preset",
    "PRESET_NAMES",
]

_DEFAULT_INPUT_SIZE = 32
_DEFAULT_CLASSES = 10
_DEFAULT_BASE_WIDTH = 16
_STAGE_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"


class DslSyntaxError(ValueError):
    """Syntax or validation error in architecture text, with position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class StageConfig:
    """One resolution stage: a named, ordered chain of module kinds."""

    name: str
    modules: tuple[ModuleKind, ...]
    width: int
    resolution: int

    def __post_init__(self):
        if not self.modules:
            raise DslSyntaxError(f"stage {self.name!r} has no modules", 0, 0)
        if self.width <= 0:
            raise ValueError(f"stage {self.name!r} width must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    stages: tuple[StageConfig, ...]
    input_size: int = _DEFAULT_INPUT_SIZE
    classes: int = _DEFAULT_CLASSES

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a network needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "word" | "punct"
    text: str
    line: int
    col: int


_PUNCT = {";", ":", "(", ")"}
_WORD_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch in _PUNCT:
                tokens.append(_Token("punct", ch, lineno, col + 1))
                col += 1
                continue
            if line.startswith("->", col):
                tokens.append(_Token("punct", "->", lineno, col + 1))
                col += 2
                continue
            if ch == "→":  # typographic arrow
                tokens.append(_Token("punct", "->", lineno, col + 1))
                col += 1
                continue
            if ch == "×":  # typographic multiplication sign
                tokens.append(_Token("word", "x", lineno, col + 1))
                col += 1
                continue
            m = _WORD_RE.match(line, col)
            if m:
                tokens.append(_Token("word", m.group(0), lineno, col + 1))
                col = m.end()
                continue
            raise DslSyntaxError(f"unexpected character {ch!r}", lineno, col + 1)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], text: str):
        self.tokens = tokens
        self.pos = 0
        self.stage_names: set[str] = set()
        n_lines = len(text.splitlines()) or 1
        self._eof = _Token("punct", "", n_lines, len(text.splitlines()[-1]) + 1 if text.splitlines() else 1)

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self._eof

    def next(self) -> _Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> DslSyntaxError:
        tok = tok or self.peek()
        what = f"got {tok.text!r}" if tok.text else "got end of input"
        return DslSyntaxError(f"{message}, {what}", tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}", tok)
        return tok

    def parse_network(self) -> list[tuple[str, list[ModuleKind]]]:
        shorthand = self._try_shorthand()
        if shorthand is not None:
            return shorthand
        stages = [self.parse_stage()]
        while self.peek().text == ";":
            self.next()
            if not self.peek().text:  # tolerate a trailing ';'
                break
            stages.append(self.parse_stage())
        if self.peek().text:
            raise self.error("expected ';' or end of input")
        return stages

    def _try_shorthand(self) -> list[tuple[str, list[ModuleKind]]] | None:
        # "IR a-b-c": a leading ir word followed by a hyphenated count list.
        if len(self.tokens) != 2:
            return None
        head, counts = self.tokens
        if head.kind != "word" or head.text.lower() != "ir":
            return None
        if counts.kind != "word" or not re.fullmatch(r"\d+(-\d+)*", counts.text):
            return None
        self.pos = 2
        parts = [int(p) for p in counts.text.split("-")]
        stages = []
        for i, count in enumerate(parts):
            if count == 0:
                raise DslSyntaxError(
                    "stage repeat count must be positive", counts.line, counts.col
                )
            if i >= len(_STAGE_LETTERS):
                raise DslSyntaxError("too many stages", counts.line, counts.col)
            stages.append((_STAGE_LETTERS[i], [ModuleKind.ir()] * count))
        return stages

    def parse_stage(self) -> tuple[str, list[ModuleKind]]:
        tok = self.next()
        if tok.kind != "word":
            raise self.error("expected stage name", tok)
        if tok.text in self.stage_names:
            raise self.error("repeated stage name", tok)
        self.stage_names.add(tok.text)
        self.expect(":")
        return tok.text, self.parse_chain()

    def parse_chain(self) -> list[ModuleKind]:
        modules = self.parse_group()
        while self.peek().text == "->":
            self.next()
            modules.extend(self.parse_group())
        return modules

    def parse_group(self) -> list[ModuleKind]:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_chain()
            self.expect(")")
            x = self.next()
            if x.text.lower() != "x":
                raise self.error("expected 'x' after repetition group", x)
            count_tok = self.next()
            if not count_tok.text.isdigit():
                raise self.error("expected repetition count", count_tok)
            count = int(count_tok.text)
            if count == 0:
                raise DslSyntaxError(
                    "repetition count must be positive", count_tok.line, count_tok.col
                )
            return inner * count
        if tok.kind != "word":
            raise self.error("expected a module or '('", tok)
        self.next()
        try:
            return [ModuleKind.from_token(tok.text)]
        except AlgebraError:
            raise self.error("unknown module token", tok) from None


def parse_network(
    text: str,
    input_size: int = _DEFAULT_INPUT_SIZE,
    classes: int = _DEFAULT_CLASSES,
    base_width: int = _DEFAULT_BASE_WIDTH,
) -> NetworkConfig:
    """Parse architecture text into a fully unrolled :class:`NetworkConfig`.

    Stage widths default to geometric doubling from ``base_width`` and the
    resolution tag halves per stage (one stem downsample plus one per stage
    transition). ``#`` starts a line comment.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise DslSyntaxError("empty architecture description", 1, 1)
    stages_raw = _Parser(tokens, text).parse_network()
    stages = tuple(
        StageConfig(
            name=name,
            modules=tuple(modules),
            width=base_width * (2**i),
            resolution=max(1, input_size // (2 ** (i + 1))),
        )
        for i, (name, modules) in enumerate(stages_raw)
    )
    return NetworkConfig(stages=stages, input_size=input_size, classes=classes)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _smallest_period(tokens: list[str]) -> int:
    n = len(tokens)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and tokens == tokens[:p] * (n // p):
            return p
    return n


def _render_chain(modules: tuple[ModuleKind, ...]) -> str:
    tokens = [m.token for m in modules]
    if len(tokens) == 1:
        return tokens[0]
    p = _smallest_period(tokens)
    if p < len(tokens):
        return f"({' -> '.join(tokens[:p])}) x {len(tokens) // p}"
    return " -> ".join(tokens)


def render_network(config: NetworkConfig) -> str:
    """Render to canonical text: repetitions re-compressed greedily when the
    whole chain is a repeat of its smallest period, otherwise unrolled.
    ``parse_network(render_network(c)) == c`` for any parsed config."""
    return "; ".join(f"{s.name}: {_render_chain(s.modules)}" for s in config.stages)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

# Stage B and C of the very deep preset pair a third-order shared-parameter
# module with a 2-way module; the pair order (poly-3 first) follows the
# higher-to-lower-order convention of the mixed config.
_PRESETS = {
    "ir-3-6-3": "IR 3-6-3",
    "ir-6-12-6": "IR 6-12-6",
    "ir-5-10-5": "IR 5-10-5",
    "ir-20-56-20": "IR 20-56-20",
    "mixed-b-6-12-6": "A: (ir) x 6; B: (3-way -> mpoly-3 -> poly-3) x 4; C: (ir) x 6",
    "very-deep-polynet": "A: (2-way) x 10; B: (poly-3 -> 2-way) x 10; C: (poly-3 -> 2-way) x 5",
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, **kwargs) -> NetworkConfig:
    """Return a named configuration; extra kwargs go to :func:`parse_network`."""
    try:
        text = _PRESETS[name]
    except KeyError:
        known = ", ".join(PRESET_NAMES)
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
    return parse_network(text, **kwargs)
