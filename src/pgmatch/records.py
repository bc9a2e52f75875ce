"""The quoted-string syntax of the graph, edit-script and solver text forms.

A string that cannot stand bare is written between ``"`` delimiters. Its
escapes are ``\\"`` and ``\\\\``, and one per line break, so that a quoted
string never spans two lines: ``\\n`` for a line feed (as Clingo writes it)
and ``\\u`` with four hex digits for each other character at which
``str.splitlines`` ends a line. Each form keeps its own rule for
when to quote. A record (a graph-file or script line) is a run of
whitespace-separated tokens; a token that is empty, starts with ``#`` or
contains whitespace, ``"`` or ``\\`` is quoted, and ``#`` starts a comment
outside of quotes. A model line of solver output is a run of
whitespace-separated atoms ``name`` or ``name(arg,...)``, each argument a
quoted string or a bare run without whitespace, ``"``, ``(``, ``)`` or ``,``.

Most records need neither quotes nor comments, so both record directions
take ``str`` methods where they can. A line without ``"`` or ``#`` is
tokenized by ``str.split()``: there every token is bare, a bare token is a
maximal run of non-whitespace, and ``\\s`` in a ``str`` pattern is exactly
``str.isspace``, which is what ``split`` breaks at. A token list is written
as its one ``" "``-joined line when that line holds no ``"``, ``\\`` or
``#`` and splits back into the same tokens: each token is then non-empty
and free of whitespace, ``"``, ``\\`` and ``#``, so ``quote_token`` would
leave it bare too. Other lines and tokens go through the token scanner and
``quote_token``, the one rule for them.
"""

from __future__ import annotations

import functools
import re

# Each escape and the character it stands for.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\n": "\\n",
    **{c: f"\\u{ord(c):04x}" for c in _LINE_BREAKS[1:]},
}
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
_ESCAPE = "|".join(re.escape(e) for e in _ESCAPES.values())
_UNESCAPED = {e: c for c, e in _ESCAPES.items()}

# The body of a quoted string: it stops right before the closing quote, a
# bad escape or the end of the text, and never backtracks.
_BODY = rf'(?:[^"\\]|{_ESCAPE})*'
_QUOTED = re.compile(f'"{_BODY}"')
_unescape = functools.partial(re.compile(_ESCAPE).sub, lambda m: _UNESCAPED[m.group()])
_PLAIN = re.compile(r'[^\s"\\#][^\s"\\]*')

# A record token: an opening quote and body, then what ended it ('"', a bad
# escape, or nothing at the end); or a bare token and a quote glued to it; or
# the '#' of a comment. None can start at whitespace, so findall steps over it.
_RECORD_TOKEN = re.compile(rf'("{_BODY})(.?)|([^\s"#][^\s"]*)("?)|#')

# An atom after whitespace, or the end of the line: its text, its name
# (without the dot that closes a rendered fact) and its argument text.
_ARG = rf'(?:"{_BODY}"|[^\s"(),]+)'
_ATOM = re.compile(rf'\s*(?:(([^\s"(),]*[^\s"(),.])(?:\(({_ARG}(?:,{_ARG})*)\))?\.*)(?!\S)|\Z)')
_ARGS = re.compile(f'("{_BODY}")|([^,]+)')


class RecordSyntaxError(ValueError):
    """Malformed record text."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def quote(text: str) -> str:
    """``text`` as a quoted string."""
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + _LINE_BREAK.sub(lambda m: _ESCAPES[m.group()], text) + '"'


def unquote(token: str) -> str:
    """The text of one quoted string (inverse of ``quote``)."""
    if not _QUOTED.fullmatch(token):
        raise ValueError(f"malformed quoted string: {token!r}")
    return _unescape(token[1:-1])


def quote_token(text: str) -> str:
    """Render one token, quoting only when the plain form would be ambiguous."""
    return text if _PLAIN.fullmatch(text) else quote(text)


def tokenize_line(line: str, lineno: int | None = None) -> list[str]:
    """Split one line into tokens, honouring quotes, escapes and comments."""
    if '"' not in line and "#" not in line:
        return line.split()
    tokens: list[str] = []
    for quoted, end, bare, glued in _RECORD_TOKEN.findall(line):
        if bare:
            if glued:
                raise RecordSyntaxError("quote in the middle of a token", lineno)
            tokens.append(bare)
        elif not quoted:
            break
        elif end == '"':
            tokens.append(_unescape(quoted[1:]))
        else:
            message = "bad escape in quoted token" if end else "unterminated quoted token"
            raise RecordSyntaxError(message, lineno)
    return tokens


def format_record(tokens: list[str]) -> str:
    line = " ".join(tokens)
    if '"' in line or "\\" in line or "#" in line or line.split() != tokens:
        return " ".join(quote_token(t) for t in tokens)
    return line


def scan_atoms(line: str) -> list[tuple[str, str, tuple[str, ...]]]:
    """Split one model line into atoms, as (atom text, name, unquoted
    arguments) each; ValueError at the first malformed atom."""
    atoms = []
    pos = 0
    while True:
        m = _ATOM.match(line, pos)
        if m is None:
            raise ValueError(f"malformed atom: {line[pos:].strip()!r}")
        text, name, arg_text = m.groups()
        if text is None:
            return atoms
        if arg_text is None:
            args: tuple[str, ...] = ()
        else:
            args = tuple(_unescape(q[1:-1]) if q else a for q, a in _ARGS.findall(arg_text))
        atoms.append((text, name, args))
        pos = m.end()
