"""Differential checks of the record layer's ``str``-method paths against the
token scanner and the per-token quoting they stand in for."""

import random

from pgmatch.records import (
    RecordSyntaxError,
    format_record,
    quote_token,
    tokenize_line,
)

# Quotes, escapes, comments and blanks of every kind the two whitespace
# definitions could disagree on, some of them line breaks for splitlines.
ALPHABET = list('ab1é"\\# \t') + ["\xa0", "\x0b", "\x1c", "\x1f", "\u3000", "\x85"]
NO_QUOTE_OR_COMMENT = [c for c in ALPHABET if c not in '"#']


def random_token(rng: random.Random) -> str:
    pool = ALPHABET if rng.random() < 0.4 else NO_QUOTE_OR_COMMENT
    return "".join(rng.choice(pool) for _ in range(rng.randrange(5)))


def random_line(rng: random.Random) -> str:
    """Raw characters, raw characters without quotes or comments, or a
    formatted record with a comment now and then."""
    mode = rng.randrange(3)
    if mode < 2:
        pool = ALPHABET if mode == 0 else NO_QUOTE_OR_COMMENT
        return "".join(rng.choice(pool) for _ in range(rng.randrange(13)))
    line = " ".join(quote_token(random_token(rng)) for _ in range(rng.randrange(5)))
    return line + " #" + random_token(rng) if rng.random() < 0.3 else line


def scanned(line: str, lineno: int) -> list:
    """``tokenize_line`` by the token scanner alone: a comment appended to a
    line sends it through the scanner and adds no token."""
    return tokenize_line(line + " #", lineno)


def outcome(tokenize, line: str, lineno: int):
    try:
        return tokenize(line, lineno)
    except RecordSyntaxError as exc:
        return f"RecordSyntaxError: {exc}"


def test_tokenize_line_agrees_with_the_token_scanner():
    """The ``str.split`` path, which ``parse_graph`` and ``parse_script``
    take inline for a line without ``"`` or ``#``, against the scanner."""
    rng = random.Random(11)
    split_path = 0
    for _ in range(4000):
        lines = [random_line(rng) for _ in range(rng.randint(1, 3))]
        split_path += sum('"' not in line and "#" not in line for line in lines)
        for lineno, line in enumerate("\n".join(lines).splitlines(), start=1):
            assert outcome(tokenize_line, line, lineno) == outcome(scanned, line, lineno), repr(line)
    assert split_path > 2000


def test_format_record_agrees_with_per_token_quoting():
    rng = random.Random(12)
    joined = 0
    for _ in range(5000):
        tokens = [random_token(rng) for _ in range(rng.randrange(6))]
        line = format_record(tokens)
        assert line == " ".join(quote_token(t) for t in tokens), repr(tokens)
        joined += line == " ".join(tokens)
    assert joined > 500
