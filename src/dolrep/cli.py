"""Command-line front end: system-file parsing, reports, JSON serialization.

System file format (line oriented, `#` starts a comment, tokens separated by
whitespace; multi-character symbols are fine):

    alphabet: 0 1 2
    axiom: 0
    0 -> 0 1 2
    1 -> 2
    2 -> 1

Every declared letter needs exactly one rule; an empty right-hand side
denotes the empty word.  A file and standard input alike are read as UTF-8.
Exit codes: 0 success, 1 parse error, or input that cannot be read (a
missing file, a closed standard input, bytes that are not UTF-8), 2
internal invariant failure or command-line usage error, 3 oracle
disagreement under --verify, 4 the oracle could not run under --verify
(the axiom and its image over the oracle's letter budget, or numpy
missing), 5 out of memory (a MemoryError), 130 (128 + SIGINT) when
interrupted by Ctrl-C, 141 (128 + SIGPIPE, what a shell shows for a filter
stopped by SIGPIPE) when standard output is closed, at start or by its
reader early, as `dolrep analyze FILE --json | head -1` does.

--verify has no options: `_verify_params` works out the oracle's setting
from the system and the report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from itertools import islice

from .engine import AnalysisReport, EngineInvariantError, analyze
from .morphism import Alphabet, D0LSystem, Morphism
from .oracle import OracleParams, OracleResourceError, iterate_counts, observed_classes
from .simplify import SimplificationError
from .words import Word


class ParseError(Exception):
    """System-file syntax or consistency error, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        return f"line {self.line}: {base}" if self.line is not None else base


def parse_system(text: str) -> D0LSystem:
    """Parse the file format above into a D0LSystem.

    One leading byte-order mark (U+FEFF) is dropped: ``str.split`` does not
    treat it as whitespace, so it would glue itself to the first token.
    Lines end at "\n", "\r\n" or "\r" only, not at a form feed or U+0085.
    """
    entries: list[tuple[int, list[str]]] = []
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            entries.append((lineno, tokens))
    if not entries:
        raise ParseError("empty input: expected an 'alphabet:' line")

    lineno, tokens = entries[0]
    if tokens[0] != "alphabet:":
        raise ParseError("expected 'alphabet:' as the first declaration", lineno)
    symbols = tokens[1:]
    if not symbols:
        raise ParseError("alphabet declaration lists no symbols", lineno)
    if "->" in symbols:
        raise ParseError("'->' cannot be used as a letter symbol", lineno)
    try:
        alphabet = Alphabet(tuple(symbols))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None

    if len(entries) < 2:
        raise ParseError("missing 'axiom:' declaration", lineno)
    lineno, tokens = entries[1]
    if tokens[0] != "axiom:":
        raise ParseError("expected 'axiom:' after the alphabet", lineno)
    if len(tokens) == 1:
        raise ParseError("axiom must be non-empty", lineno)
    try:
        axiom = alphabet.word(tokens[1:])
    except ValueError:
        raise ParseError("axiom uses an undeclared letter", lineno) from None

    images: dict[int, Word] = {}
    for lineno, tokens in entries[2:]:
        if len(tokens) < 2 or tokens[1] != "->":
            raise ParseError("expected a rule of the form 'SYM -> SYM*'", lineno)
        try:
            lhs = alphabet.letter(tokens[0])
        except ValueError:
            raise ParseError(f"undeclared letter {tokens[0]!r} on the left side", lineno) from None
        if lhs in images:
            raise ParseError(f"duplicate rule for letter {tokens[0]!r}", lineno)
        try:
            images[lhs] = alphabet.word(tokens[2:])
        except ValueError:
            raise ParseError("rule image uses an undeclared letter", lineno) from None
    missing = [alphabet.symbols[a] for a in range(len(alphabet)) if a not in images]
    if missing:
        raise ParseError(f"missing rule for letter(s): {' '.join(missing)}")

    morphism = Morphism(alphabet, alphabet, tuple(images[a] for a in range(len(alphabet))))
    return D0LSystem(morphism, axiom)


def serialize_system(system: D0LSystem) -> str:
    """Render a system back into the file format (re-parses identically);
    ValueError on a symbol with a '#', which starts a comment, or '->'."""
    symbols = system.alphabet.symbols
    for s in symbols:
        if "#" in s or s == "->":
            raise ValueError(f"symbol {s!r} cannot be written to a system file")
    text = lambda word: " ".join(symbols[a] for a in word)
    lines = [f"alphabet: {' '.join(symbols)}", f"axiom: {text(system.axiom)}"]
    lines += (f"{s} -> {text(image)}".rstrip() for s, image in zip(symbols, system.morphism.images))
    return "\n".join(lines) + "\n"


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-ready form of a report; arrays are deterministically ordered."""
    alphabet = report.original.alphabet

    def syms(word: Word) -> list[str]:
        return [alphabet.symbols[a] for a in word]

    return {
        "system": {
            "alphabet": list(alphabet.symbols),
            "axiom": syms(report.original.axiom),
            "rules": {
                alphabet.symbols[a]: syms(report.original.morphism.image(a))
                for a in range(len(alphabet))
            },
        },
        "pushy": report.pushy,
        "repetitive": report.repetitive,
        "strongly_repetitive": report.strongly_repetitive,
        "bounded_letters": [alphabet.symbols[a] for a in sorted(report.classification.bounded)],
        "simplification_steps": [
            {
                "kind": step.kind,
                "from_alphabet": list(step.h.source.symbols),
                "to_alphabet": list(step.h.target.symbols),
            }
            for step in report.chain.steps
        ],
        "classes": [
            {
                "representative": syms(cls.representative),
                "conjugates": [syms(w) for w in sorted(cls.conjugates)],
                "source": cls.source.value,
            }
            for cls in report.classes
        ],
    }


def format_report(report: AnalysisReport) -> str:
    """The text report, rendered from ``report_to_dict``'s model alone."""
    data = report_to_dict(report)
    sep = "" if all(len(s) == 1 for s in data["system"]["alphabet"]) else " "
    steps = ", ".join(
        f"{step['kind']} ({len(step['from_alphabet'])} -> {len(step['to_alphabet'])} letters)"
        for step in data["simplification_steps"]
    )
    lines = [
        f"system: alphabet {{{', '.join(data['system']['alphabet'])}}}; axiom {sep.join(data['system']['axiom'])}",
        f"pushy: {'yes' if data['pushy'] else 'no'}",
        f"repetitive: {'yes' if data['repetitive'] else 'no'}",
        f"strongly repetitive: {'yes' if data['strongly_repetitive'] else 'no'}",
        f"bounded letters: {' '.join(data['bounded_letters']) or '(none)'}",
        f"simplification: {steps or 'none needed'}",
        f"infinite periodic factor classes: {len(data['classes'])}",
    ]
    for cls in data["classes"]:
        rep = sep.join(cls["representative"])
        conj = ", ".join(sep.join(w) for w in cls["conjugates"])
        lines.append(f"  representative {rep}; source {cls['source']}; conjugates: {conj}")
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        if sys.stdin is None:  # the process started with file descriptor 0 closed
            raise OSError("standard input is closed")
        # The bytes, decoded here: the text layer's encoding follows the locale.
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# The deepest iterate --verify lets the oracle build.  It bounds the work on
# systems whose iterates stay short, where the letter budget alone would
# allow a depth near a million; the oracle agrees on the cyclic system
# a_i -> a_(i+1), a_(L-1) -> a_0 a_0 at L = 600 from depth 1 800 on.
_VERIFY_DEPTH_CAP = 2000


def _verify_params(system: D0LSystem, engine_reps: set[Word]) -> OracleParams:
    """The oracle setting of --verify: the defaults, but for two values.

    The depth is the largest n <= _VERIFY_DEPTH_CAP with |phi^0(w)| + ... +
    |phi^n(w)| at most the letter budget, from letter counts: the oracle
    keeps every iterate, so their total bounds its memory.  Raises
    OracleResourceError when no depth >= 1 fits.  The factor-length bound
    grows to the longest engine class, which it would otherwise not see.
    """
    default = OracleParams()
    depth, total = -1, 0
    for counts in islice(iterate_counts(system), _VERIFY_DEPTH_CAP + 1):
        total += sum(counts)
        if total > default.max_word_len:
            break
        depth += 1
    if depth < 1:
        raise OracleResourceError(
            f"iterates 0 to {depth + 1} hold {total} letters, over the {default.max_word_len}-letter budget"
        )
    return OracleParams(depth=depth, max_len=max([default.max_len, *map(len, engine_reps)]))


def run(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="dolrep", description="Repetition analysis of D0L-systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("analyze", help="analyze a system file ('-' reads stdin)")
    cmd.add_argument("file")
    cmd.add_argument("--json", action="store_true", help="emit a JSON report")
    cmd.add_argument("--verify", action="store_true", help="cross-check against the brute-force oracle")
    args = parser.parse_args(argv)

    try:
        system = parse_system(_read_input(args.file))
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        report = analyze(system)
    except (EngineInvariantError, SimplificationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(format_report(report), end="")

    if args.verify:
        engine_reps = {cls.representative for cls in report.classes}
        try:
            observed = observed_classes(system, _verify_params(system, engine_reps))
        except (OracleResourceError, ImportError) as exc:  # numpy is imported by the oracle's scan
            print(f"error: oracle: {exc}", file=sys.stderr)
            return 4
        stream = sys.stderr if args.json else sys.stdout
        if observed == engine_reps:
            print("oracle: agreement", file=stream)
        else:
            alphabet = system.alphabet
            fmt = lambda classes: sorted(alphabet.text(w) for w in classes) or ["(none)"]
            print("oracle: disagreement", file=stream)
            print(f"  engine:   {' '.join(fmt(engine_reps))}", file=stream)
            print(f"  observed: {' '.join(fmt(observed))}", file=stream)
            return 3
    return 0


def main() -> None:
    if sys.stdout is None:
        # Started with file descriptor 1 closed: no reader, as below.
        sys.exit(141)
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at /dev/null so that the flush at
        # exit cannot fail again, and exit as a filter killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    except MemoryError:
        status = 5
    except KeyboardInterrupt:
        status = 130
    if status == 5:
        # Reported once the except clause has dropped the traceback, and with
        # it the frames that hold the memory.
        print("error: out of memory", file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
