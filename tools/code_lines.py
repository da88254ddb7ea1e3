"""Count the code lines of the covlab package, per module and in total.

A code line is a line holding a Python token other than a comment or a
docstring; blank lines do not count either.  A docstring here is any
statement made of string literals alone, the module, class and function
docstrings among them.  A token that spans lines, such as a triple-quoted
string inside an expression, counts on every line it spans.

Run from the repository root:

    python tools/code_lines.py [package directory, default src/covlab]
"""

import pathlib
import sys
import tokenize

# Tokens that hold no code: layout, comments and the file's ends.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of the Python file at `path`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(part.type != tokenize.STRING for part in statement):
                    for part in statement:
                        lines.update(range(part.start[0], part.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src/covlab")
    counts = {
        path.relative_to(root).as_posix(): code_lines(path)
        for path in sorted(root.rglob("*.py"))
    }
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
