"""Text file formats shared by the command-line tools.

Coefficient, point, and value files carry one quaternion literal per line
(index order 0, 1, 2, ...); blank lines are skipped.  Pole files hold real
numbers, parsed as quaternion literals that must have no imaginary part.
"""

from __future__ import annotations

from .errors import ParseError
from .quaternion import Quaternion, format_quaternion, parse_quaternion


def _numbered_quaternions(text: str, origin: str):
    """(file line, Quaternion) for every non-blank line of `text`."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body:
            continue
        try:
            yield lineno, parse_quaternion(body)
        except ParseError as err:
            raise ParseError(f"{origin}:{lineno}: {err.args[0]}") from None


def parse_quaternion_lines(text: str, origin: str = "<input>") -> list[Quaternion]:
    return [q for _, q in _numbered_quaternions(text, origin)]


def read_quaternion_file(path: str) -> list[Quaternion]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_quaternion_lines(fh.read(), origin=path)


def read_reals_file(path: str) -> list[float]:
    with open(path, "r", encoding="utf-8") as fh:
        numbered = list(_numbered_quaternions(fh.read(), path))
    for lineno, q in numbered:
        if q.im_i != 0.0 or q.im_j != 0.0 or q.im_k != 0.0:
            raise ParseError(f"{path}:{lineno}: must be a real number")
    return [q.re for _, q in numbered]


def format_quaternion_lines(qs) -> str:
    """One literal per line, at 17 digits: the text reads back exactly."""
    return "".join(format_quaternion(q, digits=17) + "\n" for q in qs)
