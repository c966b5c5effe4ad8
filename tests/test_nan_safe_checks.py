"""No sign test in ``src/repro`` lets NaN through to a ``raise ValueError``.

Every comparison with NaN is false, so ``if x <= 0: raise ValueError(...)``
accepts a NaN ``x``; ``if not x > 0`` rejects it.  This test walks the
source and fails on an ``if`` whose test compares a name or an attribute to
a numeric literal with ``<``, ``<=``, ``>`` or ``>=`` outside a ``not``,
and whose body raises ``ValueError``.  Constructor checks go through
:mod:`repro.core.checks`; per-event checks stay inline in the negated form.
"""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent

#: ``(path relative to src/repro, line) -> reason`` for sites that may keep
#: the plain form.  Empty: every site is NaN-safe.
EXCEPTIONS = {}

_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _unsafe_compare(compare):
    """True when a link of the chain orders a name/attribute against a number."""
    operands = [compare.left, *compare.comparators]
    for op, left, right in zip(compare.ops, operands, operands[1:]):
        if not isinstance(op, _ORDERINGS):
            continue
        for one, other in ((left, right), (right, left)):
            if _is_number(one) and isinstance(other, (ast.Name, ast.Attribute)):
                return True
    return False


def _unsafe_in(test):
    """True when ``test`` holds an unsafe comparison that no ``not`` wraps."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return False
    if isinstance(test, ast.Compare):
        return _unsafe_compare(test)
    if isinstance(test, ast.BoolOp):
        return any(_unsafe_in(value) for value in test.values)
    return False


def _raises_value_error(body):
    for statement in body:
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def unsafe_sites(root):
    """``(relative path, line)`` of every NaN-unsafe ``if … raise ValueError``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.If)
                and _unsafe_in(node.test)
                and _raises_value_error(node.body)
            ):
                sites.append((path.relative_to(root).as_posix(), node.lineno))
    return sites


def test_no_nan_unsafe_sign_test_raises_value_error():
    unsafe = [site for site in unsafe_sites(SOURCE) if site not in EXCEPTIONS]
    assert unsafe == [], (
        "write these as `if not x > 0` (or call repro.core.checks): "
        f"{unsafe}"
    )


def test_guard_flags_the_plain_form(tmp_path):
    (tmp_path / "module.py").write_text(
        "def build(k1, self):\n"
        "    if k1 <= 0:\n"
        "        raise ValueError('k1 must be positive')\n"
        "    if self.rate < 0 or k1 > 10:\n"
        "        raise ValueError('bad')\n"
        "    if 0 > k1:\n"
        "        raise ValueError('bad')\n"
        "    if not k1 > 0:\n"
        "        raise ValueError('fine')\n"
        "    if not 0.0 <= k1 <= 1.0:\n"
        "        raise ValueError('fine')\n"
        "    if k1 < self.low:\n"
        "        raise ValueError('fine: no literal')\n"
        "    if k1 <= 0:\n"
        "        raise TypeError('fine: not a ValueError')\n"
    )
    assert unsafe_sites(tmp_path) == [
        ("module.py", 2),
        ("module.py", 4),
        ("module.py", 6),
    ]
