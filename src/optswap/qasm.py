"""OpenQASM 2.0 subset parser and serializer.

Supported: one quantum register, any number of classical registers, the
native gate set (id, x, sx, rz, h, y, z, u3, cx, cy, cz, crx, swap), measure
and barrier.  ``u1``, ``u2``, ``u`` are normalized to u3 and ``ccx`` is
rewritten into the standard 6-CNOT network at parse time so everything
downstream sees one canonical gate set.  Angle expressions may use pi, the
four arithmetic operators, unary minus and nested parentheses; each must
evaluate to a finite real number.
"""

from __future__ import annotations

import ast
import math
import re

from .circuit import Circuit
from .gates import Gate, GateKind


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnsupportedGate(ParseError):
    def __init__(self, line: int, name: str):
        self.name = name
        super().__init__(line, f"unsupported gate '{name}'")


_NATIVE = {k.value: k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)}
_REWRITTEN = {"u1", "u2", "u", "ccx"}

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*")
_REF_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\[(\d+)\])?$")


def _param_list(text: str, line: int) -> tuple[list[str], str]:
    """Split ``(a, b, ...) rest`` into its top-level comma-separated params
    and the rest; parentheses may nest inside a param."""
    params, depth, start = [], 0, 1
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                params.append(text[start:i])
                return params, text[i + 1 :]
        elif ch == "," and depth == 1:
            params.append(text[start:i])
            start = i + 1
    raise ParseError(line, f"unbalanced parentheses in '{text}'")


def _eval_angle(text: str, line: int) -> float:
    """Value of a parameter expression; a ParseError unless it is a finite
    real number, as is every value computed on the way."""
    try:
        node = ast.parse(text.strip(), mode="eval").body
    except (SyntaxError, ValueError, RecursionError):  # ValueError: a null byte
        raise ParseError(line, f"bad parameter expression {text!r}")
    try:
        return _eval_node(node, line)
    except (ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise ParseError(line, f"parameter expression '{text.strip()}': {exc}") from None


def _finite(value, line: int) -> float:
    if not isinstance(value, float) or not math.isfinite(value):
        raise ParseError(line, f"parameter value {value!r} is not a finite real number")
    return value


def _eval_node(node: ast.AST, line: int) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return _finite(float(node.value), line)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        v = _eval_node(node.operand, line)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
    ):
        a = _eval_node(node.left, line)
        b = _eval_node(node.right, line)
        if isinstance(node.op, ast.Add):
            return _finite(a + b, line)
        if isinstance(node.op, ast.Sub):
            return _finite(a - b, line)
        if isinstance(node.op, ast.Mult):
            return _finite(a * b, line)
        if isinstance(node.op, ast.Div):
            return _finite(a / b, line)
        return _finite(a**b, line)  # a negative base can give a complex
    raise ParseError(line, "parameter expressions may only use numbers, pi and + - * / **")


def _ccx_network(a: int, b: int, c: int) -> list[Gate]:
    """Standard Toffoli decomposition; phases chosen so it is exactly CCX."""
    t = math.pi / 4

    def p(q, angle):
        return Gate(GateKind.U3, (q,), (0.0, 0.0, angle))

    h = lambda q: Gate(GateKind.H, (q,))
    cx = lambda x, y: Gate(GateKind.CX, (x, y))
    return [
        h(c),
        cx(b, c), p(c, -t),
        cx(a, c), p(c, t),
        cx(b, c), p(c, -t),
        cx(a, c), p(b, t), p(c, t),
        h(c),
        cx(a, b), p(a, t), p(b, -t),
        cx(a, b),
    ]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.qreg: tuple[str, int] | None = None
        self.cregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.num_clbits = 0
        self.gates: list[Gate] = []

    def run(self) -> Circuit:
        for line_no, stmt in self._statements():
            self._statement(stmt, line_no)
        if self.qreg is None:
            raise ParseError(0, "no quantum register declared")
        return Circuit(self.qreg[1], tuple(self.gates), self.num_clbits)

    def _statements(self):
        # Strip comments, then split on ';'.  Line numbers refer to the line
        # on which a statement starts.
        for line_no, raw in enumerate(self.text.splitlines(), start=1):
            code = raw.split("//", 1)[0]
            for stmt in code.split(";"):
                stmt = stmt.strip()
                if stmt:
                    yield line_no, stmt

    def _statement(self, stmt: str, line: int):
        if stmt.startswith("OPENQASM"):
            if stmt.split()[1] != "2.0":
                raise ParseError(line, "only OPENQASM 2.0 is supported")
            return
        if stmt.startswith("include"):
            return
        if stmt.startswith("qreg"):
            name, size = self._reg_decl(stmt[4:], line)
            if self.qreg is not None:
                raise ParseError(line, "only one quantum register is supported")
            self.qreg = (name, size)
            return
        if stmt.startswith("creg"):
            name, size = self._reg_decl(stmt[4:], line)
            self.cregs[name] = (self.num_clbits, size)
            self.num_clbits += size
            return
        if stmt.startswith("measure"):
            self._measure(stmt, line)
            return
        if stmt.startswith("barrier"):
            qubits = self._qubit_args(stmt[7:], line)
            flat = [q for grp in qubits for q in grp]
            self.gates.append(Gate(GateKind.BARRIER, tuple(flat)))
            return
        if stmt.startswith(("gate ", "opaque ", "if", "reset")):
            raise ParseError(line, f"unsupported construct: '{stmt.split()[0]}'")
        self._gate(stmt, line)

    def _reg_decl(self, rest: str, line: int) -> tuple[str, int]:
        m = re.match(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\[(\d+)\]\s*$", rest)
        if not m:
            raise ParseError(line, f"bad register declaration '{rest.strip()}'")
        return m.group(1), int(m.group(2))

    def _qubit_ref(self, token: str, line: int) -> list[int]:
        """One qubit index, or the whole register for a bare name."""
        m = _REF_RE.match(token.strip())
        if not m or self.qreg is None or m.group(1) != self.qreg[0]:
            raise ParseError(line, f"unknown qubit reference '{token.strip()}'")
        if m.group(2) is None:
            return list(range(self.qreg[1]))
        idx = int(m.group(2))
        if idx >= self.qreg[1]:
            raise ParseError(line, f"qubit index {idx} out of range")
        return [idx]

    def _clbit_ref(self, token: str, line: int) -> list[int]:
        m = _REF_RE.match(token.strip())
        if not m or m.group(1) not in self.cregs:
            raise ParseError(line, f"unknown classical reference '{token.strip()}'")
        offset, size = self.cregs[m.group(1)]
        if m.group(2) is None:
            return [offset + i for i in range(size)]
        idx = int(m.group(2))
        if idx >= size:
            raise ParseError(line, f"classical index {idx} out of range")
        return [offset + idx]

    def _qubit_args(self, rest: str, line: int) -> list[list[int]]:
        tokens = [t for t in rest.split(",") if t.strip()]
        if not tokens:
            raise ParseError(line, "missing qubit arguments")
        return [self._qubit_ref(t, line) for t in tokens]

    def _measure(self, stmt: str, line: int):
        m = re.match(r"^measure\s+(.+?)\s*->\s*(.+)$", stmt)
        if not m:
            raise ParseError(line, "bad measure statement")
        qs = self._qubit_ref(m.group(1), line)
        cs = self._clbit_ref(m.group(2), line)
        if len(qs) != len(cs):
            raise ParseError(line, "measure register sizes do not match")
        for q, c in zip(qs, cs):
            self.gates.append(Gate(GateKind.MEASURE, (q,), clbit=c))

    def _gate(self, stmt: str, line: int):
        m = _NAME_RE.match(stmt)
        if not m:
            raise ParseError(line, f"cannot parse statement '{stmt}'")
        name = m.group()
        rest = stmt[m.end() :].lstrip()
        texts: list[str] = []
        if rest.startswith("("):
            texts, rest = _param_list(rest, line)
        params = [_eval_angle(p, line) for p in texts if p.strip()]
        arg_groups = self._qubit_args(rest, line)

        if name not in _NATIVE and name not in _REWRITTEN:
            raise UnsupportedGate(line, name)

        # Broadcast a single-qubit gate applied to the whole register.
        sizes = {len(g) for g in arg_groups}
        if sizes == {1}:
            applications = [[g[0] for g in arg_groups]]
        elif len(arg_groups) == 1:
            applications = [[q] for q in arg_groups[0]]
        else:
            raise ParseError(line, "mixed register/qubit arguments are not supported")

        for qubits in applications:
            self._emit(name, params, qubits, line)

    def _emit(self, name: str, params: list[float], qubits: list[int], line: int):
        if name == "ccx":
            if len(qubits) != 3:
                raise ParseError(line, "ccx takes three qubits")
            self.gates.extend(_ccx_network(*qubits))
            return
        if name == "u1":
            name, params = "u3", [0.0, 0.0, params[0]]
        elif name == "u2":
            name, params = "u3", [math.pi / 2, params[0], params[1]]
        elif name == "u":
            name = "u3"
        kind = _NATIVE[name]
        try:
            self.gates.append(Gate(kind, tuple(qubits), tuple(params)))
        except ValueError as exc:
            raise ParseError(line, str(exc))


def parse_qasm(text: str) -> Circuit:
    return _Parser(text).run()


def parse_qasm_file(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_qasm(fh.read())


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for g in circuit.gates:
        if g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.clbit}];")
        elif g.kind is GateKind.BARRIER:
            args = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"barrier {args};")
        else:
            args = ",".join(f"q[{q}]" for q in g.qubits)
            if g.params:
                ps = ",".join(_fmt(p) for p in g.params)
                lines.append(f"{g.kind.value}({ps}) {args};")
            else:
                lines.append(f"{g.kind.value} {args};")
    return "\n".join(lines) + "\n"
