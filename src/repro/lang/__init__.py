"""MiniC: the small imperative language the paper's programs are written in.

Exports the parser, the concrete interpreter, and the native-function
registry used to model the paper's "unknown functions".
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".ast": [
            "ArrayAssign", "ArrayDecl", "ArrayRef", "Assign", "AssertStmt",
            "Binary", "Block", "Call", "ErrorStmt", "Expr", "ExprStmt",
            "FunctionDef", "If", "IntLit", "Program", "Return", "Stmt",
            "Unary", "VarDecl", "VarRef", "While",
        ],
        ".lexer": ["Token", "tokenize"],
        ".parser": ["parse_expression", "parse_program"],
        ".natives": ["NativeFunction", "NativeRegistry"],
        ".interp": ["Interpreter", "RunResult", "c_div", "c_mod", "truthy"],
        ".bytecode": [
            "CompiledFunction", "CompiledProgram", "clear_compile_cache",
            "compile_cache_stats", "compile_program", "run_concrete",
        ],
        ".pretty": ["pretty_expr", "pretty_program", "pretty_stmt"],
        ".randprog": ["RandomProgram", "generate_program"],
    },
)

__all__ = [
    "ArrayAssign",
    "ArrayDecl",
    "ArrayRef",
    "Assign",
    "AssertStmt",
    "Binary",
    "Block",
    "Call",
    "ErrorStmt",
    "Expr",
    "ExprStmt",
    "FunctionDef",
    "If",
    "IntLit",
    "Program",
    "Return",
    "Stmt",
    "Unary",
    "VarDecl",
    "VarRef",
    "While",
    "Token",
    "tokenize",
    "parse_expression",
    "parse_program",
    "NativeFunction",
    "NativeRegistry",
    "Interpreter",
    "RunResult",
    "CompiledFunction",
    "CompiledProgram",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_program",
    "run_concrete",
    "c_div",
    "c_mod",
    "truthy",
    "pretty_expr",
    "pretty_program",
    "pretty_stmt",
    "RandomProgram",
    "generate_program",
]
