"""Application substrates: hash zoo, paper examples, the §7 lexer."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".hashes": [
            "codes_to_word", "crc32", "djb2", "flex_hash", "fnv1a",
            "register_word_hash", "sdbm", "standard_registry",
            "toy_block_cipher", "word_to_codes",
        ],
        ".paper_programs": [
            "PAPER_EXAMPLES", "PaperExample", "make_paper_natives",
            "paper_hash",
        ],
        ".lexer_app": [
            "DEFAULT_KEYWORDS", "LexerApp", "build_hardcoded_lexer_program",
            "build_lexer_program", "build_table_lexer_program",
            "keyword_hashes",
        ],
        ".protocol_app": [
            "AUTH_SECRET_KEY", "ProtocolApp", "build_auth_app",
            "build_protocol_app",
        ],
        ".calculator_app": [
            "COMMANDS", "REGISTERS", "CalculatorApp", "build_calculator_app",
        ],
        ".tinyvm_app": ["OPCODES", "TinyVmApp", "build_tinyvm_app"],
    },
)

__all__ = [
    "codes_to_word",
    "crc32",
    "djb2",
    "flex_hash",
    "fnv1a",
    "register_word_hash",
    "sdbm",
    "standard_registry",
    "toy_block_cipher",
    "word_to_codes",
    "PAPER_EXAMPLES",
    "PaperExample",
    "make_paper_natives",
    "paper_hash",
    "DEFAULT_KEYWORDS",
    "LexerApp",
    "build_hardcoded_lexer_program",
    "build_lexer_program",
    "build_table_lexer_program",
    "keyword_hashes",
    "AUTH_SECRET_KEY",
    "ProtocolApp",
    "build_auth_app",
    "build_protocol_app",
    "COMMANDS",
    "REGISTERS",
    "CalculatorApp",
    "build_calculator_app",
    "OPCODES",
    "TinyVmApp",
    "build_tinyvm_app",
]
