"""Character-by-character reference for the formula tokenizer, kept as
a test oracle.

This is the tokenizer that `sheafsep.seplogic._tokenize` replaces with
one compiled alternation: at every position it tries each symbol with
`str.startswith`, then an integer by `str.isdecimal`, then a word that
starts with `str.isalpha` or "_" and continues with `str.isalnum` or
"_".  The differential test compares tokens and errors on arbitrary
text.
"""

from sheafsep.errors import FormulaSyntaxError
from sheafsep.seplogic import _UNICODE_ALIASES, _Token

SYMBOLS = [
    ("|->!", "MAPSTO_ALLOC"),
    ("|->", "MAPSTO"),
    ("~>", "HOOKS"),
    ("->", "IMP"),
    ("/\\", "AND"),
    ("\\/", "OR"),
    ("*", "STAR"),
    ("~", "TILDE"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (":", "COLON"),
    (",", "COMMA"),
    ("/", "SLASH"),
]


def tokenize(text):
    for uni, ascii_form in _UNICODE_ALIASES.items():
        text = text.replace(uni, ascii_form)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for sym, kind in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(kind, sym, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "T":
                tokens.append(_Token("TOP", word, i))
            elif word == "F":
                tokens.append(_Token("BOT", word, i))
            else:
                tokens.append(_Token("IDENT", word, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens
