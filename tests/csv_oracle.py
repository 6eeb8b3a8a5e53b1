"""Character-loop reference for CSV ingestion: parses a quoted record,
decodes its escapes and tokenizes text one character at a time, and counts
a vocabulary token by token, with no shared code with the package
implementation. Errors are the package's ``CorpusError`` with the same
messages."""

from collections import Counter

from knnmem.corpus import CorpusError


def oracle_tokenize(text):
    """Lowercase, split on whitespace, strip each token's edges while a
    character is neither ``isalpha()`` nor ``isdigit()``."""
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not (raw[start].isalpha() or raw[start].isdigit()):
            start += 1
        while end > start and not (raw[end - 1].isalpha() or raw[end - 1].isdigit()):
            end -= 1
        if end > start:
            tokens.append(raw[start:end])
    return tokens


def oracle_decode_escapes(text):
    """``\\n`` becomes a newline and ``\\"`` a quote; any other backslash stays."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def oracle_parse_record(line, lineno):
    """Split one quoted CSV record; a backslash keeps the next character in
    its field, and escapes stay raw for ``oracle_decode_escapes``."""
    fields = []
    i, n = 0, len(line)
    while True:
        if i >= n or line[i] != '"':
            raise CorpusError(f"line {lineno}: expected opening quote for field {len(fields) + 1}")
        i += 1
        buf = []
        closed = False
        while i < n:
            ch = line[i]
            if ch == "\\" and i + 1 < n:
                buf.append(ch)
                buf.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                closed = True
                i += 1
                break
            buf.append(ch)
            i += 1
        if not closed:
            raise CorpusError(f"line {lineno}: unterminated quoted field")
        fields.append("".join(buf))
        if i == n:
            return fields
        if line[i] != ",":
            raise CorpusError(f"line {lineno}: expected comma after field {len(fields)}")
        i += 1


def oracle_vocab(docs, min_count=1):
    """``(word_to_id, char_to_id)`` counted document by document and token
    by token: words by falling count then text from id 1, characters sorted
    from id 1."""
    counts = Counter()
    chars = set()
    for doc in docs:
        counts.update(doc.tokens)
        for tok in doc.tokens:
            chars.update(tok)
    kept = sorted((t for t, n in counts.items() if n >= min_count), key=lambda t: (-counts[t], t))
    word_to_id = {tok: i for i, tok in enumerate(kept, start=1)}
    char_to_id = {ch: i for i, ch in enumerate(sorted(chars), start=1)}
    return word_to_id, char_to_id
