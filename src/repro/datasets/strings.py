"""String dataset generators (paper §4.1: email, hex, word)."""

from __future__ import annotations

import numpy as np

_DOMAINS = (
    "com.gmail", "com.yahoo", "com.hotmail", "com.outlook", "org.apache",
    "org.wikipedia", "net.cloud", "edu.mit", "edu.stanford", "io.github",
)

_SYLLABLES = (
    "an", "ar", "as", "at", "be", "ca", "co", "de", "di", "en", "er", "es",
    "in", "is", "it", "le", "lo", "ma", "me", "mo", "ne", "no", "on", "or",
    "ra", "re", "ri", "ro", "se", "st", "ta", "te", "ti", "to", "tra", "un",
    "ve", "ver", "vi",
)

_SUFFIXES = ("", "s", "ed", "ing", "er", "ly", "tion", "ness")


def gen_email(n: int | None = None, seed: int = 0) -> list[bytes]:
    """Host-reversed email addresses, sorted (paper's 30K set, ~15 bytes)."""
    if n is None:
        n = 30_000
    rng = np.random.default_rng(seed)
    domains = rng.integers(0, len(_DOMAINS), n)
    users = rng.integers(0, 10 ** 7, n)
    emails = {
        f"{_DOMAINS[d]}.u{u:07d}".encode() for d, u in zip(domains, users)
    }
    return sorted(emails)


def gen_hex(n: int | None = None, seed: int = 0) -> list[bytes]:
    """Sorted hexadecimal strings up to 8 chars (paper's 100K set)."""
    if n is None:
        n = 100_000
    rng = np.random.default_rng(seed)
    values = np.unique(rng.integers(0, 1 << 32, n))
    return [f"{int(v):08x}".encode() for v in values]


def gen_word(n: int | None = None, seed: int = 0) -> list[bytes]:
    """English-like words built from syllables, sorted, ~9 bytes average."""
    if n is None:
        n = 50_000
    rng = np.random.default_rng(seed)
    words = set()
    while len(words) < n:
        count = int(rng.integers(2, 5))
        stem = "".join(_SYLLABLES[rng.integers(0, len(_SYLLABLES))]
                       for _ in range(count))
        word = stem + _SUFFIXES[rng.integers(0, len(_SUFFIXES))]
        words.add(word.encode())
    return sorted(words)


STRING_DATASETS = {
    "email": gen_email,
    "hex": gen_hex,
    "word": gen_word,
}


def load_strings(name: str, n: int | None = None, seed: int = 0
                 ) -> list[bytes]:
    if name not in STRING_DATASETS:
        raise KeyError(f"unknown string dataset {name!r}")
    return STRING_DATASETS[name](n, seed)
