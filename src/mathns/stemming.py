"""Lightweight stemming and definition tokenization.

The one stemmer only strips English plural suffixes; that is enough to
collapse the token variability the vector space and the fuzzy merge
care about (estimator/estimators, variable/variables) without mangling
domain words.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?", re.IGNORECASE)

# Function words dropped when a definition phrase is broken into tokens;
# "speed of light" should contribute dimensions speed/light, not "of".
_FUNCTION_WORDS = frozenset(
    """
    a an the this that these those of in on at by for to from with as is
    are was were be been being and or nor but if then than so such its it
    their his her our your my no not which who whom whose what where when
    per via any all some each every other another
    """.split()
)


def strip_plural(word: str) -> str:
    """Lowercase and strip common plural endings."""
    w = word.lower()
    if len(w) <= 3:
        return w
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-3] + "y"
    if w.endswith("ss") or w.endswith("us") or w.endswith("is"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def definition_tokens(text: str) -> list[str]:
    """Break a definition phrase into stemmed content tokens.

    Hyphenated words split ("maximum-likelihood" -> maximum, likelihood),
    function words and empty fragments are dropped, order preserved.
    """
    out = []
    for raw in _TOKEN_RE.findall(text):
        low = raw.lower()
        if low in _FUNCTION_WORDS:
            continue
        stemmed = strip_plural(low)
        if stemmed:
            out.append(stemmed)
    return out
