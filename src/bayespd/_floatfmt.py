"""``repr`` text of float64 arrays, computed on whole arrays: Schubfach's
shortest digits (R. Giulietti, "The Schubfach way to render doubles", 2020)
laid out in 48 bytes per value (the sign and "0.000" in one word, 17 digits
with a "." slot after each but the last, the exponent and separator in the
last word), from which one ``bytes.translate`` deletes the 0 bytes."""

import functools

import numpy as np

BLOCK = 4096  # values per block, which bounds the work arrays

_POW10 = 10 ** np.arange(18, dtype=np.uint64)


def _words(texts) -> np.ndarray:
    """Each text as one 8-byte word, padded with 0 bytes."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def tables() -> tuple[np.ndarray, ...]:
    """Built on first use, not at import: (g1, g0), g1 2^63 + g0 = Schubfach's
    floor(10^-k 2^-r) + 1 with r = floor(-k log2 10) - 125, for k = -324..292;
    the texts of 0000..9999, of the prefixes and of the exponents; digit masks."""
    g = [(10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
         for k in range(-324, 293) for r in [(-k * 913124641741 >> 38) - 125]]
    return (np.array([v >> 63 for v in g], np.uint64),
            np.array([v & (1 << 63) - 1 for v in g], np.uint64),
            np.frombuffer(("%04d" * 10000 % tuple(range(10000))).encode(), np.uint32),
            _words(sign + lead for lead in ["", "0.", "0.0", "0.00", "0.000"]
                   for sign in ["", "-"]),
            _words([*(f"e{e:+03d}" for e in range(-324, 309)), ""]),
            np.array([[255] * (3 + n) + [0] * (17 - n) for n in range(18)], np.uint8)
            .view(np.uint32))


def _shortest(bits, g1, g0):
    """(f, e) for the bit patterns of positive finite doubles: f 10^e is the
    shortest decimal that rounds to the value, the closest one on a tie.
    Unlike the Java reference, no branch keeps two digits for s < 100 and no
    subnormal is scaled by 10: ``repr`` wants the plain shortest form."""
    be = (bits >> 52).astype(np.int64)
    t = bits & ((1 << 52) - 1)
    c = np.where(be > 0, t | (1 << 52), t)
    q = np.maximum(be, 1) - 1075
    irregular = (t == 0) & (be > 1)  # c = 2^52: the gap below is half
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)
    g1, g0 = g1[k + 324], g0[k + 324]
    cp = np.stack([4 * c - 2 + irregular, 4 * c, 4 * c + 2]) << h
    c1, c0 = cp >> 32, cp & 0xFFFFFFFF

    def mulhi(a):  # (a cp) >> 64; for a < 2^63, cp < 2^59 no sum overflows
        a1, a0 = a >> 32, a & 0xFFFFFFFF
        return a1 * c1 + ((a0 * c0 >> 32) + a0 * c1 + a1 * c0 >> 32)

    z = (g1 * cp >> 1) + mulhi(g0)  # g cp / 2^127, rounded to odd
    vbl, vb, vbr = mulhi(g1) + (z >> 63) | ((z & (1 << 63) - 1) != 0)
    out, s = c & 1, vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl + out <= sp10 << 2, (sp10 + 10 << 2) + out <= vbr
    uin, win = vbl + out <= s << 2, (s + 1 << 2) + out <= vbr
    upper = (vb > 4 * s + 2) | ((vb == 4 * s + 2) & ((s & 1) == 1))
    f = np.where(upin != wpin, np.where(wpin, sp10 + 10, sp10),
                 s + np.where(uin != win, win, upper))
    return f, k


def _block(x, sep) -> bytes:
    g1, g0, quads, prefixes, exponents, shown_masks = tables()
    finite = np.isfinite(x)
    f, e = _shortest(np.where(finite & (x != 0), np.abs(x), 1.0).view(np.uint64), g1, g0)
    width = np.searchsorted(_POW10, f, "right")  # digits of f
    # "000" and f's digits, left-aligned to 17 and padded with zeros
    groups, rest = np.empty((len(x), 5), np.uint32), f * _POW10[17 - width]
    for i in range(4, -1, -1):
        quot = rest // 10000
        groups[:, i] = quads[rest - quot * 10000]
        rest = quot
    chars = groups.view(np.uint8)[:, 3:]
    n = 17 - np.argmax(chars[:, ::-1] != ord("0"), axis=1)  # no trailing zeros
    chars[x == 0, 0] = ord("0")
    chars[np.isnan(x), :3] = np.frombuffer(b"nan", np.uint8)
    chars[np.isinf(x), :3] = np.frombuffer(b"inf", np.uint8)
    dp = e + width  # value = 0.d1d2... 10^dp
    sci = finite & ((dp < -3) | (dp > 16))  # d.dde-dd
    lead = finite & ~sci & (dp <= 0)  # 0.00dd
    # digits shown, with the zeros that pad them in dd00.0, and the "." after
    # the point-th of them (none when point = shown)
    shown = np.where(finite, np.where(sci | lead, n, np.maximum(n, dp + 1)), 3)
    point = np.where(sci, 1, np.where(lead | ~finite, shown, dp))
    groups &= shown_masks[shown]

    m = np.zeros((len(x), 48), np.uint8)
    words = m.view("<u8")
    words[:, 0] = prefixes[2 * np.where(lead, 1 - dp, 0) + (np.signbit(x) & ~np.isnan(x))]
    m[:, 6:39:2] = chars
    m[np.arange(len(x)), 5 + 2 * point] = np.where(point < shown, ord("."), 0)
    words[:, 5] = exponents[np.where(sci, dp + 323, -1)] | sep.astype("<u8") << 56
    return m.tobytes().translate(None, b"\0")


def repr_rows(rows) -> bytes:
    """``"".join(",".join(map(repr, row)) + "\\n" for row in rows)`` as bytes,
    for a 2-D float64 array ``rows``, formatted in blocks of BLOCK values."""
    values = rows.ravel()
    seps = np.tile(np.frombuffer(b"," * (rows.shape[1] - 1) + b"\n", np.uint8), len(rows))
    return b"".join(_block(values[i:i + BLOCK], seps[i:i + BLOCK])
                    for i in range(0, len(values), BLOCK))
